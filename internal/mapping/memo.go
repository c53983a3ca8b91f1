package mapping

import (
	"math/rand"
	"slices"
	"sync"

	"waferswitch/internal/topo"
)

// optimizedKey identifies one Algorithm 1 run: everything New and
// Optimize read of the topology (see topo.CanonicalHash), the grid and
// the seed of the random start.
type optimizedKey struct {
	hash       [32]byte
	rows, cols int
	seed       int64
}

// optimizedEntry holds one key's placement. Callers that find the entry
// while it is being computed wait on once.
type optimizedEntry struct {
	once sync.Once
	p    *Placement
	err  error
}

// optimizedMemo maps optimizedKey -> *optimizedEntry. Entries live for
// the process; like sim's route cache, their number is bounded by the
// experiment grid times the restart budget.
var optimizedMemo sync.Map

// Optimized returns the placement that New(t, rows, cols,
// rand.New(rand.NewSource(seed))) reaches after Optimize(50).
// A placement is a pure function of the topology's structure, the grid
// and the start, so each (t.CanonicalHash(), rows, cols, seed) is
// optimized once per process and every later call, from any structurally
// equal topology, is a copy.
//
// Each call gets its own placement with Topo set to t: its positions and
// loads are private, so the caller may RouteExternal, Optimize or Anneal
// it freely, and only the read-only link and grid tables are shared.
func Optimized(t *topo.Topology, rows, cols int, seed int64) (*Placement, error) {
	key := optimizedKey{t.CanonicalHash(), rows, cols, seed}
	v, ok := optimizedMemo.Load(key)
	if !ok {
		v, _ = optimizedMemo.LoadOrStore(key, &optimizedEntry{})
	}
	e := v.(*optimizedEntry)
	e.once.Do(func() {
		e.p, e.err = New(t, rows, cols, rand.New(rand.NewSource(seed)))
		if e.err != nil {
			return
		}
		e.p.Optimize(50)
		e.p.Topo = nil // each copy takes its caller's; the memo pins none
	})
	if e.err != nil {
		// Errors are cheap to reach again; keep no entry for them.
		optimizedMemo.CompareAndDelete(key, e)
		return nil, e.err
	}
	return e.p.clone(t), nil
}

// clone returns a copy of p placed for t. The copy owns its positions and
// loads, starts with no scratch arrays of its own, and shares p's
// read-only grid and link tables.
func (p *Placement) clone(t *topo.Topology) *Placement {
	c := *p
	c.Topo = t
	c.pos = slices.Clone(p.pos)
	c.cell = slices.Clone(p.cell)
	c.hDiff = slices.Clone(p.hDiff)
	c.vDiff = slices.Clone(p.vDiff)
	c.sh, c.sv = nil, nil
	return &c
}
