package mapping

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
)

// freshOptimized is what Optimized must return: a new random start from
// seed after Optimize(50).
func freshOptimized(t *testing.T, tp *topo.Topology, rows, cols int, seed int64) *Placement {
	t.Helper()
	p, err := New(tp, rows, cols, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	p.Optimize(50)
	return p
}

// samePlacement fails the test unless got and want hold the same
// positions, loads and cost.
func samePlacement(t *testing.T, what string, got, want *Placement) {
	t.Helper()
	if !slices.Equal(got.pos, want.pos) || !slices.Equal(got.cell, want.cell) {
		t.Fatalf("%s: positions %v, want %v", what, got.pos, want.pos)
	}
	gh, gv := got.Loads()
	wh, wv := want.Loads()
	if !slices.Equal(gh, wh) || !slices.Equal(gv, wv) {
		t.Fatalf("%s: loads h=%v v=%v, want h=%v v=%v", what, gh, gv, wh, wv)
	}
	if got.TotalLaneHops() != want.TotalLaneHops() || got.Cost() != want.Cost() {
		t.Fatalf("%s: cost %+v (%d lane-hops), want %+v (%d)",
			what, got.Cost(), got.TotalLaneHops(), want.Cost(), want.TotalLaneHops())
	}
	if got.SwapEvaluations() != want.SwapEvaluations() {
		t.Fatalf("%s: %d swap evaluations, want %d", what, got.SwapEvaluations(), want.SwapEvaluations())
	}
}

// sharesArray reports whether two non-empty slices start at the same
// element.
func sharesArray(a, b []int) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// forget drops a key's memo entry, so the next call computes it even
// when the test runs again in the same process (-count).
func forget(tp *topo.Topology, rows, cols int, seed int64) {
	optimizedMemo.Delete(optimizedKey{tp.CanonicalHash(), rows, cols, seed})
}

func optimized(t *testing.T, tp *topo.Topology, rows, cols int, seed int64) *Placement {
	t.Helper()
	p, err := Optimized(tp, rows, cols, seed)
	if err != nil {
		t.Fatal(err)
	}
	if p.Topo != tp {
		t.Fatalf("Optimized copy's Topo is %p, want the caller's %p", p.Topo, tp)
	}
	return p
}

// TestOptimizedMatchesFresh checks the memo against a fresh Algorithm 1
// run, on the first (computing) call and on a second (cached) one.
func TestOptimizedMatchesFresh(t *testing.T) {
	must := func(tp *topo.Topology, err error) *topo.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	th5 := ssc.MustTH5(200)
	dr2, err := th5.Deradix(2)
	if err != nil {
		t.Fatal(err)
	}
	small, err := th5.Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	clos1024 := must(topo.HomogeneousClos(1024, th5))
	clos2048 := must(topo.HomogeneousClos(2048, th5))
	cases := []struct {
		name string
		t    *topo.Topology
		// extra adds rows and columns of empty cells to the near-square
		// grid.
		extra int
		seed  int64
	}{
		{"clos-1024", clos1024, 0, 101},
		{"clos-1024-another-start", clos1024, 0, 107},
		{"clos-2048", clos2048, 0, 102},
		{"clos-2048-empty-cells", clos2048, 1, 102},
		{"clos-8192", must(topo.HomogeneousClos(8192, th5)), 0, 103},
		{"clos-4096-deradix2", must(topo.HomogeneousClos(4096, dr2)), 0, 104},
		{"butterfly", must(topo.Butterfly2(24, small, 3)), 0, 105},
		{"dragonfly", must(topo.BalancedDragonfly(40, small)), 0, 106},
	}
	for _, c := range cases {
		rows, cols := topo.NearSquare(len(c.t.Nodes))
		rows, cols = rows+c.extra, cols+c.extra
		what := fmt.Sprintf("%s on %dx%d seed %d", c.name, rows, cols, c.seed)
		want := freshOptimized(t, c.t, rows, cols, c.seed)
		forget(c.t, rows, cols, c.seed)
		samePlacement(t, what+", first call", optimized(t, c.t, rows, cols, c.seed), want)
		samePlacement(t, what+", cached call", optimized(t, c.t, rows, cols, c.seed), want)
	}
}

// TestOptimizedCopiesAreIsolated mutates one returned copy every way a
// caller may and requires the memo to be unaffected.
func TestOptimizedCopiesAreIsolated(t *testing.T) {
	c := smallClos(t, 2048)
	const rows, cols, seed = 6, 6, 201
	want := freshOptimized(t, c, rows, cols, seed)
	a := optimized(t, c, rows, cols, seed)
	b := optimized(t, c, rows, cols, seed)
	for _, s := range [][2][]int{{a.pos, b.pos}, {a.cell, b.cell}, {a.hDiff, b.hDiff}, {a.vDiff, b.vDiff}} {
		if sharesArray(s[0], s[1]) {
			t.Fatal("two copies share a positions or loads backing array")
		}
	}
	// Move a node onto an empty cell, re-optimize, then route the escape
	// paths: every private field of a changes. RouteExternal comes last
	// because Optimize refuses to run after it.
	a.swapCells(a.pos[0], slices.Index(a.cell, -1))
	a.Optimize(1)
	// The entry's placement ran Optimize, so it has scratch arrays: a
	// copy must not inherit them, and two copies that score swaps must
	// each get their own.
	v, _ := optimizedMemo.Load(optimizedKey{c.CanonicalHash(), rows, cols, seed})
	memo := v.(*optimizedEntry).p
	if memo.sh == nil {
		t.Fatal("the memo's placement has no scratch arrays after Optimize")
	}
	e := optimized(t, c, rows, cols, seed)
	e.Optimize(1)
	arrays := func(p *Placement) [][]int { return [][]int{p.hDiff, p.vDiff, p.sh, p.sv} }
	for _, pair := range [][2]*Placement{{a, e}, {a, memo}, {e, memo}} {
		for _, x := range arrays(pair[0]) {
			for _, y := range arrays(pair[1]) {
				if sharesArray(x, y) {
					t.Fatal("two placements share a loads or scratch backing array")
				}
			}
		}
	}
	ext := c.ExternalPorts()
	if err := a.RouteExternal(SpreadEscape(ext, len(a.BoundaryCells()), ext)); err != nil {
		t.Fatal(err)
	}
	samePlacement(t, "copy after another copy was mutated", b, want)
	samePlacement(t, "call after a copy was mutated", optimized(t, c, rows, cols, seed), want)
	// A routed copy's escape flag must not leak either: a new copy still
	// optimizes and routes.
	d := optimized(t, c, rows, cols, seed)
	d.Optimize(1)
	if err := d.RouteExternal(SpreadEscape(ext, len(d.BoundaryCells()), ext)); err != nil {
		t.Fatalf("RouteExternal on a fresh copy: %v", err)
	}
}

// TestOptimizedKeysOnStructure gives a structurally equal topology built
// separately, under another name, the same placement, placed for itself.
func TestOptimizedKeysOnStructure(t *testing.T) {
	const rows, cols, seed = 5, 5, 301
	c := smallClos(t, 2048)
	twin := smallClos(t, 2048)
	twin.Name = "twin"
	if twin == c || twin.CanonicalHash() != c.CanonicalHash() {
		t.Fatal("twin must be a separate, structurally equal topology")
	}
	want := freshOptimized(t, c, rows, cols, seed)
	forget(c, rows, cols, seed)
	samePlacement(t, "original", optimized(t, c, rows, cols, seed), want)
	samePlacement(t, "twin", optimized(t, twin, rows, cols, seed), want)
}

// TestOptimizedConcurrentColdKey has 8 goroutines race to compute one
// cold key, then re-optimize their copies at the same time, each
// scoring swaps in its own scratch arrays; run it under -race.
func TestOptimizedConcurrentColdKey(t *testing.T) {
	c := smallClos(t, 4096)
	const rows, cols, seed = 7, 7, 401
	forget(c, rows, cols, seed)
	got := make([]*Placement, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Optimized(c, rows, cols, seed)
			if errs[i] == nil {
				got[i].Optimize(1)
			}
		}()
	}
	wg.Wait()
	want := freshOptimized(t, c, rows, cols, seed)
	want.Optimize(1)
	for i, p := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		samePlacement(t, fmt.Sprintf("goroutine %d", i), p, want)
	}
}

// TestOptimizedErrorNotCached asks for a grid too small for the
// topology: every call fails alike and no entry stays behind.
func TestOptimizedErrorNotCached(t *testing.T) {
	c := smallClos(t, 2048) // 24 chiplets
	const rows, cols, seed = 4, 5, 501
	_, want := New(c, rows, cols, rand.New(rand.NewSource(seed)))
	if want == nil {
		t.Fatal("New accepted an overfull grid")
	}
	for call := 1; call <= 2; call++ {
		p, err := Optimized(c, rows, cols, seed)
		if p != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: got %v, %v; want nil, %v", call, p, err, want)
		}
		if _, ok := optimizedMemo.Load(optimizedKey{c.CanonicalHash(), rows, cols, seed}); ok {
			t.Fatalf("call %d left an entry for a failed key", call)
		}
	}
}
