package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
)

// refPlacement is the hop-by-hop implementation of Algorithm 1 that
// Placement's difference arrays replaced, kept as a differential oracle.
// It walks every dimension-order path edge by edge, looks each node's
// links up in Topo.Links through per-node incidence lists, and evaluates
// every swap, interchangeable nodes included.
type refPlacement struct {
	t             *topo.Topology
	rows, cols    int
	pos, cell     []int
	hLoad, vLoad  []int
	totalLaneHops int
	incident      [][]int
}

// newRef places node i at positions[i] and routes every link.
func newRef(t *topo.Topology, rows, cols int, positions []int) *refPlacement {
	r := &refPlacement{
		t:        t,
		rows:     rows,
		cols:     cols,
		pos:      append([]int(nil), positions...),
		cell:     make([]int, rows*cols),
		hLoad:    make([]int, rows*(cols-1)),
		vLoad:    make([]int, (rows-1)*cols),
		incident: make([][]int, len(t.Nodes)),
	}
	for i := range r.cell {
		r.cell[i] = -1
	}
	for n, c := range r.pos {
		r.cell[c] = n
	}
	for li, l := range t.Links {
		r.incident[l.A] = append(r.incident[l.A], li)
		r.incident[l.B] = append(r.incident[l.B], li)
	}
	for _, l := range t.Links {
		r.route(r.pos[l.A], r.pos[l.B], l.Lanes)
	}
	return r
}

// newRefRandom draws the random start New draws from the same rng.
func newRefRandom(t *topo.Topology, rows, cols int, rng *rand.Rand) *refPlacement {
	return newRef(t, rows, cols, rng.Perm(rows * cols)[:len(t.Nodes)])
}

func (r *refPlacement) route(ca, cb, lanes int) {
	ra, colA := ca/r.cols, ca%r.cols
	rb, colB := cb/r.cols, cb%r.cols
	hops := 0
	lo, hi := min(colA, colB), max(colA, colB)
	for c := lo; c < hi; c++ {
		r.hLoad[ra*(r.cols-1)+c] += lanes
		hops++
	}
	rlo, rhi := min(ra, rb), max(ra, rb)
	for row := rlo; row < rhi; row++ {
		r.vLoad[row*r.cols+colB] += lanes
		hops++
	}
	r.totalLaneHops += hops * lanes
}

func (r *refPlacement) cost() Cost {
	m := 0
	for _, l := range r.hLoad {
		m = max(m, l)
	}
	for _, l := range r.vLoad {
		m = max(m, l)
	}
	return Cost{MaxLoad: m, LaneHops: r.totalLaneHops}
}

func (r *refPlacement) routeNode(n, skipPeer, sign int) {
	for _, li := range r.incident[n] {
		l := r.t.Links[li]
		if (l.A == n && l.B == skipPeer) || (l.B == n && l.A == skipPeer) {
			continue
		}
		r.route(r.pos[l.A], r.pos[l.B], sign*l.Lanes)
	}
}

func (r *refPlacement) swapCells(ca, cb int) {
	na, nb := r.cell[ca], r.cell[cb]
	if na == nb {
		return
	}
	if na != -1 {
		r.routeNode(na, nb, -1)
	}
	if nb != -1 {
		r.routeNode(nb, -2, -1)
	}
	r.cell[ca], r.cell[cb] = nb, na
	if na != -1 {
		r.pos[na] = cb
	}
	if nb != -1 {
		r.pos[nb] = ca
	}
	if na != -1 {
		r.routeNode(na, nb, 1)
	}
	if nb != -1 {
		r.routeNode(nb, -2, 1)
	}
}

func (r *refPlacement) optimize(maxPasses int) int {
	cells := r.rows * r.cols
	best := r.cost()
	passes := 0
	for passes < maxPasses {
		passes++
		improved := false
		for ca := 0; ca < cells; ca++ {
			for cb := ca + 1; cb < cells; cb++ {
				if r.cell[ca] == -1 && r.cell[cb] == -1 {
					continue
				}
				r.swapCells(ca, cb)
				if c := r.cost(); c.Less(best) {
					best = c
					improved = true
				} else {
					r.swapCells(ca, cb)
				}
			}
		}
		if !improved {
			break
		}
	}
	return passes
}

func (r *refPlacement) anneal(sweeps int, rng *rand.Rand) {
	cells := r.rows * r.cols
	if cells < 2 || sweeps < 1 {
		return
	}
	energy := func() float64 {
		c := r.cost()
		return float64(c.MaxLoad) + float64(c.LaneHops)*1e-7
	}
	cur := energy()
	bestPos := append([]int(nil), r.pos...)
	best := cur
	var deltaSum float64
	const probes = 20
	for i := 0; i < probes; i++ {
		ca, cb := rng.Intn(cells), rng.Intn(cells)
		if ca == cb {
			continue
		}
		r.swapCells(ca, cb)
		if d := energy() - cur; d > 0 {
			deltaSum += d
		}
		r.swapCells(ca, cb)
	}
	t0 := deltaSum/probes + 1
	moves := sweeps * cells
	for m := 0; m < moves; m++ {
		temp := t0 * math.Pow(0.01/t0, float64(m)/float64(moves))
		ca, cb := rng.Intn(cells), rng.Intn(cells)
		if ca == cb || (r.cell[ca] == -1 && r.cell[cb] == -1) {
			continue
		}
		r.swapCells(ca, cb)
		e := energy()
		d := e - cur
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			cur = e
			if cur < best {
				best = cur
				copy(bestPos, r.pos)
			}
		} else {
			r.swapCells(ca, cb)
		}
	}
	*r = *newRef(r.t, r.rows, r.cols, bestPos)
}

// routeExternal is RouteExternal's greedy nearest-boundary assignment
// over the hop-by-hop router.
func (r *refPlacement) routeExternal(capacities []int) error {
	var boundary []int
	for row := 0; row < r.rows; row++ {
		for c := 0; c < r.cols; c++ {
			if row == 0 || row == r.rows-1 || c == 0 || c == r.cols-1 {
				boundary = append(boundary, row*r.cols+c)
			}
		}
	}
	remaining := map[int]int{}
	for i, b := range boundary {
		remaining[b] = capacities[i]
	}
	for id, n := range r.t.Nodes {
		need := n.ExternalPorts
		cell := r.pos[id]
		dist := func(b int) int {
			return abs(b/r.cols-cell/r.cols) + abs(b%r.cols-cell%r.cols)
		}
		order := append([]int(nil), boundary...)
		sort.Slice(order, func(i, j int) bool {
			if di, dj := dist(order[i]), dist(order[j]); di != dj {
				return di < dj
			}
			return order[i] < order[j]
		})
		for _, b := range order {
			take := min(need, remaining[b])
			remaining[b] -= take
			need -= take
			if take > 0 && b != cell {
				r.route(b, cell, take)
			}
		}
		if need > 0 {
			return fmt.Errorf("node %d could not escape %d lanes", id, need)
		}
	}
	return nil
}

// sameAsRef fails the test unless p and r hold the same placement, loads
// and cost.
func sameAsRef(t *testing.T, what string, p *Placement, r *refPlacement) {
	t.Helper()
	if !slices.Equal(p.pos, r.pos) {
		t.Fatalf("%s: positions %v, reference %v", what, p.pos, r.pos)
	}
	h, v := p.Loads()
	if !slices.Equal(h, r.hLoad) || !slices.Equal(v, r.vLoad) {
		t.Fatalf("%s: loads h=%v v=%v, reference h=%v v=%v", what, h, v, r.hLoad, r.vLoad)
	}
	if p.Cost() != r.cost() || p.TotalLaneHops() != r.totalLaneHops {
		t.Fatalf("%s: cost %+v, reference %+v", what, p.Cost(), r.cost())
	}
}

type oracleCase struct {
	name string
	t    *topo.Topology
	// grids to place on; each must hold the topology.
	grids [][2]int
	// seeds for the random starts.
	seeds []int64
	// long marks cases skipped under -short.
	long bool
}

func oracleCases(tb testing.TB) []oracleCase {
	tb.Helper()
	must := func(t *topo.Topology, err error) *topo.Topology {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return t
	}
	th5 := ssc.MustTH5(200)
	dr2, err := th5.Deradix(2)
	if err != nil {
		tb.Fatal(err)
	}
	small, err := th5.Deradix(8)
	if err != nil {
		tb.Fatal(err)
	}
	// near gives the near-square grid the design-space solver uses, an
	// exact fit for the Clos up to 4096 ports, the flattened butterfly,
	// the mesh and the directed graph, and a roomier one with an extra row
	// and column of empty cells.
	near := func(t *topo.Topology, extra ...[2]int) [][2]int {
		r, c := topo.NearSquare(len(t.Nodes))
		return append([][2]int{{r, c}, {r + 1, c + 1}}, extra...)
	}
	clos1024 := must(topo.HomogeneousClos(1024, th5))
	clos2048 := must(topo.HomogeneousClos(2048, th5))
	clos4096 := must(topo.HomogeneousClos(4096, th5))
	clos8192 := must(topo.HomogeneousClos(8192, th5))
	closDr := must(topo.HomogeneousClos(8192, dr2))
	hetero := must(topo.HeterogeneousClos(2048, th5, 128))
	bfly := must(topo.Butterfly2(24, small, 3))
	fbfly := must(topo.FlattenedButterfly(4, 5, small))
	dfly := must(topo.BalancedDragonfly(40, small))
	mesh := must(topo.BalancedMesh(4, 5, small))
	// Nodes 0 and 1 reach the same peers over the same lanes, 0 as every
	// link's A end and 1 as its B end. Paths run X-first from the A end,
	// so the two are not interchangeable.
	directed := &topo.Topology{Name: "directed", Nodes: make([]topo.Node, 6)}
	for i := range directed.Nodes {
		directed.Nodes[i] = topo.Node{ID: i, Chiplet: small}
	}
	for _, peer := range []int{2, 3, 4} {
		directed.Links = append(directed.Links, topo.Link{A: 0, B: peer, Lanes: peer})
	}
	for _, peer := range []int{2, 3, 4} {
		directed.Links = append(directed.Links, topo.Link{A: peer, B: 1, Lanes: peer})
	}
	directed.Links = append(directed.Links, topo.Link{A: 5, B: 2, Lanes: 1})
	// Self-links have no path wherever their node sits; the reference
	// routes them like any link.
	selfLinks := &topo.Topology{Name: "self-links", Nodes: make([]topo.Node, 6)}
	for i := range selfLinks.Nodes {
		selfLinks.Nodes[i] = topo.Node{ID: i, Chiplet: small}
	}
	for _, l := range [][3]int{{0, 1, 2}, {1, 1, 4}, {1, 2, 3}, {2, 3, 1}, {3, 3, 2}, {3, 4, 2}, {4, 5, 1}, {5, 0, 3}, {2, 5, 2}, {4, 4, 1}} {
		selfLinks.Links = append(selfLinks.Links, topo.Link{A: l[0], B: l[1], Lanes: l[2]})
	}
	seeds := []int64{1, 2, 7, 31, 4242}
	return []oracleCase{
		// 12 nodes, also on a single row and a single column.
		{"clos-1024", clos1024, near(clos1024, [2]int{1, 12}, [2]int{12, 1}), seeds, false},
		{"clos-2048", clos2048, near(clos2048), seeds, false},
		{"clos-4096", clos4096, near(clos4096), seeds[:3], false},
		{"clos-8192", clos8192, near(clos8192), seeds[:2], true},
		{"clos-8192-deradix2", closDr, near(closDr)[:1], seeds[:1], true},
		{"hetero-clos-2048", hetero, near(hetero), seeds[:3], false},
		{"butterfly", bfly, near(bfly), seeds[:3], false},
		{"flatbutterfly", fbfly, near(fbfly), seeds[:3], false},
		{"dragonfly", dfly, near(dfly), seeds[:3], false},
		{"mesh", mesh, near(mesh), seeds[:3], false},
		{"directed", directed, near(directed, [2]int{1, 6}, [2]int{6, 1}), seeds, false},
		{"self-links", selfLinks, near(selfLinks, [2]int{1, 6}), seeds, false},
	}
}

// TestOptimizeMatchesHopByHopReference is the differential oracle for
// Algorithm 1: from the same random start, Optimize must end in the
// reference's positions after the same number of passes, with the same
// cost and per-edge loads, and still agree after periphery escape
// routing.
func TestOptimizeMatchesHopByHopReference(t *testing.T) {
	for _, c := range oracleCases(t) {
		if c.long && testing.Short() {
			continue
		}
		ext := c.t.ExternalPorts()
		for _, g := range c.grids {
			for _, seed := range c.seeds {
				what := fmt.Sprintf("%s on %dx%d seed %d", c.name, g[0], g[1], seed)
				p, err := New(c.t, g[0], g[1], rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				r := newRefRandom(c.t, g[0], g[1], rand.New(rand.NewSource(seed)))
				sameAsRef(t, what+" at start", p, r)
				if got, want := p.Optimize(50), r.optimize(50); got != want {
					t.Fatalf("%s: %d passes, reference %d", what, got, want)
				}
				sameAsRef(t, what+" after Optimize", p, r)
				// Exactly enough escape capacity, spread evenly, forces
				// nodes to spill onto farther boundary cells.
				caps := SpreadEscape(ext, len(p.BoundaryCells()), ext)
				errP, errR := p.RouteExternal(caps), r.routeExternal(caps)
				if (errP == nil) != (errR == nil) {
					t.Fatalf("%s: RouteExternal error %v, reference %v", what, errP, errR)
				}
				if errP == nil {
					sameAsRef(t, what+" after RouteExternal", p, r)
				}
			}
		}
	}
}

func TestBestMatchesHopByHopReference(t *testing.T) {
	c, err := topo.HomogeneousClos(4096, ssc.MustTH5(200))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Best(c, 7, 7, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var best *refPlacement
	for i := 0; i < 3; i++ {
		r := newRefRandom(c, 7, 7, rng)
		r.optimize(50)
		if best == nil || r.cost().Less(best.cost()) {
			best = r
		}
	}
	sameAsRef(t, "Best", p, best)
}

// TestAnnealMatchesHopByHopReference runs simulated annealing on both
// implementations under the same rng: every swap, acceptance draw and
// the restored best placement must agree.
func TestAnnealMatchesHopByHopReference(t *testing.T) {
	for _, c := range oracleCases(t) {
		if c.long {
			continue
		}
		for _, g := range c.grids[:2] {
			for _, seed := range c.seeds[:2] {
				what := fmt.Sprintf("%s on %dx%d seed %d", c.name, g[0], g[1], seed)
				rngP, rngR := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				p, err := New(c.t, g[0], g[1], rngP)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				r := newRefRandom(c.t, g[0], g[1], rngR)
				p.Anneal(10, rngP)
				r.anneal(10, rngR)
				sameAsRef(t, what+" after Anneal", p, r)
				if rngP.Int63() != rngR.Int63() {
					t.Fatalf("%s: Anneal drew a different number of random values", what)
				}
			}
		}
	}
}

// TestInterchangeableSwapIsNoOp checks the property Optimize's skip rests
// on, with the reference's full hop-by-hop re-route: exchanging two nodes
// of one class leaves every edge load and the lane-hops unchanged. It
// also pins which topologies have interchangeable nodes at all.
func TestInterchangeableSwapIsNoOp(t *testing.T) {
	wantClasses := map[string]int{
		"clos-1024": 2, "clos-2048": 2, "clos-4096": 2, "clos-8192": 2, "clos-8192-deradix2": 2,
		"hetero-clos-2048": 2, "butterfly": 2,
	}
	for _, c := range oracleCases(t) {
		g := c.grids[0]
		p, err := New(c.t, g[0], g[1], rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		classes := map[int32]bool{}
		for _, k := range p.class {
			classes[k] = true
		}
		want, ok := wantClasses[c.name]
		if !ok {
			want = len(c.t.Nodes) // no interchangeable nodes
		}
		if len(classes) != want {
			t.Errorf("%s: %d classes, want %d", c.name, len(classes), want)
		}
		if c.long && testing.Short() {
			continue
		}
		r := newRef(c.t, g[0], g[1], p.pos)
		h0, v0, hops0 := slices.Clone(r.hLoad), slices.Clone(r.vLoad), r.totalLaneHops
		for u := range c.t.Nodes {
			for v := u + 1; v < len(c.t.Nodes); v++ {
				if p.class[u] != p.class[v] {
					continue
				}
				r.swapCells(r.pos[u], r.pos[v])
				if !slices.Equal(r.hLoad, h0) || !slices.Equal(r.vLoad, v0) || r.totalLaneHops != hops0 {
					t.Fatalf("%s: swapping same-class nodes %d and %d changed the loads", c.name, u, v)
				}
			}
		}
	}
}
