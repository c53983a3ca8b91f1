package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
)

func smallClos(t *testing.T, ports int) *topo.Topology {
	t.Helper()
	c, err := topo.HomogeneousClos(ports, ssc.MustTH5(200))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewPlacesAllNodes(t *testing.T) {
	c := smallClos(t, 2048) // 24 chiplets
	p, err := New(c, 5, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for id := range c.Nodes {
		r, col := p.NodeCell(id)
		if r < 0 || r >= 5 || col < 0 || col >= 5 {
			t.Fatalf("node %d at (%d,%d) out of grid", id, r, col)
		}
		cell := r*5 + col
		if seen[cell] {
			t.Fatalf("cell %d used twice", cell)
		}
		seen[cell] = true
	}
}

func TestNewRejectsOverfullGrid(t *testing.T) {
	c := smallClos(t, 2048)
	if _, err := New(c, 4, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("placing 24 chiplets on 4x5 grid did not fail")
	}
}

// Load conservation: total lane-hops must equal the sum of all edge loads.
func TestLoadConservation(t *testing.T) {
	c := smallClos(t, 2048)
	p, err := New(c, 5, 5, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	h, v := p.Loads()
	sum := 0
	for _, l := range h {
		sum += l
	}
	for _, l := range v {
		sum += l
	}
	if sum != p.TotalLaneHops() {
		t.Errorf("sum of edge loads = %d, TotalLaneHops = %d", sum, p.TotalLaneHops())
	}
}

// Lane-hops must equal the sum over links of lanes x Manhattan distance
// (dimension-order routes are shortest paths).
func TestLaneHopsMatchManhattan(t *testing.T) {
	c := smallClos(t, 1024)
	p, err := New(c, 4, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, l := range c.Links {
		ra, ca := p.NodeCell(l.A)
		rb, cb := p.NodeCell(l.B)
		d := abs(ra-rb) + abs(ca-cb)
		want += d * l.Lanes
	}
	if got := p.TotalLaneHops(); got != want {
		t.Errorf("TotalLaneHops = %d, want %d", got, want)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestOptimizeImproves(t *testing.T) {
	c := smallClos(t, 2048)
	p, err := New(c, 6, 6, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	before := p.Cost()
	passes := p.Optimize(50)
	after := p.Cost()
	if passes < 1 {
		t.Error("Optimize ran zero passes")
	}
	if before.Less(after) {
		t.Errorf("Optimize made cost worse: %+v -> %+v", before, after)
	}
	if after.MaxLoad > before.MaxLoad {
		t.Errorf("MaxLoad rose from %d to %d", before.MaxLoad, after.MaxLoad)
	}
	// Loads must still be consistent after all the swapping: rebuild from
	// scratch at the same positions and compare.
	positions := make([]int, len(c.Nodes))
	for id := range c.Nodes {
		r, col := p.NodeCell(id)
		positions[id] = r*p.Cols + col
	}
	q, err := NewWithPositions(c, p.Rows, p.Cols, positions)
	if err != nil {
		t.Fatal(err)
	}
	qh, qv := q.Loads()
	ph, pv := p.Loads()
	for i := range qh {
		if qh[i] != ph[i] {
			t.Fatalf("h load %d inconsistent after optimize: %d vs rebuilt %d", i, ph[i], qh[i])
		}
	}
	for i := range qv {
		if qv[i] != pv[i] {
			t.Fatalf("v load %d inconsistent after optimize: %d vs rebuilt %d", i, pv[i], qv[i])
		}
	}
}

// The paper reports the pairwise-exchange heuristic improves worst-case
// internal bandwidth per port by ~148% over random mapping (Fig 5); at
// minimum it must help substantially on a mid-size Clos.
func TestOptimizeBeatsRandomSubstantially(t *testing.T) {
	c := smallClos(t, 4096) // 48 chiplets
	rng := rand.New(rand.NewSource(5))
	randomTotal := 0
	const samples = 5
	for i := 0; i < samples; i++ {
		random, err := New(c, 10, 10, rng)
		if err != nil {
			t.Fatal(err)
		}
		randomTotal += random.MaxLoad()
	}
	randomLoad := randomTotal / samples
	best, err := Best(c, 10, 10, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	optLoad := best.MaxLoad()
	if optLoad >= randomLoad {
		t.Errorf("optimized MaxLoad %d not better than random %d", optLoad, randomLoad)
	}
	if ratio := float64(randomLoad) / float64(optLoad); ratio < 1.3 {
		t.Errorf("improvement ratio = %.2f, want >= 1.3", ratio)
	}
}

func TestBestDeterministic(t *testing.T) {
	c := smallClos(t, 1024)
	p1, err := Best(c, 4, 4, 2, 123)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Best(c, 4, 4, 2, 123)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cost() != p2.Cost() {
		t.Errorf("same seed produced different costs: %+v vs %+v", p1.Cost(), p2.Cost())
	}
}

func TestMeshIdentityPlacementIsZeroFeedthrough(t *testing.T) {
	// A native mesh topology placed identically has every logical link on
	// an adjacent pair: max load = lanes per neighbor and hops = links.
	chip := ssc.MustTH5(200)
	m, err := topo.MeshTopo(4, 4, chip, 8)
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]int, 16)
	for i := range positions {
		positions[i] = i
	}
	p, err := NewWithPositions(m, 4, 4, positions)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MaxLoad(); got != 8 {
		t.Errorf("identity mesh MaxLoad = %d, want 8", got)
	}
	if got := p.AvgLinkHops(); got != 1 {
		t.Errorf("identity mesh AvgLinkHops = %v, want 1", got)
	}
}

func TestRouteExternalAddsLoadAndConserves(t *testing.T) {
	c := smallClos(t, 2048)
	p, err := Best(c, 5, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	internal := p.TotalLaneHops()
	caps := SpreadEscape(4096, len(p.BoundaryCells()), 1000)
	if err := p.RouteExternal(caps); err != nil {
		t.Fatal(err)
	}
	if p.ExternalLaneHops() < 0 {
		t.Errorf("ExternalLaneHops = %d", p.ExternalLaneHops())
	}
	if got := p.InternalLaneHops(); got != internal {
		t.Errorf("InternalLaneHops = %d, want %d", got, internal)
	}
	// Conservation still holds.
	h, v := p.Loads()
	sum := 0
	for _, l := range h {
		sum += l
	}
	for _, l := range v {
		sum += l
	}
	if sum != p.TotalLaneHops() {
		t.Errorf("edge loads sum %d != TotalLaneHops %d", sum, p.TotalLaneHops())
	}
}

func TestRouteExternalCapacityExceeded(t *testing.T) {
	c := smallClos(t, 2048) // 2048 external lanes
	p, err := New(c, 5, 5, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// 16 boundary cells x 100 lanes = 1600 < 2048.
	nb := len(p.BoundaryCells())
	caps := SpreadEscape(1600, nb, 100)
	if err := p.RouteExternal(caps); err == nil {
		t.Error("insufficient escape capacity did not fail")
	}
	if err := p.RouteExternal(make([]int, 3)); err == nil {
		t.Error("wrong capacity count did not fail")
	}
	bad := make([]int, nb)
	bad[0] = -1
	if err := p.RouteExternal(bad); err == nil {
		t.Error("negative capacity did not fail")
	}
}

func TestSpreadEscape(t *testing.T) {
	caps := SpreadEscape(10, 4, 100)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("SpreadEscape(10,4,100) = %v, want %v", caps, want)
		}
	}
	// Per-cell cap binds.
	caps = SpreadEscape(100, 4, 10)
	for _, c := range caps {
		if c != 10 {
			t.Fatalf("capped SpreadEscape = %v, want all 10", caps)
		}
	}
	if got := SpreadEscape(0, 4, 10); got[0] != 0 {
		t.Errorf("SpreadEscape(0, ...) = %v, want zeros", got)
	}
	if got := SpreadEscape(10, 0, 10); got != nil {
		t.Errorf("SpreadEscape(_, 0, _) = %v, want nil", got)
	}
}

func TestRouteExternalTwiceFails(t *testing.T) {
	c := smallClos(t, 1024)
	p, err := New(c, 4, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	big := SpreadEscape(1<<20, len(p.BoundaryCells()), 1<<20)
	if err := p.RouteExternal(big); err != nil {
		t.Fatal(err)
	}
	if err := p.RouteExternal(big); err == nil {
		t.Error("second RouteExternal did not fail")
	}
}

func TestOptimizeAfterExternalPanics(t *testing.T) {
	c := smallClos(t, 1024)
	p, err := New(c, 4, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	big := SpreadEscape(1<<20, len(p.BoundaryCells()), 1<<20)
	if err := p.RouteExternal(big); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Optimize after RouteExternal did not panic")
		}
	}()
	p.Optimize(1)
}

// Property: swapping two cells and swapping them back restores the exact
// load state (the incremental accounting has no leaks).
func TestSwapInvolutionProperty(t *testing.T) {
	c := smallClos(t, 1024)
	p, err := New(c, 4, 4, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	h0, v0 := p.Loads()
	hops0 := p.TotalLaneHops()
	f := func(a, b uint8) bool {
		ca, cb := int(a)%16, int(b)%16
		if ca == cb {
			return true
		}
		p.swapCells(ca, cb)
		p.swapCells(ca, cb)
		h, v := p.Loads()
		if p.TotalLaneHops() != hops0 {
			return false
		}
		for i := range h {
			if h[i] != h0[i] {
				return false
			}
		}
		for i := range v {
			if v[i] != v0[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostLess(t *testing.T) {
	if !(Cost{1, 10}).Less(Cost{2, 5}) {
		t.Error("lower MaxLoad should win")
	}
	if !(Cost{2, 5}).Less(Cost{2, 10}) {
		t.Error("equal MaxLoad: lower hops should win")
	}
	if (Cost{2, 10}).Less(Cost{2, 10}) {
		t.Error("equal costs are not Less")
	}
}

func TestNewWithPositionsValidation(t *testing.T) {
	c := smallClos(t, 1024)
	if _, err := NewWithPositions(c, 4, 4, []int{0}); err == nil {
		t.Error("wrong position count did not fail")
	}
	bad := make([]int, len(c.Nodes))
	if _, err := NewWithPositions(c, 4, 4, bad); err == nil {
		t.Error("duplicate positions did not fail")
	}
	bad2 := make([]int, len(c.Nodes))
	for i := range bad2 {
		bad2[i] = i
	}
	bad2[0] = 99
	if _, err := NewWithPositions(c, 4, 4, bad2); err == nil {
		t.Error("out-of-range position did not fail")
	}
	// Grids New rejects: negative dimensions whose product still holds
	// the nodes, and an empty topology on a grid with no rows.
	ids := make([]int, len(c.Nodes))
	for i := range ids {
		ids[i] = i
	}
	if _, err := NewWithPositions(c, -3, -4, ids); err == nil {
		t.Error("-3x-4 grid did not fail")
	}
	empty := &topo.Topology{Name: "empty"}
	if _, err := NewWithPositions(empty, 0, 5, nil); err == nil {
		t.Error("empty topology on a 0x5 grid did not fail")
	}
	if _, err := New(empty, 0, 5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("New: empty topology on a 0x5 grid did not fail")
	}
	// A link to a node the topology does not have is an error, not a
	// panic.
	dangling := &topo.Topology{Name: "dangling", Nodes: []topo.Node{{ID: 0}, {ID: 1}},
		Links: []topo.Link{{A: 0, B: 5, Lanes: 1}}}
	if _, err := NewWithPositions(dangling, 2, 2, []int{0, 1}); err == nil {
		t.Error("link to a missing node did not fail")
	}
}
