package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// Hotspot traffic: a single hot destination bounds accepted throughput by
// the ejection bandwidth of one terminal (1 flit/cycle shared across all
// sources).
func TestHotspotEjectionBound(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	hot, err := traffic.Hotspot(128, []int{5}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(hot, 4)(0.5)
	st := n.Run(inj, 0.5)
	// 128 sources share one ejection port: <= 1/128 flits/term/cycle
	// (plus measurement slack).
	bound := 1.0/128 + 0.005
	if st.Accepted > bound {
		t.Errorf("hotspot accepted %.4f exceeds ejection bound %.4f", st.Accepted, bound)
	}
}

// Single-flit packets (head == tail) must flow correctly.
func TestSingleFlitPackets(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.PacketFlits = 1
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 1)(0.3)
	st := n.Run(inj, 0.3)
	if !st.Drained {
		t.Fatal("single-flit run did not drain")
	}
	if math.Abs(st.Accepted-0.3) > 0.02 {
		t.Errorf("accepted %.3f, want ~0.3", st.Accepted)
	}
}

// A single VC per port must still be deadlock-free on a Clos (up/down
// routing has no cyclic dependencies) and drain at moderate load.
func TestSingleVC(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.NumVCs = 1
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.2)
	st := n.Run(inj, 0.2)
	if !st.Drained {
		t.Error("single-VC Clos did not drain at load 0.2")
	}
}

// The packet table must be recycled: the pool should stay far smaller
// than the total number of packets processed.
func TestPacketTableRecycled(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.4)
	st := n.Run(inj, 0.4)
	if st.Completed < 1000 {
		t.Fatalf("too few packets to judge recycling: %d", st.Completed)
	}
	if len(n.pkts) > st.Completed/2 {
		t.Errorf("packet table grew to %d entries for %d measured packets; freelist not working",
			len(n.pkts), st.Completed)
	}
}

// Zero-load latency is independent of the traffic pattern on a Clos
// (every route is ingress-spine-egress).
func TestZeroLoadPatternInvariance(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	var base float64
	for i, mk := range []func() traffic.Pattern{
		func() traffic.Pattern { return traffic.Uniform(128) },
		func() traffic.Pattern { return traffic.Tornado(128) },
		func() traffic.Pattern { p, _ := traffic.Shuffle(128); return p },
	} {
		zl := zeroLoadLatency(t, func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) },
			SyntheticInjector(mk(), 4))
		if i == 0 {
			base = zl
			continue
		}
		if math.Abs(zl-base) > 3 {
			t.Errorf("pattern %d zero-load %.1f differs from uniform %.1f", i, zl, base)
		}
	}
}

// Longer packets serialize: zero-load latency grows by exactly the extra
// serialization cycles.
func TestPacketLengthSerialization(t *testing.T) {
	cl := testClos(t)
	zl := func(flits int) float64 {
		cfg := testConfig()
		cfg.PacketFlits = flits
		return zeroLoadLatency(t, func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) },
			SyntheticInjector(traffic.Uniform(128), flits))
	}
	l4, l8 := zl(4), zl(8)
	if math.Abs((l8-l4)-4) > 1.5 {
		t.Errorf("8-flit vs 4-flit zero-load delta = %.2f, want ~4 cycles of serialization", l8-l4)
	}
}

// Property: across random loads and seeds below saturation, completed
// packet counts match births and accepted tracks offered.
func TestRunConservationProperty(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(128, chip)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawLoad uint8, seed int16) bool {
		load := 0.05 + float64(rawLoad%40)/100 // 0.05 .. 0.44
		cfg := Config{
			NumVCs: 4, BufPerPort: 16, PacketFlits: 4,
			RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 4,
			WarmupCycles: 200, MeasureCycles: 400, Seed: int64(seed),
		}
		n, err := Build(cl, ConstantLatency(1), cfg)
		if err != nil {
			return false
		}
		inj, err := SyntheticInjector(traffic.Uniform(128), 4)(load)
		if err != nil {
			return false
		}
		st := n.Run(inj, load)
		return st.Drained && st.Completed == n.measuredBorn && math.Abs(st.Accepted-load) < 0.06
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Drain budget: a saturated network must report Drained == false rather
// than hanging.
func TestSaturatedRunTerminates(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.MeasureCycles = 500
	cfg.DrainCycles = 200
	hot, err := traffic.Hotspot(128, []int{0}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(hot, 4)(0.9)
	st := n.Run(inj, 0.9)
	if st.Drained {
		t.Error("deeply saturated hotspot run claims to have drained")
	}
	if st.Cycles > int64(cfg.WarmupCycles+cfg.MeasureCycles+cfg.DrainCycles) {
		t.Errorf("run exceeded its drain budget: %d cycles", st.Cycles)
	}
}

// Latency percentiles must bracket the mean and order correctly.
func TestLatencyPercentiles(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.5)
	st := n.Run(inj, 0.5)
	if st.P50Latency <= 0 || st.P99Latency <= 0 {
		t.Fatalf("percentiles missing: p50=%v p99=%v", st.P50Latency, st.P99Latency)
	}
	if !(st.P50Latency <= st.AvgLatency*1.2 && st.P50Latency <= st.P99Latency) {
		t.Errorf("percentile ordering broken: p50=%v avg=%v p99=%v",
			st.P50Latency, st.AvgLatency, st.P99Latency)
	}
}

func TestPercentileFunc(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// Nearest rank: index ceil(p*n)-1.
	if got := percentile(vals, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(vals, 0.99); got != 10 {
		t.Errorf("p99 of 10 values = %v, want 10 (rank ceil(0.99*10) = 10)", got)
	}
	if got := percentile(vals, 0.05); got != 1 {
		t.Errorf("p5 of 10 values = %v, want 1 (rank ceil(0.05*10) = 1)", got)
	}
	if got := percentile(vals, 1.0); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

// Grid topologies route by one rule: every candidate next hop is one
// hop closer to the destination, and while the router and the
// destination sit in different columns it stays in the router's row. On
// the mesh that is dimension-order routing, on the flattened butterfly a
// row hop before a column hop; on both, the rule leaves one next router
// per (router, destination) pair, reached over all the lanes of its
// link. The acyclic channel dependencies this gives are what extMeshSim
// and the never-wedge tests depend on.
func TestMeshDORRouting(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topo.MeshTopo(3, 4, chip, 2)
	if err != nil {
		t.Fatal(err)
	}
	fb23, err := topo.FlattenedButterfly(2, 3, chip)
	if err != nil {
		t.Fatal(err)
	}
	fb33, err := topo.FlattenedButterfly(3, 3, chip)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		top        *topo.Topology
		rows, cols int
	}{{mesh, 3, 4}, {fb23, 2, 3}, {fb33, 3, 3}} {
		top, cols := tc.top, tc.cols
		t.Run(fmt.Sprintf("%s-%dx%d", top.Kind, tc.rows, cols), func(t *testing.T) {
			n, err := Build(top, ConstantLatency(1), testConfig())
			if err != nil {
				t.Fatal(err)
			}
			// Hop distances and lane counts between routers, from the
			// topology itself.
			R := n.R
			lanes := make([]int, R*R)
			for _, l := range top.Links {
				lanes[l.A*R+l.B] += l.Lanes
				lanes[l.B*R+l.A] += l.Lanes
			}
			dist := make([]int, R*R)
			for d := 0; d < R; d++ {
				for r := range R {
					dist[r*R+d] = -1
				}
				dist[d*R+d] = 0
				for q := []int{d}; len(q) > 0; q = q[1:] {
					for v := 0; v < R; v++ {
						if lanes[q[0]*R+v] > 0 && dist[v*R+d] < 0 {
							dist[v*R+d] = dist[q[0]*R+d] + 1
							q = append(q, v)
						}
					}
				}
			}
			for r := 0; r < R; r++ {
				for d := 0; d < R; d++ {
					if r == d {
						continue
					}
					cands := n.nextFlat[r*R+d]
					peers := map[int]int{}
					for _, p := range cands {
						peer := int(n.channels[n.outCh[r*n.maxP+int(p)]].dstRouter)
						if dist[peer*R+d] != dist[r*R+d]-1 {
							t.Fatalf("router %d -> %d: candidate port %d leads to router %d, %d hops from the destination; want %d",
								r, d, p, peer, dist[peer*R+d], dist[r*R+d]-1)
						}
						if r%cols != d%cols && peer/cols != r/cols {
							t.Fatalf("router %d -> %d: candidate port %d leaves row %d for router %d while the columns differ",
								r, d, p, r/cols, peer)
						}
						peers[peer]++
					}
					if len(peers) != 1 {
						t.Fatalf("router %d -> %d: candidates lead to %d routers %v, want 1", r, d, len(peers), peers)
					}
					for peer, k := range peers {
						if k != lanes[r*R+peer] {
							t.Fatalf("router %d -> %d: %d candidates toward router %d, want its %d lanes", r, d, k, peer, lanes[r*R+peer])
						}
					}
				}
			}
		})
	}
}

// Mesh topologies are simulable too (the routing tables come from BFS,
// not Clos-specific logic).
func TestMeshSimulation(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(8) // radix 32
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.MeshTopo(3, 3, chip, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.NumVCs = 8 // enough VCs to avoid adaptive-routing deadlock in practice
	n, err := Build(m, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	terms := m.ExternalPorts()
	inj, _ := SyntheticInjector(traffic.Uniform(terms), 4)(0.1)
	st := n.Run(inj, 0.1)
	if !st.Drained || st.Completed == 0 {
		t.Errorf("mesh simulation: drained=%v completed=%d", st.Drained, st.Completed)
	}
}
