package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// testClos returns a small Clos: radix-32 sub-switches, 128 terminals
// (8 leaves of 16 terminals + 4 spines).
func testClos(t *testing.T) *topo.Topology {
	t.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(128, chip)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// testWideClos is a 256-port Clos of radix-16 leaves under two
// 128-port spines: the spines' port masks span two words, the leaves'
// one word of two.
func testWideClos(t *testing.T) *topo.Topology {
	t.Helper()
	leaf, err := ssc.MustTH5(200).Deradix(16)
	if err != nil {
		t.Fatal(err)
	}
	spine, err := ssc.MustTH5(200).Deradix(2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.Clos2(256, leaf, spine)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testConfig() Config {
	return Config{
		NumVCs: 4, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 8,
		WarmupCycles: 1000, MeasureCycles: 2000, Seed: 7,
	}
}

// A saturated point's source backlog is much of its heap, so a queue
// entry stays two words; the packet table's entry stays three. Neither
// stores whether the packet is measured: that follows from its birth
// cycle (Network.inWindow).
func TestPacketRecordSizes(t *testing.T) {
	if s := unsafe.Sizeof(pendingPkt{}); s != 16 {
		t.Errorf("pendingPkt is %d bytes, want 16", s)
	}
	if s := unsafe.Sizeof(packetInfo{}); s != 24 {
		t.Errorf("packetInfo is %d bytes, want 24", s)
	}
}

// zeroLoadLatency returns the average packet latency of build at
// ZeroLoad, run as a one-point serial sweep.
func zeroLoadLatency(t *testing.T, build Builder, injf InjectorFactory) float64 {
	t.Helper()
	res, err := Sweep(build, injf, []float64{ZeroLoad}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	zl, err := ZeroLoadLatencyOf(res.Points[0].Stats)
	if err != nil {
		t.Fatal(err)
	}
	return zl
}

// serialStats runs build at each offered load as a serial sweep and
// returns the stats per point.
func serialStats(t *testing.T, build Builder, injf InjectorFactory, loads []float64) []Stats {
	t.Helper()
	res, err := Sweep(build, injf, loads, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats()
}

func TestAcceptedTracksOfferedBelowSaturation(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	build := func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) }
	injf := SyntheticInjector(traffic.Uniform(128), cfg.PacketFlits)
	stats := serialStats(t, build, injf, []float64{0.1, 0.3, 0.5})
	for _, s := range stats {
		if math.Abs(s.Accepted-s.Offered) > 0.02 {
			t.Errorf("load %.2f: accepted %.3f, want within 0.02 of offered", s.Offered, s.Accepted)
		}
		if !s.Drained {
			t.Errorf("load %.2f: network failed to drain below saturation", s.Offered)
		}
	}
	// Latency must grow monotonically with load.
	for i := 1; i < len(stats); i++ {
		if stats[i].AvgLatency < stats[i-1].AvgLatency {
			t.Errorf("latency not monotone: %.1f at %.2f after %.1f at %.2f",
				stats[i].AvgLatency, stats[i].Offered, stats[i-1].AvgLatency, stats[i-1].Offered)
		}
	}
}

func TestSaturationPlateau(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	build := func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) }
	injf := SyntheticInjector(traffic.Uniform(128), cfg.PacketFlits)
	stats := serialStats(t, build, injf, []float64{0.6, 0.8, 0.95})
	sat := SaturationThroughput(stats)
	if sat < 0.5 || sat > 1.0 {
		t.Errorf("saturation throughput = %.3f, want in [0.5, 1.0]", sat)
	}
	// Past saturation, accepted stays below offered.
	last := stats[len(stats)-1]
	if last.Accepted > last.Offered {
		t.Errorf("accepted %.3f above offered %.3f", last.Accepted, last.Offered)
	}
}

// Section VI proprietary routing: cutting the non-ingress RC delay must
// reduce zero-load latency and not reduce saturation throughput.
func TestProprietaryRoutingHelps(t *testing.T) {
	cl := testClos(t)
	base := testConfig()
	base.RCIngress, base.RCOther = 4, 4
	prop := testConfig()
	prop.RCIngress, prop.RCOther = 2, 1

	injf := SyntheticInjector(traffic.Uniform(128), 4)
	buildBase := func() (*Network, error) { return Build(cl, ConstantLatency(1), base) }
	buildProp := func() (*Network, error) { return Build(cl, ConstantLatency(1), prop) }
	zlBase := zeroLoadLatency(t, buildBase, injf)
	zlProp := zeroLoadLatency(t, buildProp, injf)
	if zlProp >= zlBase {
		t.Errorf("proprietary zero-load %.1f not below baseline %.1f", zlProp, zlBase)
	}
	loads := []float64{0.6, 0.8, 0.95}
	sBase := serialStats(t, buildBase, injf, loads)
	sProp := serialStats(t, buildProp, injf, loads)
	if SaturationThroughput(sProp) < SaturationThroughput(sBase)-0.02 {
		t.Errorf("proprietary saturation %.3f below baseline %.3f",
			SaturationThroughput(sProp), SaturationThroughput(sBase))
	}
}

// Longer links (the discrete switch network) must raise zero-load latency.
func TestLinkLatencyRaisesLatency(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	injf := SyntheticInjector(traffic.Uniform(128), 4)
	zlWafer := zeroLoadLatency(t, func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) }, injf)
	zlRack := zeroLoadLatency(t, func() (*Network, error) { return Build(cl, ConstantLatency(8), cfg) }, injf)
	if want := zlWafer + 13; math.Abs(zlRack-want) > 2 {
		t.Errorf("rack-link zero-load = %.1f, want %.1f (+2x7 cycles of link latency)", zlRack, want)
	}
}

func TestDeterminism(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	injf := SyntheticInjector(traffic.Uniform(128), 4)
	run := func() Stats {
		n, err := Build(cl, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		inj, _ := injf(0.4)
		return n.Run(inj, 0.4)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
}

// Flit conservation: every measured packet completes when drained.
func TestConservation(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.3)
	st := n.Run(inj, 0.3)
	if !st.Drained {
		t.Fatal("run did not drain at load 0.3")
	}
	if st.Completed != n.measuredBorn {
		t.Errorf("completed %d != measured born %d", st.Completed, n.measuredBorn)
	}
	// Expected packet count: 128 terms x 2000 cycles x 0.3/4 pkts/cycle.
	expect := 128.0 * 2000 * 0.3 / 4
	if math.Abs(float64(st.Completed)-expect) > expect*0.05 {
		t.Errorf("completed %d, expect ~%.0f", st.Completed, expect)
	}
}

func TestPermutationTrafficRuns(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	tr, err := traffic.Transpose(128 /* 7 bits — odd */)
	if err != nil {
		// 128 is an odd power of two; use shuffle instead.
		tr, err = traffic.Shuffle(128)
		if err != nil {
			t.Fatal(err)
		}
	}
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(tr, 4)(0.4)
	st := n.Run(inj, 0.4)
	if st.Completed == 0 {
		t.Fatal("no packets completed under permutation traffic")
	}
}

func TestTraceInjectorPacing(t *testing.T) {
	trc, err := traffic.Nekbone(16)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := NewTraceInjector(trc, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	flits := 0
	cycles := 2000
	for now := int64(0); now < int64(cycles); now++ {
		if _, f, ok := ti.Generate(3, now, rng); ok {
			flits += f
		}
	}
	rate := float64(flits) / float64(cycles)
	if math.Abs(rate-0.5) > 0.05 {
		t.Errorf("trace injector offered %.3f flits/cycle, want ~0.5", rate)
	}
}

func TestTraceDrivenRun(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(128, chip)
	if err != nil {
		t.Fatal(err)
	}
	trc, err := traffic.LULESH(128)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewTraceInjector(trc, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	st := n.Run(inj, 0.2)
	if st.Completed == 0 {
		t.Fatal("no trace packets completed")
	}
	if !st.Drained {
		t.Error("trace run at low load did not drain")
	}
}

func TestConfigValidation(t *testing.T) {
	cl := testClos(t)
	bad := []Config{
		{NumVCs: 0, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10},
		{NumVCs: 1, BufPerPort: 0, PacketFlits: 1, MeasureCycles: 10},
		{NumVCs: 1, BufPerPort: 2, PacketFlits: 4, MeasureCycles: 10}, // buffer < packet
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 0, MeasureCycles: 10},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 0},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10, PipeDelay: -1},
		// Negative values Run would silently replace: a 10 x
		// MeasureCycles drain, 1-cycle route computation.
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10, DrainCycles: -5},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10, RCIngress: -3},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10, RCOther: -7},
		// Delays the simulator's int32 state would silently truncate.
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10, RCIngress: 1<<32 + 1},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10, RCOther: math.MaxInt32 + 1},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10, PipeDelay: 1 << 32},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: 10, TermDelay: 1 << 32},
		// Cycle budgets whose deadline, WarmupCycles + MeasureCycles +
		// the drain budget, overflows int64: Run would step no cycle and
		// report an empty run as drained.
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, WarmupCycles: 1, MeasureCycles: math.MaxInt},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, WarmupCycles: math.MaxInt, MeasureCycles: 1},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: math.MaxInt/10 + 1},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, WarmupCycles: 10, MeasureCycles: 10, DrainCycles: math.MaxInt - 19},
	}
	for i, cfg := range bad {
		if _, err := Build(cl, ConstantLatency(1), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// The longest cycle budgets that fit int64 build.
	for _, cfg := range []Config{
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, WarmupCycles: 10, MeasureCycles: 10, DrainCycles: math.MaxInt - 20},
		{NumVCs: 1, BufPerPort: 8, PacketFlits: 1, MeasureCycles: math.MaxInt / 11},
	} {
		if _, err := Build(cl, ConstantLatency(1), cfg); err != nil {
			t.Errorf("cycle budget %d + %d + %d refused: %v", cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles, err)
		}
	}
	// A link latency that does not fit int32, one that fits but whose
	// channel rings would need more slots than int32 indexes, and a
	// negative one, which would run as a 1-cycle channel.
	for _, lat := range []int{1 << 32, 1 << 30, -3} {
		if _, err := Build(cl, ConstantLatency(lat), testConfig()); err == nil {
			t.Errorf("link latency %d accepted", lat)
		}
	}
}

// A topology without external ports has no terminals to offer or accept
// traffic; Build refuses it instead of letting Run divide by zero
// terminals (Accepted = NaN, which JSON cannot encode).
func TestBuildRefusesNoTerminals(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	top := &topo.Topology{
		Name:  "portless",
		Kind:  "clos",
		Nodes: []topo.Node{{ID: 0, Chiplet: chip}, {ID: 1, Chiplet: chip}},
		Links: []topo.Link{{A: 0, B: 1, Lanes: 1}},
	}
	if _, err := Build(top, ConstantLatency(1), testConfig()); err == nil {
		t.Error("topology with no external ports accepted")
	}
}

func TestSyntheticInjectorLoadValidation(t *testing.T) {
	injf := SyntheticInjector(traffic.Uniform(8), 4)
	if _, err := injf(0); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := injf(1.5); err == nil {
		t.Error("load > 1 accepted")
	}
	for _, size := range []int{0, -1} {
		if _, err := SyntheticInjector(traffic.Uniform(8), size)(0.3); err == nil {
			t.Errorf("packet size %d accepted", size)
		}
	}
}

// Every entry point that takes an offered load refuses a non-finite one
// with an error, and none panics.
func TestNonFiniteLoadsRefused(t *testing.T) {
	cl := testClos(t)
	build := func() (*Network, error) { return Build(cl, ConstantLatency(1), shortTestConfig()) }
	synth := SyntheticInjector(traffic.Uniform(128), 4)
	trc, err := traffic.LULESH(128)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		calls := []struct {
			name string
			call func() error
		}{
			{"SyntheticInjector", func() error { _, err := synth(v); return err }},
			{"NewTraceInjector", func() error { _, err := NewTraceInjector(trc, v); return err }},
			{"Sweep", func() error {
				_, err := Sweep(build, synth, []float64{0.1, v}, SweepOptions{Workers: 1})
				return err
			}},
		}
		for _, c := range calls {
			t.Run(fmt.Sprintf("%s/%v", c.name, v), func(t *testing.T) {
				if err := c.call(); err == nil {
					t.Errorf("load %v accepted", v)
				}
			})
		}
	}
}

func TestNetworkShape(t *testing.T) {
	cl := testClos(t)
	n, err := Build(cl, ConstantLatency(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n.T != 128 {
		t.Errorf("terminals = %d, want 128", n.T)
	}
	if n.Routers() != 12 {
		t.Errorf("routers = %d, want 12", n.Routers())
	}
	// Every leaf must reach every other leaf through some spine: routing
	// tables are complete.
	for r := 0; r < n.R; r++ {
		for d := 0; d < n.R; d++ {
			if r != d && len(n.nextFlat[r*n.R+d]) == 0 {
				t.Fatalf("no route from router %d to %d", r, d)
			}
		}
	}
}
