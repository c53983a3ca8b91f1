package sim

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// Probe counters must conserve flits exactly: every injected flit is
// either ejected or still buffered/in flight when the run stops, and
// every flit a router forwards lands on an inter-router channel or a
// terminal sink.
func TestProbeFlitConservation(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := n.AttachProbe()
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.4)
	st := n.Run(inj, 0.4)
	if !st.Drained || p.Injected == 0 {
		t.Fatalf("setup: drained=%v injected=%d", st.Drained, p.Injected)
	}

	// Injected == ejected + residual in buffers and on channel rings.
	if got := p.Ejected + n.BufferedFlits(); p.Injected != got {
		t.Errorf("conservation broken: injected %d != ejected %d + buffered %d",
			p.Injected, p.Ejected, n.BufferedFlits())
	}
	// Routed == ejected + flits placed on inter-router channels: every
	// crossbar traversal ends on a channel or at a terminal sink.
	var interFlits, routed int64
	for ci := range p.Channels {
		if p.Meta[ci].Terminal < 0 {
			interFlits += p.Channels[ci].Flits
		}
	}
	for r := range p.Routers {
		routed += p.Routers[r].Flits
	}
	if routed != p.Ejected+interFlits {
		t.Errorf("routed %d != ejected %d + inter-router channel flits %d",
			routed, p.Ejected, interFlits)
	}
	// Terminal injection channels carry exactly the injected flits.
	var termFlits int64
	for ci := range p.Channels {
		if p.Meta[ci].Terminal >= 0 {
			termFlits += p.Channels[ci].Flits
		}
	}
	if termFlits != p.Injected {
		t.Errorf("terminal channels carried %d flits, injected %d", termFlits, p.Injected)
	}
}

// A Clos at moderate uniform load must show activity in every router and
// sane occupancy statistics.
func TestProbeCountersPopulated(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := n.AttachProbe()
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.6)
	st := n.Run(inj, 0.6)
	if p.Cycles != st.Cycles {
		t.Errorf("probe saw %d cycles, run took %d", p.Cycles, st.Cycles)
	}
	for r := range p.Routers {
		rc := &p.Routers[r]
		if rc.Flits == 0 {
			t.Errorf("router %d forwarded no flits under uniform traffic", r)
		}
		if rc.OccPeak == 0 || rc.OccSum == 0 {
			t.Errorf("router %d recorded no occupancy", r)
		}
		if mean := float64(rc.OccSum) / float64(p.Cycles); mean > float64(rc.OccPeak) {
			t.Errorf("router %d mean occupancy %.1f above peak %d", r, mean, rc.OccPeak)
		}
	}
	// At 0.6 load on a 2-ary contention-prone Clos some allocation
	// conflicts must occur somewhere.
	var stalls int64
	for r := range p.Routers {
		stalls += p.Routers[r].SAStalls + p.Routers[r].VAStalls + p.Routers[r].CreditStalls
	}
	if stalls == 0 {
		t.Error("no stalls recorded at 0.6 load — hooks likely dead")
	}
}

// Stats percentiles come from the histogram; they must agree with an
// exact nearest-rank recomputation to within one histogram bucket
// (≤3.1% relative, exact below 64 cycles).
func TestHistogramMatchesExactPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var h obs.Histogram
	vals := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := float64(20 + rng.Intn(2000))
		vals = append(vals, v)
		h.Observe(v)
	}
	// percentile() expects sorted input.
	sortFloats(vals)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := percentile(vals, p)
		got := h.Percentile(p)
		if got > exact || got < exact/(1+1.0/32)-1 {
			t.Errorf("P%v: histogram %v vs exact %v — more than one bucket apart", p*100, got, exact)
		}
	}
}

// percentile is the exact oracle: the p-quantile of sorted values by
// nearest rank (index ceil(p*n)-1), the convention the histogram in
// internal/obs follows.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TestRunSteadyStateAllocs gates the whole-run zero-alloc contract,
// bare and with the timeline and attribution observers attached. A
// whole-run benchmark cannot see it — a run legitimately allocates
// while its source queues and packet table grow to steady capacity —
// so this measures differentially: a run with 2400 extra measurement
// cycles must not allocate meaningfully more than a short one. The
// tolerated growth is the timeline's amortized sample appends (the long
// run closes ~75 more windows) and runtime jitter.
func TestRunSteadyStateAllocs(t *testing.T) {
	top := testClos(t)
	inj := RateInjector{Load: 0.4, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}
	for _, tc := range []struct {
		name   string
		attach func(n *Network)
	}{
		{"bare", func(*Network) {}},
		{"timeline+attribution", func(n *Network) {
			n.AttachTimeline(obs.NewTimeline(32, 128))
			n.AttachAttribution()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runAllocs := func(measure int) uint64 {
				cfg := shortTestConfig()
				cfg.MeasureCycles = measure
				n, err := Build(top, ConstantLatency(1), cfg)
				if err != nil {
					t.Fatal(err)
				}
				tc.attach(n)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				n.Run(inj, 0.4)
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			base, long := runAllocs(600), runAllocs(3000)
			extra := int64(long) - int64(base)
			t.Logf("%d extra allocations (base run %d, long run %d)", extra, base, long)
			if extra > 128 {
				t.Errorf("2400 extra steady-state cycles cost %d allocations (base run %d, long run %d); the cycle loop must not allocate",
					extra, base, long)
			}
		})
	}
}

// Snapshot must produce valid JSON with per-router stall counters and
// histogram percentiles — the payload wsswitch -json embeds.
func TestSnapshotJSON(t *testing.T) {
	cl := testClos(t)
	n, err := Build(cl, ConstantLatency(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.AttachProbe()
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.5)
	st := n.Run(inj, 0.5)
	snap := n.Snapshot()
	if snap.Latency == nil || snap.Latency.Count != int64(st.Completed) {
		t.Fatalf("latency snapshot incomplete: %+v", snap.Latency)
	}
	if snap.Latency.P50 != st.P50Latency || snap.Latency.P999 != st.P999Latency {
		t.Errorf("snapshot percentiles disagree with Stats: %v/%v vs %v/%v",
			snap.Latency.P50, snap.Latency.P999, st.P50Latency, st.P999Latency)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sa_stalls", "va_stalls", "credit_stalls", "p999", "hot_channels"} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
}

// A run with a logger attached must emit the documented events and the
// same results as a silent run.
func TestRunLogging(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	var buf bytes.Buffer
	cfg.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.3)
	st := n.Run(inj, 0.3)
	if !st.Drained {
		t.Fatal("run did not drain")
	}
	out := buf.String()
	for _, want := range []string{"sim.run", "sim.progress", "sim.drained"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("log output missing %q event:\n%s", want, out)
		}
	}
}

// Sweep summaries must skip non-drained points' latency and expose the
// saturation knee.
func TestSweepSummary(t *testing.T) {
	stats := []Stats{
		{Offered: 0.2, Accepted: 0.2, AvgLatency: 50, P99Latency: 80, Drained: true},
		{Offered: 0.5, Accepted: 0.5, AvgLatency: 70, P99Latency: 120, Drained: true},
		{Offered: 0.8, Accepted: 0.61, AvgLatency: 9000, P99Latency: 20000, Drained: false},
		{Offered: 0.9, Accepted: 0.6, AvgLatency: 9500, P99Latency: 21000, Drained: false},
	}
	sum := Summarize(stats)
	if sum.SaturationThroughput != 0.61 {
		t.Errorf("saturation throughput = %v, want 0.61", sum.SaturationThroughput)
	}
	if !sum.Saturated || sum.FirstSaturatedLoad != 0.8 {
		t.Errorf("knee = %v/%v, want 0.8/true", sum.FirstSaturatedLoad, sum.Saturated)
	}
	if sum.MaxDrainedLatency != 70 || sum.MaxDrainedP99 != 120 {
		t.Errorf("drained latency summary %v/%v contaminated by saturated points",
			sum.MaxDrainedLatency, sum.MaxDrainedP99)
	}
	if sum.DrainedPoints != 2 {
		t.Errorf("drained points = %d, want 2", sum.DrainedPoints)
	}
	if load, ok := FirstSaturatedLoad(stats[:2]); ok || load != 0 {
		t.Errorf("FirstSaturatedLoad on clean sweep = %v/%v, want 0/false", load, ok)
	}
}

// A probed serial load sweep must return one snapshot per load point
// with live counters.
func TestLatencyVsLoadProbed(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 200, 400
	build := func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) }
	injf := SyntheticInjector(traffic.Uniform(128), 4)
	res, err := Sweep(build, injf, []float64{0.2, 0.4}, SweepOptions{Workers: 1, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for i, pt := range pts {
		if pt.Probe == nil || len(pt.Probe.Routers) == 0 {
			t.Fatalf("point %d missing probe snapshot", i)
		}
		if pt.Probe.Injected == 0 || pt.Probe.Latency == nil {
			t.Errorf("point %d has empty counters: %+v", i, pt.Probe)
		}
		if pt.Stats.Offered != []float64{0.2, 0.4}[i] {
			t.Errorf("point %d offered = %v", i, pt.Stats.Offered)
		}
	}
}

// BenchmarkSimSteadyState measures the uninstrumented steady-state loop
// — the acceptance guard for 0 allocs/op and the ≤2% overhead budget.
func BenchmarkSimSteadyState(b *testing.B) {
	benchSteadyState(b, false)
}

// BenchmarkSimSteadyStateProbed is the same loop with a probe attached,
// quantifying the instrumentation overhead.
func BenchmarkSimSteadyStateProbed(b *testing.B) {
	benchSteadyState(b, true)
}

func benchSteadyState(b *testing.B, probed bool) {
	b.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(128, chip)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		NumVCs: 4, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 8,
		WarmupCycles: 10, MeasureCycles: 10, Seed: 7,
	}
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if probed {
		n.AttachProbe()
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.5)
	for ; n.now < 4000; n.now++ {
		n.step(inj)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.step(inj)
		n.now++
	}
}
