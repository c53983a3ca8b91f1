package sim

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

func sweepTestConfig() Config {
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 600
	return cfg
}

// Parallel sweeps must be bit-identical to serial ones: every point's
// network is seeded by PointSeed(base, i) regardless of which worker
// runs it, and the aggregate is merged in point order after the barrier.
// Table-driven over an indirect (Clos) and a direct (mesh, DOR-routed)
// topology since they exercise different routing and channel shapes,
// plus shuffled, non-monotone loads with a tie: parallel sweeps hand
// points out in descending load, and that order must stay unobservable.
// GOMAXPROCS is raised for the test so the worker pool runs even on a
// one-core host, where the pool would otherwise collapse to its serial
// path.
func TestSweepParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topo.MeshTopo(3, 3, chip, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		top   *topo.Topology
		loads []float64
	}{
		// The mesh saturates early under uniform traffic (poor bisection),
		// so its loads stay below the knee to keep drains fast.
		{"clos128", testClos(t), []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55}},
		{"mesh3x3", mesh, []float64{0.02, 0.05, 0.08, 0.11}},
		{"clos128-shuffled", testClos(t), []float64{0.3, 0.05, 0.45, 0.15, 0.3, 0.6, 0.1, 0.25}},
	}
	for _, tc := range cases {
		loads := tc.loads
		t.Run(tc.name, func(t *testing.T) {
			cfg := sweepTestConfig()
			build := func() (*Network, error) { return Build(tc.top, ConstantLatency(1), cfg) }
			injf := SyntheticInjector(traffic.Uniform(tc.top.ExternalPorts()), cfg.PacketFlits)

			serial, err := Sweep(build, injf, loads, SweepOptions{Workers: 1, Probe: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 0} {
				par, err := Sweep(build, injf, loads, SweepOptions{Workers: workers, Probe: true})
				if err != nil {
					t.Fatal(err)
				}
				for i := range serial.Points {
					if par.Points[i].Stats != serial.Points[i].Stats {
						t.Errorf("workers=%d point %d: stats diverge\nserial: %+v\npar:    %+v",
							workers, i, serial.Points[i].Stats, par.Points[i].Stats)
					}
				}
				if Summarize(par.Stats()) != Summarize(serial.Stats()) {
					t.Errorf("workers=%d: summaries diverge", workers)
				}
				sj, err := json.Marshal(serial)
				if err != nil {
					t.Fatal(err)
				}
				pj, err := json.Marshal(par)
				if err != nil {
					t.Fatal(err)
				}
				if string(sj) != string(pj) {
					t.Errorf("workers=%d: full JSON (probes + aggregate) diverges", workers)
				}
			}

			// A serial sweep without probes must match the probed serial
			// sweep point for point.
			lv := serialStats(t, build, injf, loads)
			for i, st := range serial.Stats() {
				if lv[i] != st {
					t.Errorf("unprobed serial sweep point %d diverges from Sweep", i)
				}
			}
		})
	}
}

// Sweep's aggregate latency distribution must equal the merge of the
// per-point histograms: total sample count is the sum of per-point
// completions and the aggregate conserves flits.
func TestSweepAggregate(t *testing.T) {
	cfg := sweepTestConfig()
	cl := testClos(t)
	build := func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) }
	injf := SyntheticInjector(traffic.Uniform(cl.ExternalPorts()), cfg.PacketFlits)
	loads := []float64{0.1, 0.2, 0.3}
	res, err := Sweep(build, injf, loads, SweepOptions{Workers: 2, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate == nil || res.Aggregate.Latency == nil {
		t.Fatal("probed sweep returned no aggregate")
	}
	var completed int64
	for _, p := range res.Points {
		completed += int64(p.Stats.Completed)
	}
	if res.Aggregate.Latency.Count != completed {
		t.Errorf("aggregate latency count = %d, want sum of completions %d",
			res.Aggregate.Latency.Count, completed)
	}
	var injected, ejected int64
	for _, p := range res.Points {
		injected += p.Probe.Injected
		ejected += p.Probe.Ejected
	}
	if res.Aggregate.Injected != injected || res.Aggregate.Ejected != ejected {
		t.Errorf("aggregate flit totals %d/%d, want %d/%d",
			res.Aggregate.Injected, res.Aggregate.Ejected, injected, ejected)
	}

	// Unprobed sweeps still aggregate latency.
	res2, err := Sweep(build, injf, loads, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Aggregate == nil || res2.Aggregate.Latency == nil {
		t.Fatal("unprobed sweep lost the aggregate latency histogram")
	}
	if res2.Aggregate.Latency.Count != completed {
		t.Errorf("unprobed aggregate count = %d, want %d", res2.Aggregate.Latency.Count, completed)
	}
}

// A sweep with timelines enabled must stay deterministic across worker
// counts: the merged series (reduced in ascending point order after the
// barrier) and the per-point registrations are byte-identical JSON, and
// live registration names every point.
func TestSweepTimelineParallelMatchesSerial(t *testing.T) {
	cfg := sweepTestConfig()
	cl := testClos(t)
	build := func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) }
	injf := SyntheticInjector(traffic.Uniform(cl.ExternalPorts()), cfg.PacketFlits)
	loads := []float64{0.1, 0.25, 0.4, 0.55}

	run := func(workers int) (*SweepResult, *obs.Live) {
		live := &obs.Live{}
		res, err := Sweep(build, injf, loads, SweepOptions{
			Workers: workers, Probe: true, TimelineInterval: 100,
			Live: live, LiveName: "test/sweep",
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, live
	}

	serial, sLive := run(1)
	if serial.Timeline == nil || len(serial.Timeline.Samples) == 0 {
		t.Fatal("sweep with TimelineInterval returned no merged timeline")
	}
	if names := sLive.TimelineNames(); len(names) != len(loads) || names[0] != "test/sweep/load=0.1" {
		t.Fatalf("live registrations wrong: %v", names)
	}
	if s := sLive.Progress(); s.Total != int64(len(loads)) || s.Done != int64(len(loads)) {
		t.Errorf("progress %d/%d, want %d/%d", s.Done, s.Total, len(loads), len(loads))
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		par, pLive := run(workers)
		pj, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(pj) != string(sj) {
			t.Errorf("workers=%d: sweep JSON (points + timeline) diverges from serial", workers)
		}
		// The per-point live series must match the serial run's too.
		slj, _ := json.Marshal(sLive.Timelines())
		plj, _ := json.Marshal(pLive.Timelines())
		if string(slj) != string(plj) {
			t.Errorf("workers=%d: live per-point timelines diverge from serial", workers)
		}
	}
}

// PointSeed pins the derivation: base + index, so point 0 reproduces a
// standalone run at the base seed.
func TestPointSeed(t *testing.T) {
	if PointSeed(7, 0) != 7 || PointSeed(7, 3) != 10 || PointSeed(-2, 5) != 3 {
		t.Error("PointSeed must be base + index")
	}
}

// multicore raises GOMAXPROCS to at least 2 until the test ends, so the
// pool's worker goroutines run even on a one-core host, where it would
// otherwise collapse to its serial path.
func multicore(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sweepsFixture returns a mix of series for the Sweeps tests: two
// builders with different configs sharing their loads (one point
// saturates, so its backpressure report and post-mortem are compared
// too), a trace-driven series and a one-point series.
func sweepsFixture(t *testing.T) []Series {
	t.Helper()
	top := testClos(t)
	cfgA := sweepTestConfig()
	// Short windows: make race runs this ten times.
	cfgA.WarmupCycles, cfgA.MeasureCycles, cfgA.DrainCycles = 40, 120, 120
	cfgB := cfgA
	cfgB.RCOther, cfgB.BufPerPort, cfgB.Seed = 2, 8, 3
	buildA := func() (*Network, error) { return Build(top, ConstantLatency(1), cfgA) }
	buildB := func() (*Network, error) { return Build(top, ConstantLatency(4), cfgB) }
	uniform := SyntheticInjector(traffic.Uniform(top.ExternalPorts()), cfgA.PacketFlits)
	traces, err := traffic.NERSCTraces(top.ExternalPorts())
	if err != nil {
		t.Fatal(err)
	}
	return []Series{
		{Name: "a", Build: buildA, Inject: uniform, Loads: []float64{0.1, 0.35, 0.9}},
		{Name: "b", Build: buildB, Inject: uniform, Loads: []float64{0.1, 0.35, 0.9}},
		{Name: "trace", Build: buildA, Inject: TraceInjectorFactory(traces[0]), Loads: []float64{0.35, 0.2}},
		{Name: "one", Build: buildB, Inject: uniform, Loads: []float64{0.25}},
	}
}

// Running several series on one pool must not change any of them: each
// series' result, with every observer attached, is byte-identical JSON
// to its own one-series Sweep on one worker, for any worker count. A
// worker keeps one warm network, so one worker builds once per series,
// and a one-series call builds at most one network per worker.
func TestSweepsMatchSweep(t *testing.T) {
	multicore(t)
	series := sweepsFixture(t)
	opt := SweepOptions{Probe: true, TimelineInterval: 100, Attribution: true}
	marshal := func(r *SweepResult) string {
		t.Helper()
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := make([]string, len(series))
	for k, sr := range series {
		o := opt
		o.Workers = 1
		r, err := Sweep(sr.Build, sr.Inject, sr.Loads, o)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = marshal(r)
	}
	if !strings.Contains(want[0], `"post_mortem"`) {
		t.Fatal("no point of series a saturates, so backpressure and post-mortems go uncompared")
	}
	// counted wraps every series' builder with one shared build counter.
	counted := func(src []Series) ([]Series, *atomic.Int32) {
		var builds atomic.Int32
		out := make([]Series, len(src))
		for k, sr := range src {
			build := sr.Build
			sr.Build = func() (*Network, error) { builds.Add(1); return build() }
			out[k] = sr
		}
		return out, &builds
	}
	for _, workers := range []int{1, 2, 4} {
		o := opt
		o.Workers = workers
		cs, builds := counted(series)
		res, err := Sweeps(cs, o)
		if err != nil {
			t.Fatal(err)
		}
		for k := range series {
			if got := marshal(res[k]); got != want[k] {
				t.Errorf("workers=%d: series %q diverges from its own one-worker Sweep", workers, series[k].Name)
			}
		}
		if workers == 1 && builds.Load() != int32(len(series)) {
			t.Errorf("one worker built %d networks for %d series", builds.Load(), len(series))
		}
		one, builds := counted(series[:1])
		if _, err := Sweeps(one, SweepOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if b := builds.Load(); b > int32(workers) {
			t.Errorf("workers=%d: a one-series call built %d networks", workers, b)
		}
	}
}

// Sweeps announces every point of every series to the live feed before
// the first one starts, so the live total never climbs during a run and
// the ETA covers the whole call: every injector build, one per point,
// reads the final total.
func TestSweepsAnnounceTotalUpFront(t *testing.T) {
	multicore(t)
	series := sweepsFixture(t)
	points := 0
	live := &obs.Live{}
	var mu sync.Mutex
	var totals []int64
	for k := range series {
		points += len(series[k].Loads)
		inject := series[k].Inject
		series[k].Inject = func(load float64) (Injector, error) {
			mu.Lock()
			totals = append(totals, live.Progress().Total)
			mu.Unlock()
			return inject(load)
		}
	}
	if _, err := Sweeps(series, SweepOptions{Workers: 2, Live: live, LiveName: "test"}); err != nil {
		t.Fatal(err)
	}
	if len(totals) != points {
		t.Fatalf("%d injector builds for %d points", len(totals), points)
	}
	for i, total := range totals {
		if total != int64(points) {
			t.Errorf("injector build %d read total %d, want %d", i, total, points)
		}
	}
	if s := live.Progress(); s.Done != int64(points) {
		t.Errorf("points done %d, want %d", s.Done, points)
	}
}

// Experiments that share one live feed run fabrics of different sizes
// (wsswitch -http runs fig21 and then fig22 on larger networks): a
// point sized unlike the live attribution aggregate starts a new one
// instead of failing its sweep, so the live view never sums two
// fabrics' counters.
func TestSweepsShareLiveAcrossSizes(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortTestConfig()
	live := &obs.Live{}
	for _, ports := range []int{32, 64} {
		cl, err := topo.HomogeneousClos(ports, chip)
		if err != nil {
			t.Fatal(err)
		}
		build := func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) }
		res, err := Sweep(build, SyntheticInjector(traffic.Uniform(ports), cfg.PacketFlits), []float64{0.3},
			SweepOptions{Workers: 1, Attribution: true, Live: live, LiveName: "clos"})
		if err != nil {
			t.Fatalf("%d-port sweep: %v", ports, err)
		}
		if s := live.Attribution(4); s == nil || s.Packets != res.Attribution.Packets {
			t.Errorf("%d-port sweep: live aggregate %+v, want this sweep's %d packets", ports, s, res.Attribution.Packets)
		}
	}
}
