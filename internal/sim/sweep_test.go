package sim

import (
	"encoding/json"
	"runtime"
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

			// LatencyVsLoad is Sweep{Workers:1} without probes; its stats
			// must match the probed serial sweep point for point.
			lv, err := LatencyVsLoad(build, injf, loads)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range serial.Stats() {
				if lv[i] != st {
					t.Errorf("LatencyVsLoad point %d diverges from Sweep", i)
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
