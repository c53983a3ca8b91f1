package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// abortFamilies returns one small topology per routing family the
// simulator supports (the refsim spec families), each with loads
// straddling its saturation knee so a sweep mixes one cleanly-draining
// and one hopelessly-saturated point. The DOR-routed mesh saturates
// below load 0.05 under uniform traffic and wedges so thoroughly it
// exhausts even the default 10x drain budget; the richer topologies
// saturate in throughput but still trickle packets out, so they get a
// starved configuration (two VCs, shallow buffers) and an explicit
// one-measurement-window drain budget their backlog provably overruns.
func abortFamilies(t *testing.T) []struct {
	name  string
	top   *topo.Topology
	cfg   Config
	loads []float64
} {
	t.Helper()
	chip8, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	chip16, err := ssc.MustTH5(200).Deradix(16)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(128, chip8)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topo.MeshTopo(3, 3, chip8, 1)
	if err != nil {
		t.Fatal(err)
	}
	fbfly, err := topo.FlattenedButterfly(2, 3, chip16)
	if err != nil {
		t.Fatal(err)
	}
	dfly, err := topo.Dragonfly(3, 2, 1, 1, chip16)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		NumVCs: 4, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 8,
		WarmupCycles: 200, MeasureCycles: 400, Seed: 7,
	}
	starved := base
	starved.NumVCs, starved.BufPerPort = 2, 8
	starved.DrainCycles = 400
	// The Clos additionally needs a slow route computation to pin its
	// saturation plateau near 0.35 (the fig22 effect).
	closCfg := starved
	closCfg.RCIngress, closCfg.RCOther = 4, 4
	return []struct {
		name  string
		top   *topo.Topology
		cfg   Config
		loads []float64
	}{
		{"clos", cl, closCfg, []float64{0.2, 0.95}},
		{"mesh", mesh, base, []float64{0.02, 0.3}},
		{"fbfly", fbfly, starved, []float64{0.2, 0.95}},
		{"dfly", dfly, starved, []float64{0.2, 0.95}},
	}
}

// TestAbortMatchesFullRun is the early-abort semantics contract, per
// routing family: with the detector armed, saturated points abort their
// drain (Aborted=true, Drained=false, fewer cycles) while Offered,
// Accepted and the whole Summarize reduction stay bit-identical to the
// full run — the measurement window always completes, so only the
// wasted drain cycles disappear.
func TestAbortMatchesFullRun(t *testing.T) {
	for _, fam := range abortFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			build := func() (*Network, error) { return Build(fam.top, ConstantLatency(1), fam.cfg) }
			injf := SyntheticInjector(traffic.Uniform(fam.top.ExternalPorts()), fam.cfg.PacketFlits)

			full, err := Sweep(build, injf, fam.loads, SweepOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Sweep(build, injf, fam.loads, SweepOptions{Workers: 1, Abort: true})
			if err != nil {
				t.Fatal(err)
			}

			if Summarize(fast.Stats()) != Summarize(full.Stats()) {
				t.Errorf("Summarize diverged:\nfull %+v\nfast %+v",
					Summarize(full.Stats()), Summarize(fast.Stats()))
			}
			aborted := 0
			for i := range full.Points {
				fs, as := full.Points[i].Stats, fast.Points[i].Stats
				if as.Offered != fs.Offered || as.Accepted != fs.Accepted {
					t.Errorf("point %d: offered/accepted diverged: full %v/%v fast %v/%v",
						i, fs.Offered, fs.Accepted, as.Offered, as.Accepted)
				}
				if as.Drained != fs.Drained {
					t.Errorf("point %d: drain classification flipped: full %v fast %v (aborted=%v)",
						i, fs.Drained, as.Drained, as.Aborted)
				}
				if as.Aborted {
					aborted++
					if as.Drained {
						t.Errorf("point %d: aborted run reported Drained=true", i)
					}
					if as.Cycles >= fs.Cycles {
						t.Errorf("point %d: aborted run used %d cycles, full run %d — abort saved nothing",
							i, as.Cycles, fs.Cycles)
					}
				} else if as != fs {
					t.Errorf("point %d: non-aborted stats diverged:\nfull %+v\nfast %+v", i, fs, as)
				}
			}
			if aborted == 0 {
				t.Error("no point aborted; the sweep never exercised the detector")
			}
			if fs, ok := FirstSaturatedLoad(fast.Stats()); !ok || fs != fam.loads[len(fam.loads)-1] {
				t.Errorf("expected top load %v to saturate, FirstSaturatedLoad=%v ok=%v",
					fam.loads[len(fam.loads)-1], fs, ok)
			}
		})
	}
}

// TestAbortExcludedFromLatencySummary pins that aborted points behave
// exactly like budget-exhausted ones in the summary reduction: they do
// not contribute to MaxDrainedLatency/MaxDrainedP99 and do not count as
// drained points.
func TestAbortExcludedFromLatencySummary(t *testing.T) {
	fam := abortFamilies(t)[1] // mesh: one drained, one saturated point
	build := func() (*Network, error) { return Build(fam.top, ConstantLatency(1), fam.cfg) }
	injf := SyntheticInjector(traffic.Uniform(fam.top.ExternalPorts()), fam.cfg.PacketFlits)
	res, err := Sweep(build, injf, fam.loads, SweepOptions{Workers: 1, Abort: true})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats()
	sum := Summarize(stats)
	if sum.DrainedPoints != 1 {
		t.Fatalf("DrainedPoints = %d, want 1 (loads %v)", sum.DrainedPoints, fam.loads)
	}
	drained := stats[0]
	if !drained.Drained || stats[1].Drained {
		t.Fatalf("expected exactly the low point to drain: %+v", stats)
	}
	if sum.MaxDrainedLatency != drained.AvgLatency || sum.MaxDrainedP99 != drained.P99Latency {
		t.Errorf("summary latency %v/%v leaked the aborted point (drained point has %v/%v)",
			sum.MaxDrainedLatency, sum.MaxDrainedP99, drained.AvgLatency, drained.P99Latency)
	}
}

// TestAbortDeterministicAcrossWorkers pins the sweep engine's
// serial==parallel guarantee with the detector armed: the whole
// JSON-rendered result must be byte-identical for any worker count,
// because the detector's cadence is a pure function of the per-point
// seed, never of scheduling.
func TestAbortDeterministicAcrossWorkers(t *testing.T) {
	fam := abortFamilies(t)[0]
	build := func() (*Network, error) { return Build(fam.top, ConstantLatency(1), fam.cfg) }
	injf := SyntheticInjector(traffic.Uniform(fam.top.ExternalPorts()), fam.cfg.PacketFlits)
	serial, err := Sweep(build, injf, fam.loads, SweepOptions{Workers: 1, Abort: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		par, err := Sweep(build, injf, fam.loads, SweepOptions{Workers: workers, Abort: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: JSON diverged from serial with abort armed", workers)
		}
	}
}

// TestDefaultRunJSONUnchanged pins the output-compatibility contract:
// a default run (no detector) must serialize with
// no trace of the new fields, so pre-existing pinned JSON stays
// byte-identical.
func TestDefaultRunJSONUnchanged(t *testing.T) {
	fam := abortFamilies(t)[1]
	build := func() (*Network, error) { return Build(fam.top, ConstantLatency(1), fam.cfg) }
	injf := SyntheticInjector(traffic.Uniform(fam.top.ExternalPorts()), fam.cfg.PacketFlits)
	res, err := Sweep(build, injf, fam.loads, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"aborted", "converged", "truncated"} {
		if strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("default run JSON contains %q — new fields must be omitempty", key)
		}
	}
}

// TestAbortTimelineTruncated pins the observability semantics of an
// aborted point: its timeline snapshot flags Truncated, and the flag
// survives the sweep's merge into the aggregate series.
func TestAbortTimelineTruncated(t *testing.T) {
	fam := abortFamilies(t)[1]
	build := func() (*Network, error) { return Build(fam.top, ConstantLatency(1), fam.cfg) }
	injf := SyntheticInjector(traffic.Uniform(fam.top.ExternalPorts()), fam.cfg.PacketFlits)
	res, err := Sweep(build, injf, fam.loads, SweepOptions{
		Workers: 1, Abort: true, TimelineInterval: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	anyAborted := false
	for _, p := range res.Points {
		anyAborted = anyAborted || p.Stats.Aborted
	}
	if !anyAborted {
		t.Fatal("no point aborted; cannot exercise timeline truncation")
	}
	if res.Timeline == nil || !res.Timeline.Truncated {
		t.Error("merged timeline of a sweep with aborted points must report Truncated")
	}
	full, err := Sweep(build, injf, fam.loads, SweepOptions{Workers: 1, TimelineInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if full.Timeline == nil || full.Timeline.Truncated {
		t.Error("full sweep timeline must not report Truncated")
	}
}
