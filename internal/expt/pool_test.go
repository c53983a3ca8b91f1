package expt

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
	"waferswitch/internal/traffic"
)

// stateless adapts fn to sim.Pool.Each's per-worker constructor, as
// Options.each does for the experiment grids.
func stateless(fn func(i int) error) func() func(int) error {
	return func() func(int) error { return fn }
}

// multicore raises GOMAXPROCS to at least 2 until the test ends, so the
// pool's worker goroutines run even on a one-core host, where it would
// otherwise collapse to its serial path.
func multicore(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestPoolEachRunsEveryIndex(t *testing.T) {
	multicore(t)
	const n = 37
	reversed := make([]int, n)
	for k := range reversed {
		reversed[k] = n - 1 - k
	}
	cases := []struct {
		workers int
		order   []int
	}{{1, nil}, {4, nil}, {0, nil}, {100, nil}, {4, reversed}}
	for _, c := range cases {
		hits := make([]int32, n)
		var live obs.Live
		err := sim.Pool{Workers: c.workers, Live: &live}.Each("test", n, c.order, stateless(func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}))
		if err != nil {
			t.Fatalf("workers=%d: %v", c.workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d order=%v: index %d ran %d times", c.workers, c.order != nil, i, h)
			}
		}
		if s := live.Progress(); s.Total != n || s.Done != n || len(s.Workers) != 0 {
			t.Errorf("workers=%d: progress total %d, done %d, busy workers %v; want %d, %d, none",
				c.workers, s.Total, s.Done, s.Workers, n, n)
		}
	}
	if err := (sim.Pool{}).Each("test", 0, nil, stateless(func(int) error { t.Error("fn called for n=0"); return nil })); err != nil {
		t.Error(err)
	}
}

func TestPoolEachFirstErrorByIndex(t *testing.T) {
	multicore(t)
	e3, e9 := errors.New("three"), errors.New("nine")
	err := sim.Pool{Workers: 4}.Each("test", 12, nil, stateless(func(i int) error {
		switch i {
		case 3:
			return e3
		case 9:
			return e9
		}
		return nil
	}))
	if err != e3 {
		t.Errorf("got %v, want the lowest-index error %v", err, e3)
	}
}

func TestPoolEachRecoversPanics(t *testing.T) {
	multicore(t)
	for _, workers := range []int{1, 3} {
		err := sim.Pool{Workers: workers}.Each("boom", 5, nil, stateless(func(i int) error {
			if i == 2 {
				panic("kaput")
			}
			return nil
		}))
		if err == nil || !strings.Contains(err.Error(), "boom point 2") || !strings.Contains(err.Error(), "kaput") {
			t.Errorf("workers=%d: panic not converted to a useful error: %v", workers, err)
		}
	}
}

// fig21 runs every cell's load sweep as one series of a single Sweeps
// call, with or without -adaptive. Under a live feed each load point is
// counted once, by that call's pool, so the point ledger matches the
// timeline series the cells register: 2 buffers x 2 latencies x 2 loads
// at -quick.
func TestFig21LiveCountsLoadPoints(t *testing.T) {
	multicore(t)
	for _, adaptive := range []bool{false, true} {
		live := &obs.Live{}
		o := Options{Quick: true, Workers: 2, Live: live, TimelineInterval: 100, Attribution: true, Adaptive: adaptive}
		if _, err := Run("fig21", o); err != nil {
			t.Fatal(err)
		}
		s, names := live.Progress(), live.TimelineNames()
		if s.Total != 8 || s.Done != 8 || len(names) != 8 || len(s.Workers) != 0 {
			t.Errorf("adaptive=%v: points total %d, done %d, %d timelines, busy workers %v; want 8, 8, 8, none",
				adaptive, s.Total, s.Done, len(names), s.Workers)
		}
	}
}

// smallSweep runs a tiny probed load sweep through the parallel sweep
// engine. Shared by the race test (exercising worker goroutines under
// -race) and the determinism test below. None of this skips in -short:
// it is the `make check` race coverage for this package.
func smallSweep(t *testing.T, workers int) *sim.SweepResult {
	t.Helper()
	cl, err := simClos(128)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		NumVCs: 4, BufPerPort: 16, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 8,
		WarmupCycles: 200, MeasureCycles: 400, Seed: 11,
	}
	o := Options{Probe: true, Workers: workers}
	res, err := runSweeps(o, "test/small", []sim.Series{{
		Name:   "test/small",
		Build:  func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(1), cfg) },
		Inject: sim.SyntheticInjector(traffic.Uniform(128), 4),
		Loads:  []float64{0.1, 0.25, 0.4, 0.55},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestParallelSweepRace(t *testing.T) {
	res := smallSweep(t, 4)
	if len(res.Points) != 4 || res.Aggregate == nil {
		t.Fatalf("sweep returned %d points, aggregate %v", len(res.Points), res.Aggregate)
	}
}

func TestParallelSweepDeterministic(t *testing.T) {
	serial := smallSweep(t, 1)
	par := smallSweep(t, 4)
	if !reflect.DeepEqual(serial, par) {
		t.Error("parallel sweep result diverges from serial")
	}
}

// A parallelized experiment must produce the identical table serially
// and in parallel. Outside -short, fig22 adds the observer attachments —
// probe snapshots, timelines and attribution, everything wsswitch -json
// serializes — to the comparison.
//
// Both passes share the process's memo of Algorithm 1 placements
// (mapping.Optimized), so the parallel pass runs first: at seed 5, which
// no other test here uses, it computes the design-space placements on
// pool goroutines under -race, and the serial pass reads them back.
func TestParallelExperimentDeterministic(t *testing.T) {
	multicore(t)
	cases := []struct {
		id string
		o  Options
	}{
		{"fig7", Options{Quick: true, Seed: 5}},
		{"fig19", Options{Quick: true, Seed: 5}},
		{"fig25", Options{Quick: true, Seed: 5}},
		{"fig21", Options{Quick: true, Seed: 5}},
		{"fig22", Options{Quick: true, Seed: 1, Probe: true, TimelineInterval: 100, Attribution: true}},
	}
	for _, c := range cases {
		if c.id == "fig22" && testing.Short() {
			continue // two observed fig22 runs
		}
		c.o.Workers = 4
		par, err := Run(c.id, c.o)
		if err != nil {
			t.Fatal(err)
		}
		c.o.Workers = 1
		serial, err := Run(c.id, c.o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%s: parallel table diverges from serial\nserial:\n%s\npar:\n%s",
				c.id, serial.Render(), par.Render())
		}
	}
}
