package expt

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"waferswitch/internal/sim"
	"waferswitch/internal/traffic"
)

func TestPoolEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 0, 100} {
		n := 37
		hits := make([]int32, n)
		err := Pool{Workers: workers}.Each("test", n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	if err := (Pool{}).Each("test", 0, func(int) error { t.Error("fn called for n=0"); return nil }); err != nil {
		t.Error(err)
	}
}

func TestPoolEachFirstErrorByIndex(t *testing.T) {
	e3, e9 := errors.New("three"), errors.New("nine")
	err := Pool{Workers: 4}.Each("test", 12, func(i int) error {
		switch i {
		case 3:
			return e3
		case 9:
			return e9
		}
		return nil
	})
	if err != e3 {
		t.Errorf("got %v, want the lowest-index error %v", err, e3)
	}
}

func TestPoolEachRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 3} {
		err := Pool{Workers: workers}.Each("boom", 5, func(i int) error {
			if i == 2 {
				panic("kaput")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom point 2") || !strings.Contains(err.Error(), "kaput") {
			t.Errorf("workers=%d: panic not converted to a useful error: %v", workers, err)
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
	res, err := runSweep(o, "test/small",
		func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(1), cfg) },
		sim.SyntheticInjector(traffic.Uniform(128), 4),
		[]float64{0.1, 0.25, 0.4, 0.55})
	if err != nil {
		t.Fatal(err)
	}
	return res
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
