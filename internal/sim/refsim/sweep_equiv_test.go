package refsim

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"waferswitch/internal/sim"
)

// shardCounts is the worker dimension of TestShardEquivalence: the
// smallest non-trivial split, two primes that never divide the grid
// evenly, a power of two, and whatever this machine would use by
// default (SweepOptions.Workers 0 means GOMAXPROCS). Counts above the
// grid's point count clamp, so the same list also covers the
// one-point-per-worker split.
func shardCounts() []int {
	counts := []int{2, 3, 4, 7}
	gmp := runtime.GOMAXPROCS(0)
	for _, c := range counts {
		if c == gmp {
			return counts
		}
	}
	return append(counts, gmp)
}

// TestShardEquivalence is the equivalence matrix of the simulator's
// one parallel axis, a load grid dealt across sweep workers. Every
// topology family is swept at loads below the knee, at the knee and
// past saturation, each load twice, so the six-point grid splits
// unevenly across 2, 3 and 4 workers and a worker's network is Reset
// between its points; every point carries a timeline sampler and an
// attribution collector. Each point's Stats must equal the serial Run
// of the same spec at the point's seed, which Spec.Diff checks, with
// the same observers attached, against the dense reference (histogram,
// deliveries, invariant checker). Each point's JSON and the merged
// timeline, attribution and aggregate latency snapshots must match a
// one-worker sweep byte for byte. The shards= key in the subtest names
// is the worker count; the names are kept from when this matrix drove
// the single-sim sharded engine.
func TestShardEquivalence(t *testing.T) {
	base := Spec{
		Size: 1, Pattern: "uniform",
		LinkLat: 2, VCs: 2, Buf: 8, Pkt: 2,
		RCI: 1, RCO: 1, Pipe: 1, Term: 1,
		Warmup: 40, Measure: 120, Seed: 42,
		Timeline: true, Attribution: true,
	}
	loads := []float64{0.15, 0.45, 0.9}
	grid := append(append([]float64(nil), loads...), loads...)
	for _, fam := range []string{"clos", "mesh", "fbfly", "dfly"} {
		s := base
		s.Family = fam
		top, err := s.Build()
		if err != nil {
			t.Fatalf("build %s: %v", s, err)
		}
		build := func() (*sim.Network, error) {
			return sim.Build(top, sim.ConstantLatency(s.LinkLat), s.Config())
		}
		injf := func(load float64) (sim.Injector, error) {
			p := s
			p.Load = load
			return p.Injector(top.ExternalPorts())
		}
		sweep := func(workers int) (*sim.SweepResult, string) {
			res, err := sim.Sweep(build, injf, grid, sim.SweepOptions{
				Workers:          workers,
				TimelineInterval: 2,
				Attribution:      true,
			})
			if err != nil {
				t.Fatalf("sweep %s at %d workers: %v", fam, workers, err)
			}
			// 2-cycle windows overflow the default sample store, so the
			// merged series covers compaction and the merging of
			// mismatched intervals.
			if res.Timeline.Interval <= 2 {
				t.Fatalf("sweep %s at %d workers: merged timeline interval %d never compacted", fam, workers, res.Timeline.Interval)
			}
			merged, err := json.Marshal([]any{res.Aggregate, res.Timeline, res.Attribution})
			if err != nil {
				t.Fatal(err)
			}
			return res, string(merged)
		}

		// The per-point oracle verdicts and the one-worker sweep do not
		// depend on the worker count: compute them once per family.
		reps := make([]*DiffReport, len(grid))
		for i, load := range grid {
			p := s
			p.Load = load
			p.Seed = sim.PointSeed(s.Seed, i)
			if reps[i], err = p.Diff(); err != nil {
				t.Fatalf("diff %s: %v", p, err)
			}
		}
		serial, serialMerged := sweep(1)
		par := make(map[int]*sim.SweepResult)
		parMerged := make(map[int]string)
		for _, sc := range shardCounts() {
			par[sc], parMerged[sc] = sweep(sc)
		}

		for _, load := range loads {
			for _, sc := range shardCounts() {
				t.Run(fmt.Sprintf("%s/load=%g/shards=%d", fam, load, sc), func(t *testing.T) {
					for i := range grid {
						if grid[i] != load {
							continue
						}
						rep := reps[i]
						if !rep.OK() {
							t.Fatalf("point %d: simulators diverge:\n%s", i, rep.Summary())
						}
						if rep.Opt.Completed == 0 {
							t.Fatalf("point %d: spec %s completed no packets; test is vacuous", i, rep.Spec)
						}
						if got := par[sc].Points[i].Stats; got != rep.Opt {
							t.Errorf("point %d stats diverge at %d workers:\n  serial run %+v\n  sweep      %+v\nspec: %s", i, sc, rep.Opt, got, rep.Spec)
						}
						want, err := json.Marshal(serial.Points[i])
						if err != nil {
							t.Fatal(err)
						}
						got, err := json.Marshal(par[sc].Points[i])
						if err != nil {
							t.Fatal(err)
						}
						if string(got) != string(want) {
							t.Errorf("point %d diverges at %d workers:\n  1 worker  %s\n  %d workers %s", i, sc, want, sc, got)
						}
					}
					if parMerged[sc] != serialMerged {
						t.Errorf("merged aggregate/timeline/attribution diverge at %d workers:\n  1 worker  %s\n  %d workers %s", sc, serialMerged, sc, parMerged[sc])
					}
				})
			}
		}
	}
}
