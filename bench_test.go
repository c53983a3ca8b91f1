// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// (design-space search, placement optimization, or cycle-level
// simulation) and reports key result metrics alongside the timing, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
// With -short the experiments run at reduced (Quick) scale.
package waferswitch_test

import (
	"math/rand"
	"strconv"
	"testing"

	"waferswitch/internal/expt"
	"waferswitch/internal/mapping"
	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// benchExperiment times whole runs of one experiment. The design-space
// figures map each Clos once per process (mapping.Optimized), so every
// iteration after the first times memo hits: compare them across commits
// with -benchtime 1x.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := expt.Options{Quick: testing.Short(), Seed: 1}
	for i := 0; i < b.N; i++ {
		t, err := expt.Run(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		if i == b.N-1 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// Motivation and parameter tables.
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Modular-switch comparison (Table III).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// Mapping study (Fig 5) and the design-space sweeps (Figs 6-13).
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// Power scaling and the scalability optimizations (Figs 15-19).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19") }

// Cycle-level performance studies (Figs 21-24).
func BenchmarkFig21(b *testing.B) { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B) { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B) { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B) { benchExperiment(b, "fig24") }

// Discussion-section studies (Figs 25-28, Table VI).
func BenchmarkFig25(b *testing.B)  { benchExperiment(b, "fig25") }
func BenchmarkFig26(b *testing.B)  { benchExperiment(b, "fig26") }
func BenchmarkFig27(b *testing.B)  { benchExperiment(b, "fig27") }
func BenchmarkFig28(b *testing.B)  { benchExperiment(b, "fig28") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// Use cases (Tables VII-IX).
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9") }

// Extension experiments (see EXPERIMENTS.md, "Extensions").
func BenchmarkExtYield(b *testing.B)      { benchExperiment(b, "ext-yield") }
func BenchmarkExtOptimizers(b *testing.B) { benchExperiment(b, "ext-optimizers") }
func BenchmarkExtMeshSim(b *testing.B)    { benchExperiment(b, "ext-meshsim") }
func BenchmarkExtTail(b *testing.B)       { benchExperiment(b, "ext-tail") }

// --- Ablation and microbenchmarks for the design choices in DESIGN.md ---

// BenchmarkAnnealVsPairwise times the annealing alternative to the
// paper's Algorithm 1 on the flagship 96-chiplet placement.
func BenchmarkAnnealVsPairwise(b *testing.B) {
	cl, err := topo.HomogeneousClos(8192, ssc.MustTH5(200))
	if err != nil {
		b.Fatal(err)
	}
	rows, cols := topo.NearSquare(len(cl.Nodes))
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := mapping.Best(cl, rows, cols, 1, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(p.MaxLoad()), "maxload")
		}
	})
	b.Run("anneal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := mapping.BestAnnealed(cl, rows, cols, 1, 80, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(p.MaxLoad()), "maxload")
		}
	})
}

// BenchmarkMappingOptimize measures one full pairwise-exchange
// optimization of an 8192-port Clos placement (the paper's Algorithm 1 at
// its largest configuration).
func BenchmarkMappingOptimize(b *testing.B) {
	cl, err := topo.HomogeneousClos(8192, ssc.MustTH5(200))
	if err != nil {
		b.Fatal(err)
	}
	rows, cols := topo.NearSquare(len(cl.Nodes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := mapping.New(cl, rows, cols, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		p.Optimize(50)
	}
}

// BenchmarkMappingConvergedPass measures one full pairwise-exchange sweep
// over a converged placement: every cell pair is scored without moving a
// node (routed into the placement's scratch difference arrays and scanned
// for its peak load) and none is made, exercising the incremental
// channel-load accounting the optimizer depends on (DESIGN.md ablation).
func BenchmarkMappingConvergedPass(b *testing.B) {
	cl, err := topo.HomogeneousClos(4096, ssc.MustTH5(200))
	if err != nil {
		b.Fatal(err)
	}
	p, err := mapping.Best(cl, 8, 8, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Optimize(1)
	}
}

// benchSimCycle runs the steady-state throughput benchmark on the
// Fig 23 waferscale configuration, with optional instrumentation
// attached before the run.
func benchSimCycle(b *testing.B, attach func(*sim.Network)) {
	b.Helper()
	ports := 512
	chip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(ports, chip)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		NumVCs: 16, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 9, TermDelay: 8,
		WarmupCycles: 10, MeasureCycles: b.N + 1, DrainCycles: 1,
		Seed: 1,
	}
	n, err := sim.Build(cl, sim.ConstantLatency(1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if attach != nil {
		attach(n)
	}
	inj, err := sim.SyntheticInjector(traffic.Uniform(ports), 4)(0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	st := n.Run(inj, 0.5)
	b.ReportMetric(float64(st.Cycles)/float64(b.N), "cycles/op")
}

// BenchmarkSimCycle measures steady-state simulator throughput in router
// cycles per second on the Fig 23 waferscale configuration.
func BenchmarkSimCycle(b *testing.B) { benchSimCycle(b, nil) }

// BenchmarkSimTimelineOn and BenchmarkSimTracerOn run BenchmarkSimCycle's
// loop with the instrument attached, so the attached overhead is the
// difference from BenchmarkSimCycle, whose loop pays the unattached nil
// checks (one predicted branch per event site). The timeline's overhead
// includes the collector it attaches and reads its windows from. Both
// must stay at 0 allocs/op, since both instruments preallocate.
func BenchmarkSimTimelineOn(b *testing.B) {
	benchSimCycle(b, func(n *sim.Network) { n.AttachTimeline(obs.NewTimeline(200, 512)) })
}

func BenchmarkSimTracerOn(b *testing.B) {
	benchSimCycle(b, func(n *sim.Network) { n.Trace(obs.NewFlightRecorder(1 << 16)) })
}

// sweepFixture returns the 128-port Clos fixture shared by the sweep
// benchmarks: a builder, the matching injector factory, and a 12-point
// load grid. Loads stay below saturation so every point drains quickly
// and the benchmarks measure simulation, not drain deadlines.
func sweepFixture(b *testing.B) (sim.Builder, sim.InjectorFactory, []float64) {
	b.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(128, chip)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		NumVCs: 4, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 8,
		WarmupCycles: 200, MeasureCycles: 400, Seed: 1,
	}
	loads := make([]float64, 12)
	for i := range loads {
		loads[i] = 0.05 * float64(i+1)
	}
	build := func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(1), cfg) }
	injf := sim.SyntheticInjector(traffic.Uniform(128), cfg.PacketFlits)
	return build, injf, loads
}

// benchSweep runs the fixture sweep through the parallel sweep engine.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	build, injf, loads := sweepFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Sweep(build, injf, loads, sim.SweepOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != len(loads) {
			b.Fatalf("sweep returned %d points", len(res.Points))
		}
	}
}

// BenchmarkSweepSerial and BenchmarkSweepParallel compare one-worker
// against multi-worker execution of the same deterministic sweep; the
// ratio of their ns/op is the engine's wall-clock speedup on this
// machine (near-linear up to the point count on multi-core hardware).
// The parallel variant pins an explicit worker count (Workers: 0 means
// GOMAXPROCS, which on one core silently equals the serial path), but
// the worker pool (sim.Pool) collapses any worker count to the inline
// serial path when GOMAXPROCS==1 — results are bit-identical for every worker
// count, so a one-core fan-out would be pure scheduling overhead. The
// pinned parallel number therefore measures real pool overhead on
// multi-core hardware and exactly matches SweepSerial on one core,
// instead of charging 1-core scheduling noise to the engine.
func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 4) }

// BenchmarkSweepReuse measures warm-pool sweep steady state: one
// network built before the timer, every sweep (and every point within
// it) served by Reset instead of Build. The gap between this and
// BenchmarkSweepSerial is the one cold Build each serial sweep still
// pays for its worker network; allocs/op here is the true per-sweep
// steady-state allocation floor (per-point slices, injectors, stats).
func BenchmarkSweepReuse(b *testing.B) {
	build, injf, loads := sweepFixture(b)
	n, err := build() // warm the network outside the timer
	if err != nil {
		b.Fatal(err)
	}
	// reuse hands out the one network, Reset to its built state.
	base := n.BaseSeed()
	reuse := func() (*sim.Network, error) { n.Reset(base); return n, nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Sweep(reuse, injf, loads, sim.SweepOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != len(loads) {
			b.Fatalf("sweep returned %d points", len(res.Points))
		}
	}
}

var netSink *sim.Network

// BenchmarkNetworkResetVsBuild pins the cost Reset saves: the build
// sub-benchmark constructs the 128-port sweep network from nothing each
// iteration, the reset sub-benchmark rewinds one warm network. The
// ns/op and B/op gap between the two is the per-point construction cost
// every warm sweep evaluation now skips; reset must stay at 0 allocs/op.
func BenchmarkNetworkResetVsBuild(b *testing.B) {
	build, _, _ := sweepFixture(b)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := build()
			if err != nil {
				b.Fatal(err)
			}
			netSink = n
		}
	})
	b.Run("reset", func(b *testing.B) {
		n, err := build()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Reset(int64(i))
		}
		netSink = n
	})
}

// benchSatSweep runs a load sweep over a small DOR-routed mesh that
// saturates at its lowest load (the reported knee is 0.05), so every
// point burns its full drain budget. The exhaustive/adaptive pair pins
// the early-abort engine's wall-clock win on identical workloads: both
// produce the same Offered/Accepted and the same Summarize reduction
// (the measurement window always completes), but the adaptive variant
// skips the drain of each point whose measurement window showed
// saturation: all but the load-0.05 point, which drains to its budget
// in both.
func benchSatSweep(b *testing.B, abort bool) {
	b.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		b.Fatal(err)
	}
	mesh, err := topo.MeshTopo(3, 3, chip, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		NumVCs: 4, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 8,
		WarmupCycles: 200, MeasureCycles: 400, Seed: 1,
	}
	loads := make([]float64, 8)
	for i := range loads {
		loads[i] = 0.05 * float64(i+1) // 0.05..0.40
	}
	ports := mesh.ExternalPorts()
	build := func() (*sim.Network, error) { return sim.Build(mesh, sim.ConstantLatency(1), cfg) }
	injf := sim.SyntheticInjector(traffic.Uniform(ports), cfg.PacketFlits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Sweep(build, injf, loads, sim.SweepOptions{Workers: 1, Abort: abort})
		if err != nil {
			b.Fatal(err)
		}
		sum := sim.Summarize(res.Stats())
		if !sum.Saturated {
			b.Fatal("saturation sweep never saturated; benchmark measures nothing")
		}
		b.ReportMetric(sum.SaturationThroughput, "saturation")
		b.ReportMetric(sum.FirstSaturatedLoad, "knee")
	}
}

// BenchmarkSweepExhaustive and BenchmarkSweepAdaptive run the identical
// saturating sweep with the early-abort detector off and on; the ns/op
// ratio is the adaptive engine's wall-clock saving, while the reported
// saturation/knee metrics must agree exactly.
func BenchmarkSweepExhaustive(b *testing.B) { benchSatSweep(b, false) }
func BenchmarkSweepAdaptive(b *testing.B)   { benchSatSweep(b, true) }

// BenchmarkClosConstruction measures logical-topology construction, the
// inner loop of the design-space search.
func BenchmarkClosConstruction(b *testing.B) {
	chip := ssc.MustTH5(200)
	for i := 0; i < b.N; i++ {
		if _, err := topo.HomogeneousClos(8192, chip); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures the NERSC-like trace generators.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := traffic.NERSCTraces(512); err != nil {
			b.Fatal(err)
		}
	}
}

var sink string

// BenchmarkRender measures table rendering (sanity: output path is not
// the bottleneck of any experiment).
func BenchmarkRender(b *testing.B) {
	t := &expt.Table{ID: "x", Title: "t", Headers: []string{"a", "b"}}
	for i := 0; i < 64; i++ {
		t.AddRow(i, strconv.Itoa(i*i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = t.Render()
	}
}
