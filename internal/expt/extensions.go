package expt

import (
	"fmt"
	"strings"

	"waferswitch/internal/mapping"
	"waferswitch/internal/sim"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
	"waferswitch/internal/yield"
)

// Extension experiments beyond the paper's figures: quantifications of
// arguments the paper makes qualitatively, and ablations of this
// reproduction's own design choices.
func init() {
	register("ext-yield", extYield)
	register("ext-optimizers", extOptimizers)
	register("ext-meshsim", extMeshSim)
	register("ext-tail", extTailLatency)
}

// extYield quantifies Section III-A's yield argument and Section II's
// economies-of-scale argument: chiplet-based assembly yield vs the
// monolithic equivalent, and silicon cost per port vs the $5000 the
// paper quotes for one 800G transceiver module.
func extYield(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-yield",
		Title:   "Manufacturing yield and silicon economics of waferscale switches",
		Headers: []string{"design", "chiplets", "chiplet mm^2", "system yield", "monolithic yield", "silicon cost ($)", "$/port"},
	}
	type design struct {
		name   string
		n      int
		area   float64
		ports  int
		spares int
	}
	for _, d := range []design{
		{"2048-port (24 SSC)", 24, 800, 2048, 1},
		{"4096-port (48 SSC)", 48, 800, 4096, 1},
		{"8192-port (96 SSC)", 96, 800, 8192, 2},
		{"8192-port hetero (288 dies)", 288, 266, 8192, 4},
	} {
		a := yield.DefaultAssembly
		a.SpareChiplets = d.spares
		r, err := yield.Report(d.n, d.area, d.ports, yield.DefaultDieYield, a, yield.DefaultCost)
		if err != nil {
			return nil, err
		}
		t.AddRow(d.name, d.n, d.area, fmt.Sprintf("%.1f%%", r.SystemYield*100),
			fmt.Sprintf("%.2g", r.MonolithicYield), r.SiliconCostUSD, r.CostPerPortUSD)
	}
	t.Notes = append(t.Notes,
		"known-good-die assembly keeps system yield near the substrate yield; the monolithic equivalent is unmanufacturable",
		fmt.Sprintf("silicon cost per port is two orders of magnitude below one 800G transceiver module ($%d)", 5000))
	return t, nil
}

// extOptimizers is the mapping-optimizer ablation: the paper's pairwise
// exchange (Algorithm 1) vs simulated annealing at comparable budgets.
// Each optimizer's work is the number of swaps it scores over all of its
// restarts, which, unlike a timing, is the same on every host.
func extOptimizers(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-optimizers",
		Title:   "Placement optimizer ablation: pairwise exchange (Algorithm 1) vs simulated annealing",
		Headers: []string{"Clos ports", "pairwise max load", "pairwise swaps scored", "annealed max load", "annealed swaps scored"},
	}
	chip := ssc.MustTH5(200)
	sizes := []int{2048, 4096}
	if !o.Quick {
		sizes = append(sizes, 8192)
	}
	var ratios []string // annealed over pairwise swaps scored, per size
	fewer := 0          // sizes where pairwise exchange scores fewer swaps
	for _, ports := range sizes {
		cl, err := topo.HomogeneousClos(ports, chip)
		if err != nil {
			return nil, err
		}
		rows, cols := topo.NearSquare(len(cl.Nodes))
		greedy, err := mapping.Best(cl, rows, cols, o.restarts(), o.seed())
		if err != nil {
			return nil, err
		}
		annealed, err := mapping.BestAnnealed(cl, rows, cols, o.restarts(), 80, o.seed())
		if err != nil {
			return nil, err
		}
		g, a := greedy.SwapEvaluations(), annealed.SwapEvaluations()
		t.AddRow(ports, greedy.MaxLoad(), g, annealed.MaxLoad(), a)
		ratios = append(ratios, fmt.Sprintf("%.2f at %d ports", float64(a)/float64(g), ports))
		if g < a {
			fewer++
		}
	}
	verdict := fmt.Sprintf("pairwise exchange converges in fewer swap evaluations at %d of %d sizes", fewer, len(sizes))
	if fewer == len(sizes) {
		verdict = "pairwise exchange converges in fewer swap evaluations at every size, supporting the paper's choice"
	}
	t.Notes = append(t.Notes, "annealed / pairwise swaps scored: "+strings.Join(ratios, ", "), verdict)
	return t, nil
}

// extMeshSim quantifies Section III-C's claim that a raw mesh of
// sub-switches "has low saturation throughput, low bisection bandwidth,
// and high latency which is undesirable for a network switch" — the
// reason the paper maps a Clos onto the mesh instead.
func extMeshSim(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-meshsim",
		Title:   "Why map a Clos? Mesh-of-SSCs vs Clos-of-SSCs as the switch fabric (uniform traffic)",
		Headers: []string{"fabric", "terminals", "zero-load (cycles)", "saturation", "p99 at 0.3 load (cycles)"},
	}
	chip, err := ssc.MustTH5(200).Deradix(4) // radix 64
	if err != nil {
		return nil, err
	}
	warm, measure := o.simWindow()
	cfg := o.waferscaleConfig(warm, measure, 8, 32, 4)
	loads := []float64{0.3, 0.5, 0.7, 0.9}
	if o.Quick {
		loads = []float64{0.3, 0.7}
	}

	// Clos: 512 terminals from 24 radix-64 SSCs.
	clos, err := topo.HomogeneousClos(512, chip)
	if err != nil {
		return nil, err
	}
	// Mesh: a 4x6 array of the same SSCs with a balanced radix split
	// hosts a comparable number of terminals.
	mesh, err := topo.BalancedMesh(4, 6, chip)
	if err != nil {
		return nil, err
	}
	fabrics := []struct {
		name string
		topo *topo.Topology
	}{{"clos", clos}, {"mesh", mesh}}
	rows := make([][]interface{}, len(fabrics))
	err = o.each("ext-meshsim", len(fabrics), func(i int) error {
		f := fabrics[i]
		terms := f.topo.ExternalPorts()
		injf := sim.SyntheticInjector(traffic.Uniform(terms), 4)
		build := func() (*sim.Network, error) { return sim.Build(f.topo, sim.ConstantLatency(1), cfg) }
		// The fabrics are the parallel axis; each runs its zero-load
		// probe and its load sweep serially. All four series on one pool
		// measured slower: the mesh's 0.3 point is long although its
		// load is low, so longest-first dispatch starts it late. That
		// point is saturated, so under o.Adaptive its drain is aborted
		// and its p99 covers only the packets completed before the abort.
		name := "ext-meshsim/" + f.name
		res, err := sim.Sweeps([]sim.Series{
			{Name: name + "/zero_load", Build: build, Inject: injf, Loads: []float64{sim.ZeroLoad}},
			{Name: name, Build: build, Inject: injf, Loads: loads},
		}, sim.SweepOptions{Workers: 1, LiveName: name, Abort: o.Adaptive})
		if err != nil {
			return err
		}
		zl, err := sim.ZeroLoadLatencyOf(res[0].Points[0].Stats)
		if err != nil {
			return err
		}
		stats := res[1].Stats()
		rows[i] = []interface{}{f.name, terms, zl, sim.SaturationThroughput(stats), stats[0].P99Latency}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "the mesh fabric saturates far earlier and has heavier tails, confirming the paper's reason for mapping a Clos onto the physical mesh")
	return t, nil
}

// extTailLatency reports latency percentiles for the waferscale switch
// vs the discrete network (the averages of Fig 23, extended to tails).
func extTailLatency(o Options) (*Table, error) {
	ports := 512
	cl, err := simClos(ports)
	if err != nil {
		return nil, err
	}
	warm, measure := o.simWindow()
	t := &Table{
		ID:      "ext-tail",
		Title:   fmt.Sprintf("Latency tails at 0.5 load (uniform, %d ports): waferscale vs discrete network", ports),
		Headers: []string{"system", "avg (cycles)", "p50", "p99", "p999"},
	}
	wsCfg := o.waferscaleConfig(warm, measure, 16, 32, 4)
	netCfg := o.baselineConfig(warm, measure, 16, 32, 4)
	injf := sim.SyntheticInjector(traffic.Uniform(ports), 4)
	names := []string{"waferscale", "discrete network"}
	// One point per system, both on one pool. The table reads latencies
	// only, so no observer is attached; the latency histogram is the
	// one-point aggregate.
	res, err := sim.Sweeps([]sim.Series{
		{Name: "ext-tail/" + names[0], Build: func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(1), wsCfg) },
			Inject: injf, Loads: []float64{0.5}},
		{Name: "ext-tail/" + names[1], Build: func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(8), netCfg) },
			Inject: injf, Loads: []float64{0.5}},
	}, sim.SweepOptions{Workers: o.Workers, Ctx: o.ctx, Live: o.Live, LiveName: "ext-tail", Abort: o.Adaptive})
	if err != nil {
		return nil, err
	}
	for k, r := range res {
		st := r.Points[0].Stats
		t.AddRow(names[k], st.AvgLatency, st.P50Latency, st.P99Latency, st.P999Latency)
		if o.Probe && r.Aggregate != nil {
			t.Attach(names[k]+"_latency", r.Aggregate.Latency)
		}
	}
	return t, nil
}
