package expt

import (
	"fmt"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

func init() {
	register("fig21", fig21)
	register("fig22", fig22)
	register("fig23", fig23)
	register("fig24", fig24)
}

// simPorts returns the Clos size used for the cycle-level experiments.
// The paper simulates 2048-8192 terminals in Booksim on a cluster; on a
// single core we default to 1024 terminals (512 in Quick mode), which
// preserves every relative result. One simulation cycle is 20 ns, as in
// the paper.
func (o Options) simPorts() int {
	if o.Quick {
		return 512
	}
	return 1024
}

func (o Options) simLoads() []float64 {
	if o.Quick {
		return []float64{0.2, 0.5, 0.8}
	}
	return []float64{0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9}
}

func (o Options) simWindow() (warm, measure int) {
	if o.Quick {
		return 500, 1000
	}
	return 1000, 2000
}

// simClos builds the Clos topology the simulator experiments run on:
// radix-64 sub-switches (the paper's 2048x800G configuration uses 64-port
// SSCs; 96 chiplets at 2048 ports).
func simClos(ports int) (*topo.Topology, error) {
	chip, err := ssc.MustTH5(200).Deradix(4) // radix 64
	if err != nil {
		return nil, err
	}
	return topo.HomogeneousClos(ports, chip)
}

// Waferscale switch delays (Section VI, in 20 ns cycles): SSC delay 11
// cycles (RC included), 1-cycle on-wafer links, 8-cycle host I/O.
func (o Options) waferscaleConfig(warm, measure int, numVCs, buf, pkt int) sim.Config {
	return sim.Config{
		NumVCs: numVCs, BufPerPort: buf, PacketFlits: pkt,
		RCIngress: 2, RCOther: 2, PipeDelay: 9, TermDelay: 8,
		WarmupCycles: warm, MeasureCycles: measure, DrainCycles: 3 * measure,
		Seed: o.seed(), Logger: o.Logger,
	}
}

// Baseline discrete switch network: 15-cycle switch boxes, 8-cycle
// rack-scale links between boxes.
func (o Options) baselineConfig(warm, measure int, numVCs, buf, pkt int) sim.Config {
	return sim.Config{
		NumVCs: numVCs, BufPerPort: buf, PacketFlits: pkt,
		RCIngress: 4, RCOther: 4, PipeDelay: 11, TermDelay: 8,
		WarmupCycles: warm, MeasureCycles: measure, DrainCycles: 3 * measure,
		Seed: o.seed(), Logger: o.Logger,
	}
}

// sweepAttach attaches the raw stats of a sweep series plus its summary
// to the table under the given series name; with probes enabled it also
// attaches the per-point probe snapshots and the merged-across-points
// aggregate, and with timelines enabled the merged time-resolved series.
func sweepAttach(t *Table, o Options, series string, res *sim.SweepResult) {
	stats := res.Stats()
	t.Attach(series+"_stats", stats)
	t.Attach(series+"_summary", sim.Summarize(stats))
	if o.Probe {
		t.Attach(series+"_probes", res.Points)
		if res.Aggregate != nil {
			t.Attach(series+"_aggregate", res.Aggregate)
		}
	}
	if res.Timeline != nil {
		t.Attach(series+"_timeline", res.Timeline)
	}
	if res.Attribution != nil {
		t.Attach(series+"_attribution", res.Attribution)
	}
	for _, p := range res.Points {
		if p.PostMortem != "" {
			t.Notes = append(t.Notes, fmt.Sprintf("%s load=%g %s", series, p.Stats.Offered, p.PostMortem))
		}
	}
}

// runSweeps runs an experiment's load sweeps on one sim.Sweeps call
// whose pool is named name: every point of every series fans across
// o.Workers goroutines, longest first, with probes when o.Probe is set,
// timelines when o.TimelineInterval is set, early abort under
// o.Adaptive, attribution under o.Attribution, and live reporting when
// o.Live is wired to an introspection server. It returns one result per
// series.
func runSweeps(o Options, name string, series []sim.Series) ([]*sim.SweepResult, error) {
	return sim.Sweeps(series, sim.SweepOptions{
		Workers: o.Workers, Probe: o.Probe, Ctx: o.ctx,
		TimelineInterval: o.TimelineInterval,
		Live:             o.Live, LiveName: name,
		Abort:       o.Adaptive,
		Attribution: o.Attribution,
	})
}

// fig21 reproduces the buffer-sizing study: saturation throughput vs
// shared buffer size for on-wafer (1 cycle = 20 ns) vs conventional
// (10 cycles = 200 ns) link latencies. Lower-latency links need smaller
// buffers to reach the same saturation throughput (B = RTT*BW/sqrt(n)).
func fig21(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig21",
		Title:   "Saturation throughput vs buffer size and link latency (uniform traffic)",
		Headers: []string{"buffer (flits/port)", "link 1 cycle", "link 5 cycles", "link 10 cycles"},
	}
	ports := 512
	if o.Quick {
		ports = 128
	}
	cl, err := simClos(ports)
	if err != nil {
		return nil, err
	}
	warm, measure := o.simWindow()
	buffers := []int{8, 16, 32, 64, 128}
	lats := []int{1, 5, 10}
	if o.Quick {
		buffers = []int{8, 64}
		lats = []int{1, 10}
		t.Headers = []string{"buffer (flits/port)", "link 1 cycle", "link 10 cycles"}
	}
	loads := []float64{0.4, 0.6, 0.8, 0.95}
	if o.Quick {
		loads = []float64{0.5, 0.9}
	}
	// One series per buffers x latencies cell: a load sweep by default,
	// a bisection bracket under o.Adaptive.
	injf := sim.SyntheticInjector(traffic.Uniform(ports), 4)
	series := make([]sim.Series, len(buffers)*len(lats))
	for idx := range series {
		buf, lat := buffers[idx/len(lats)], lats[idx%len(lats)]
		cfg := o.waferscaleConfig(warm, measure, 8, buf, 4)
		series[idx] = sim.Series{
			Name:   fmt.Sprintf("fig21/buf=%d/lat=%d", buf, lat),
			Build:  func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(lat), cfg) },
			Inject: injf, Loads: loads,
		}
	}
	sats := make([]float64, len(series))
	if o.Adaptive {
		// Adaptive mode replaces each cell's exhaustive load grid with a
		// bisection saturation search: O(log(1/tol)) points with the drain
		// budget of saturated probes aborted early, reaching the same
		// saturation plateau in a fraction of the grid's wall-clock.
		type cellSearch struct {
			Buffer  int                   `json:"buffer"`
			LinkLat int                   `json:"link_latency"`
			Search  *sim.SaturationResult `json:"search"`
		}
		searches := make([]cellSearch, len(series))
		err = o.each("fig21", len(series), func(idx int) error {
			res, err := sim.FindSaturation(series[idx].Build, injf,
				sim.SaturationSearchOptions{Hi: loads[len(loads)-1], Tol: 0.05, Abort: true})
			if err != nil {
				return err
			}
			sats[idx] = res.SaturationThroughput
			searches[idx] = cellSearch{Buffer: buffers[idx/len(lats)], LinkLat: lats[idx%len(lats)], Search: res}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Attach("adaptive_search", searches)
		t.Notes = append(t.Notes,
			"adaptive mode: saturation located by bisection with early-abort drains instead of the exhaustive load grid")
	} else {
		// With attribution on, each grid cell keeps its merged stage
		// breakdown and heatmap plus the post-mortems of its saturated
		// points — the knee of every buffer/latency combination explains
		// itself (see EXPERIMENTS.md "Reading a fig21 heatmap").
		type cellAttrib struct {
			Buffer       int                       `json:"buffer"`
			LinkLat      int                       `json:"link_latency"`
			Attribution  *obs.AttributionSnapshot  `json:"attribution"`
			PostMortems  []string                  `json:"post_mortems,omitempty"`
			Backpressure []*obs.BackpressureReport `json:"backpressure,omitempty"`
		}
		var cells []cellAttrib
		if o.Attribution {
			cells = make([]cellAttrib, len(series))
		}
		// Every cell's load sweep is one series of a single Sweeps call,
		// unprobed, so the whole grid's points share one pool. The table
		// attaches no timeline, so points sample one only for the live
		// /timeline view.
		sweep := o
		sweep.Probe = false
		if o.Live == nil {
			sweep.TimelineInterval = 0
		}
		res, err := runSweeps(sweep, "fig21", series)
		if err != nil {
			return nil, err
		}
		for idx, r := range res {
			sats[idx] = sim.SaturationThroughput(r.Stats())
			if o.Attribution {
				cell := cellAttrib{Buffer: buffers[idx/len(lats)], LinkLat: lats[idx%len(lats)], Attribution: r.Attribution}
				for _, p := range r.Points {
					if p.PostMortem != "" {
						cell.PostMortems = append(cell.PostMortems, p.PostMortem)
					}
					if p.Backpressure != nil {
						cell.Backpressure = append(cell.Backpressure, p.Backpressure)
					}
				}
				cells[idx] = cell
			}
		}
		if o.Attribution {
			t.Attach("attribution_cells", cells)
		}
	}
	for bi, buf := range buffers {
		row := []interface{}{buf}
		for li := range lats {
			row = append(row, sats[bi*len(lats)+li])
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"on-wafer links reach their saturation ceiling with far smaller buffers, enabling fast SRAM buffering (Section VI)")
	return t, nil
}

// fig22 reproduces the proprietary-routing study: latency vs load with
// the full Layer-3 lookup at every hop (RC = 4 cycles) against
// ingress-tagged routing (RC = 2 at ingress, 1 elsewhere).
func fig22(o Options) (*Table, error) {
	ports := o.simPorts()
	cl, err := simClos(ports)
	if err != nil {
		return nil, err
	}
	warm, measure := o.simWindow()
	t := &Table{
		ID:      "fig22",
		Title:   fmt.Sprintf("Proprietary routing: latency vs load (uniform, %d-port waferscale Clos)", ports),
		Headers: []string{"load", "baseline latency (cycles)", "proprietary latency (cycles)", "baseline accepted", "proprietary accepted"},
	}
	// Two VCs per port keep the route-computation pipeline on the
	// packet-rate critical path, as in the paper's configuration where RC
	// delay visibly costs saturation throughput (Fig 22).
	base := sim.Config{
		NumVCs: 2, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 4, RCOther: 4, PipeDelay: 12, TermDelay: 8,
		WarmupCycles: warm, MeasureCycles: measure, DrainCycles: 3 * measure,
		Seed: o.seed(), Logger: o.Logger,
	}
	prop := base
	prop.RCIngress, prop.RCOther = 2, 1
	injf := sim.SyntheticInjector(traffic.Uniform(ports), 4)
	res, err := runSweeps(o, "fig22", []sim.Series{
		{Name: "fig22/baseline", Build: func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(1), base) },
			Inject: injf, Loads: o.simLoads()},
		{Name: "fig22/proprietary", Build: func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(1), prop) },
			Inject: injf, Loads: o.simLoads()},
	})
	if err != nil {
		return nil, err
	}
	rBase, rProp := res[0], res[1]
	sBase, sProp := rBase.Stats(), rProp.Stats()
	for i := range sBase {
		t.AddRow(sBase[i].Offered, sBase[i].AvgLatency, sProp[i].AvgLatency,
			sBase[i].Accepted, sProp[i].Accepted)
	}
	sweepAttach(t, o, "baseline", rBase)
	sweepAttach(t, o, "proprietary", rProp)
	satB, satP := sim.SaturationThroughput(sBase), sim.SaturationThroughput(sProp)
	t.Notes = append(t.Notes, fmt.Sprintf("saturation throughput: baseline %.3f, proprietary %.3f (%+.1f%%) — paper reports +11%% to +14.5%%",
		satB, satP, (satP/satB-1)*100))
	if knee, ok := sim.FirstSaturatedLoad(sProp); ok {
		t.Notes = append(t.Notes, fmt.Sprintf("proprietary routing saturates at offered load %.2f", knee))
	}
	return t, nil
}

// fig23 compares the waferscale switch against an equivalent discrete
// switch network across synthetic traffic patterns.
func fig23(o Options) (*Table, error) {
	ports := o.simPorts()
	cl, err := simClos(ports)
	if err != nil {
		return nil, err
	}
	warm, measure := o.simWindow()
	t := &Table{
		ID:      "fig23",
		Title:   fmt.Sprintf("Waferscale switch vs equivalent switch network (%d ports)", ports),
		Headers: []string{"pattern", "WS zero-load (cycles)", "net zero-load (cycles)", "WS saturation", "net saturation"},
	}
	pats, err := traffic.Synthetics(ports)
	if err != nil {
		return nil, err
	}
	if o.Quick {
		pats = pats[:3]
	}
	wsCfg := o.waferscaleConfig(warm, measure, 16, 32, 4)
	netCfg := o.baselineConfig(warm, measure, 16, 32, 4)
	wsBuild := func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(1), wsCfg) }
	netBuild := func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(8), netCfg) }
	// Four series per pattern, all on one Sweeps call: each system's
	// zero-load probe (one point at sim.ZeroLoad, seeded like a
	// standalone run) and its load sweep.
	var series []sim.Series
	for _, pat := range pats {
		injf := sim.SyntheticInjector(pat, 4)
		for _, sys := range []struct {
			name  string
			build sim.Builder
		}{{"waferscale_", wsBuild}, {"network_", netBuild}} {
			name := "fig23/" + sys.name + pat.Name
			series = append(series,
				sim.Series{Name: name + "/zero_load", Build: sys.build, Inject: injf, Loads: []float64{sim.ZeroLoad}},
				sim.Series{Name: name, Build: sys.build, Inject: injf, Loads: o.simLoads()})
		}
	}
	res, err := runSweeps(o, "fig23", series)
	if err != nil {
		return nil, err
	}
	var wsZeroUniform, netZeroUniform float64
	for k, pat := range pats {
		r := res[4*k : 4*k+4] // waferscale zero-load, sweep; network zero-load, sweep
		wsZL, err := sim.ZeroLoadLatencyOf(r[0].Points[0].Stats)
		if err != nil {
			return nil, err
		}
		netZL, err := sim.ZeroLoadLatencyOf(r[2].Points[0].Stats)
		if err != nil {
			return nil, err
		}
		wsRes, netRes := r[1], r[3]
		if pat.Name == "uniform" {
			wsZeroUniform, netZeroUniform = wsZL, netZL
		}
		sweepAttach(t, o, "waferscale_"+pat.Name, wsRes)
		sweepAttach(t, o, "network_"+pat.Name, netRes)
		t.AddRow(pat.Name, wsZL, netZL,
			sim.SaturationThroughput(wsRes.Stats()), sim.SaturationThroughput(netRes.Stats()))
	}
	if netZeroUniform > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("zero-load latency: %.0f vs %.0f cycles (%.0f%% lower) — paper reports 37 vs 60 cycles (38%% lower)",
			wsZeroUniform, netZeroUniform, (1-wsZeroUniform/netZeroUniform)*100))
	}
	return t, nil
}

// fig24 runs the synthetic NERSC mini-app traces on both systems and
// compares saturation throughput.
func fig24(o Options) (*Table, error) {
	ports := o.simPorts()
	cl, err := simClos(ports)
	if err != nil {
		return nil, err
	}
	warm, measure := o.simWindow()
	t := &Table{
		ID:      "fig24",
		Title:   fmt.Sprintf("NERSC mini-app traces: waferscale vs switch network (%d ranks)", ports),
		Headers: []string{"trace", "WS saturation", "net saturation", "WS gain"},
	}
	traces, err := traffic.NERSCTraces(ports)
	if err != nil {
		return nil, err
	}
	if o.Quick {
		traces = traces[:2]
	}
	// 24-flit shared buffers: small enough that the discrete network's
	// longer credit round trip caps its per-port throughput (the
	// buffer-sizing effect of Section VI) while the on-wafer switch stays
	// injection-limited.
	wsCfg := o.waferscaleConfig(warm, measure, 16, 24, 4)
	netCfg := o.baselineConfig(warm, measure, 16, 24, 4)
	wsBuild := func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(1), wsCfg) }
	netBuild := func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(8), netCfg) }
	var series []sim.Series
	for _, trc := range traces {
		injf := sim.TraceInjectorFactory(trc)
		series = append(series,
			sim.Series{Name: "fig24/waferscale_" + trc.Name, Build: wsBuild, Inject: injf, Loads: o.simLoads()},
			sim.Series{Name: "fig24/network_" + trc.Name, Build: netBuild, Inject: injf, Loads: o.simLoads()})
	}
	res, err := runSweeps(o, "fig24", series)
	if err != nil {
		return nil, err
	}
	for k, trc := range traces {
		wsRes, netRes := res[2*k], res[2*k+1]
		sweepAttach(t, o, "waferscale_"+trc.Name, wsRes)
		sweepAttach(t, o, "network_"+trc.Name, netRes)
		ws, net := sim.SaturationThroughput(wsRes.Stats()), sim.SaturationThroughput(netRes.Stats())
		gain := "-"
		if net > 0 {
			gain = fmt.Sprintf("%+.1f%%", (ws/net-1)*100)
		}
		t.AddRow(trc.Name, ws, net, gain)
	}
	t.Notes = append(t.Notes, "paper reports +116.7% (LULESH), +16.7% (MOCFE), +21.4% (Multigrid), +15.2% (Nekbone)")
	return t, nil
}
