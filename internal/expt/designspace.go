package expt

import (
	"fmt"
	"math/rand"

	"waferswitch/internal/core"
	"waferswitch/internal/mapping"
	"waferswitch/internal/ssc"
	"waferswitch/internal/sysarch"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
	"waferswitch/internal/wafer"
)

func init() {
	register("fig5", fig5)
	register("fig6", fig6)
	register("fig7", fig7)
	register("fig8", fig8)
	register("fig9", fig9)
	register("fig10", fig10)
	register("fig11", fig11)
	register("fig12", fig12)
	register("fig13", fig13)
	register("fig16", fig16)
	register("fig17", fig17)
	register("fig18", fig18)
	register("fig19", fig19)
	register("fig26", fig26)
	register("fig27", fig27)
	register("fig28", fig28)
	register("table3", table3)
	register("table6", table6)
}

// substrates returns the substrate sides swept by the design-space
// figures (Quick mode trims the sweep).
func (o Options) substrates() []float64 {
	if o.Quick {
		return []float64{100, 300}
	}
	return []float64{100, 150, 200, 250, 300}
}

func baseParams(side float64, w tech.WSI, ext tech.ExternalIO, o Options) core.Params {
	return core.Params{
		Substrate:   wafer.Substrate{SideMM: side},
		WSI:         w,
		ExternalIO:  ext,
		Chiplet:     ssc.MustTH5(200),
		MapRestarts: o.restarts(),
		Seed:        o.seed(),
	}
}

// fig5 compares random mapping against the pairwise-exchange heuristic
// (Algorithm 1): worst-case channel load over several Clos sizes.
func fig5(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Random mapping vs pairwise-exchange optimized mapping",
		Headers: []string{"Clos ports", "chiplets", "grid", "random max load (lanes)", "optimized max load", "improvement"},
	}
	chip := ssc.MustTH5(200)
	sizes := []int{1024, 2048, 4096, 8192}
	if o.Quick {
		sizes = []int{1024, 2048}
	}
	// Each size owns its rng (seeded from the experiment seed alone, as
	// before), so sizes are independent and fan across the pool.
	rows := make([][]interface{}, len(sizes))
	err := o.each("fig5", len(sizes), func(i int) error {
		ports := sizes[i]
		cl, err := topo.HomogeneousClos(ports, chip)
		if err != nil {
			return err
		}
		gr, gc := topo.NearSquare(len(cl.Nodes))
		rng := rand.New(rand.NewSource(o.seed()))
		randTotal := 0
		const samples = 5
		for s := 0; s < samples; s++ {
			p, err := mapping.New(cl, gr, gc, rng)
			if err != nil {
				return err
			}
			randTotal += p.MaxLoad()
		}
		randLoad := float64(randTotal) / samples
		best, err := mapping.Best(cl, gr, gc, o.restarts(), o.seed())
		if err != nil {
			return err
		}
		rows[i] = []interface{}{ports, len(cl.Nodes), fmt.Sprintf("%dx%d", gr, gc), randLoad,
			best.MaxLoad(), fmt.Sprintf("%.0f%%", (randLoad/float64(best.MaxLoad())-1)*100)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper reports 147.6% improvement in worst-case internal bandwidth per port with 1000 restarts")
	return t, nil
}

// fig6 is the ideal case: maximum ports with area as the only constraint,
// for the three TH-5 port-rate configurations.
func fig6(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Ideal maximum ports (area-only) vs substrate size",
		Headers: []string{"substrate (mm)", "200G ports", "400G ports", "800G ports", "benefit vs TH-5 (200G)"},
	}
	for _, side := range o.substrates() {
		row := []interface{}{side}
		var p200 int
		for _, rate := range []float64{200, 400, 800} {
			p := baseParams(side, tech.SiIF, tech.OpticalIO, o)
			p.Chiplet = ssc.MustTH5(rate)
			r, err := core.MaxPorts(p, core.AreaOnly)
			if err != nil {
				return nil, err
			}
			row = append(row, r.Best.Ports)
			if rate == 200 {
				p200 = r.Best.Ports
			}
		}
		row = append(row, fmt.Sprintf("%.0fx", float64(p200)/256))
		t.AddRow(row...)
	}
	return t, nil
}

// maxPortsTable sweeps substrates x external I/O schemes at one internal
// bandwidth density.
func maxPortsTable(id, title string, w tech.WSI, o Options) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"substrate (mm)", "SerDes", "Optical I/O", "Area I/O"},
	}
	sides := o.substrates()
	exts := []tech.ExternalIO{tech.SerDes, tech.OpticalIO, tech.AreaIOTech}
	// The sides x schemes grid fans across the pool into index slots;
	// rows are emitted serially afterwards.
	ports := make([]int, len(sides)*len(exts))
	err := o.each(id, len(ports), func(idx int) error {
		side, ext := sides[idx/len(exts)], exts[idx%len(exts)]
		r, err := core.MaxPorts(baseParams(side, w, ext, o), core.NoPower)
		if err != nil {
			return err
		}
		ports[idx] = r.Best.Ports
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, side := range sides {
		row := []interface{}{side}
		for ei := range exts {
			row = append(row, ports[si*len(exts)+ei])
		}
		t.AddRow(row...)
	}
	return t, nil
}

func fig7(o Options) (*Table, error) {
	t, err := maxPortsTable("fig7", "Max 200G ports at 3200 Gbps/mm internal bandwidth", tech.SiIF, o)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "SerDes is external-bandwidth bound; Optical/Area are internal-bandwidth bound at 200-300 mm")
	return t, nil
}

func fig9(o Options) (*Table, error) {
	t, err := maxPortsTable("fig9", "Max 200G ports at 6400 Gbps/mm (Vdd-scaled Si-IF)", tech.SiIF.Scaled(2), o)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "doubling internal bandwidth lifts Optical I/O to the ideal 8192 at 300 mm; Area I/O becomes external-bound")
	return t, nil
}

func fig12(o Options) (*Table, error) {
	t, err := maxPortsTable("fig12", "Max 200G ports at 12.8 Tbps/mm (InFO-SoW)", tech.InFOSoW, o)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "same port counts as 6400 Gbps/mm Si-IF but at much higher power (see fig13)")
	return t, nil
}

// fig8 renders the per-edge channel utilization of the chiplet mesh at
// the maximum feasible radix, for SerDes and Optical I/O.
func fig8(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Internal channel utilization at max feasible radix (percent of edge capacity)",
		Headers: []string{"scheme", "ports", "grid", "mean util (%)", "max util (%)", "hot edges (>80%)"},
	}
	type cfg struct {
		name string
		w    tech.WSI
		ext  tech.ExternalIO
	}
	for _, c := range []cfg{
		{"SerDes @3200", tech.SiIF, tech.SerDes},
		{"Optical @6400", tech.SiIF.Scaled(2), tech.OpticalIO},
	} {
		r, err := core.MaxPorts(baseParams(300, c.w, c.ext, o), core.NoPower)
		if err != nil {
			return nil, err
		}
		d := r.Best
		if d.Placement == nil {
			t.AddRow(c.name, d.Ports, "-", "-", "-", "-")
			continue
		}
		h, v := d.Placement.Loads()
		cap := float64(d.EdgeCapacity)
		var sum float64
		var max float64
		hot := 0
		n := 0
		for _, loads := range [][]int{h, v} {
			for _, l := range loads {
				u := float64(l) / cap * 100
				sum += u
				if u > max {
					max = u
				}
				if u > 80 {
					hot++
				}
				n++
			}
		}
		t.AddRow(c.name, d.Ports, fmt.Sprintf("%dx%d", d.GridRows, d.GridCols),
			sum/float64(n), max, hot)
	}
	return t, nil
}

// powerBreakdownTable evaluates the max feasible design per external I/O
// scheme and reports the component powers (Figs 10, 11, 13).
func powerBreakdownTable(id, title string, w tech.WSI, o Options) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"substrate (mm)", "scheme", "ports", "SSC logic (kW)", "internal I/O (kW)", "external I/O (kW)", "total (kW)", "I/O share"},
	}
	sides := []float64{100, 200, 300}
	if o.Quick {
		sides = []float64{300}
	}
	exts := []tech.ExternalIO{tech.SerDes, tech.OpticalIO, tech.AreaIOTech}
	rows := make([][]interface{}, len(sides)*len(exts))
	err := o.each(id, len(rows), func(idx int) error {
		side, ext := sides[idx/len(exts)], exts[idx%len(exts)]
		r, err := core.MaxPorts(baseParams(side, w, ext, o), core.NoPower)
		if err != nil {
			return err
		}
		d := r.Best
		b := d.Power
		rows[idx] = []interface{}{side, ext.Name, d.Ports, b.SSCLogicW / 1000, b.InternalIOW / 1000,
			b.ExternalIOW / 1000, b.TotalW() / 1000, fmt.Sprintf("%.0f%%", b.IOShare()*100)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func fig10(o Options) (*Table, error) {
	return powerBreakdownTable("fig10", "Power breakdown at 3200 Gbps/mm", tech.SiIF, o)
}

func fig11(o Options) (*Table, error) {
	t, err := powerBreakdownTable("fig11", "Power breakdown at 6400 Gbps/mm", tech.SiIF.Scaled(2), o)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: up to 62 kW at 8192 ports with 33-43.8% of power in I/O")
	return t, nil
}

func fig13(o Options) (*Table, error) {
	t, err := powerBreakdownTable("fig13", "Power breakdown at 12.8 Tbps/mm (InFO-SoW)", tech.InFOSoW, o)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: 92.5 kW for the 8192-port switch; InFO-SoW is dropped in favour of Si-IF")
	return t, nil
}

// fig16 quantifies the heterogeneous switch design: power reduction and
// power density vs cooling envelopes, per substrate size.
func fig16(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "Heterogeneous switch power reduction (radix-64 TH-3-class leaves)",
		Headers: []string{"substrate (mm)", "ports", "homogeneous (kW)", "heterogeneous (kW)", "reduction", "density (W/mm^2)", "within water cooling"},
	}
	for _, side := range o.substrates() {
		w := tech.SiIF.Scaled(2)
		p := baseParams(side, w, tech.OpticalIO, o)
		r, err := core.MaxPorts(p, core.NoPower)
		if err != nil {
			return nil, err
		}
		if r.Best.SingleChip() {
			t.AddRow(side, r.Best.Ports, "-", "-", "-", "-", "-")
			continue
		}
		ports := r.Best.Ports
		homo := r.Best
		ph := p
		ph.HeteroLeafRadix = 64
		hetero, err := core.Evaluate(ph, ports, core.NoPower)
		if err != nil {
			return nil, err
		}
		red := 1 - hetero.Power.TotalW()/homo.Power.TotalW()
		t.AddRow(side, ports, homo.Power.TotalW()/1000, hetero.Power.TotalW()/1000,
			fmt.Sprintf("%.1f%%", red*100), hetero.PowerDensity,
			hetero.PowerDensity <= tech.WaterCooling.MaxWPerMM2)
	}
	t.Notes = append(t.Notes,
		"paper: 30.8% reduction at 300 mm (0.69 -> 0.48 W/mm^2), 33.5% at small substrates",
		fmt.Sprintf("cooling envelopes: air %.2f, water %.2f, multiphase %.2f W/mm^2",
			tech.AirCooling.MaxWPerMM2, tech.WaterCooling.MaxWPerMM2, tech.MultiPhaseCooling.MaxWPerMM2))
	return t, nil
}

// deradixTable sweeps SSC radix reduction factors (Figs 17, 18).
func deradixTable(id, title string, w tech.WSI, o Options) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"substrate (mm)", "SSC radix 256", "SSC radix 128", "SSC radix 64"},
	}
	chip := ssc.MustTH5(200)
	sides := o.substrates()
	factors := []int{1, 2, 4}
	ports := make([]int, len(sides)*len(factors))
	err := o.each(id, len(ports), func(idx int) error {
		side, factor := sides[idx/len(factors)], factors[idx%len(factors)]
		c, err := chip.Deradix(factor)
		if err != nil {
			return err
		}
		p := baseParams(side, w, tech.OpticalIO, o)
		p.Chiplet = c
		r, err := core.MaxPorts(p, core.NoPower)
		if err != nil {
			return err
		}
		ports[idx] = r.Best.Ports
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, side := range sides {
		row := []interface{}{side}
		for fi := range factors {
			row = append(row, ports[si*len(factors)+fi])
		}
		t.AddRow(row...)
	}
	return t, nil
}

func fig17(o Options) (*Table, error) {
	t, err := deradixTable("fig17", "Max ports vs SSC deradixing at 3200 Gbps/mm (Optical I/O)", tech.SiIF, o)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "halving SSC radix doubles the 300 mm switch from 2048 to 4096 ports; quartering over-deradixes")
	return t, nil
}

func fig18(o Options) (*Table, error) {
	t, err := deradixTable("fig18", "Max ports vs SSC deradixing at 6400 Gbps/mm (Optical I/O)", tech.SiIF.Scaled(2), o)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "at 6400 Gbps/mm internal bandwidth is already sufficient, so deradixing only loses area")
	return t, nil
}

// fig19 illustrates the deradixing mechanism at 300 mm / 3200 Gbps/mm:
// the worst-edge channel load against capacity for radix-256 vs radix-128
// sub-switches at each system radix.
func fig19(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig19",
		Title:   "Worst-edge load vs capacity: radix-256 vs deradixed radix-128 SSCs (300 mm, 3200 Gbps/mm)",
		Headers: []string{"SSC radix", "system ports", "max load (lanes)", "capacity (lanes)", "per-lane BW available (Gbps)", "meets 200G/port"},
	}
	chip := ssc.MustTH5(200)
	var chips []ssc.Chiplet
	for _, factor := range []int{1, 2} {
		c, err := chip.Deradix(factor)
		if err != nil {
			return nil, err
		}
		chips = append(chips, c)
	}
	// The six (radix, ports) designs fan across the pool into index slots;
	// rows are emitted serially afterwards. The pool hands out the last
	// design first: mapping radix-128 chiplets at 8192 ports is most of
	// the figure's time.
	sizes := []int{2048, 4096, 8192}
	designs := make([]*core.Design, len(chips)*len(sizes))
	errs := make([]error, len(designs))
	err := o.each("fig19", len(designs), func(i int) error {
		idx := len(designs) - 1 - i
		p := baseParams(300, tech.SiIF, tech.OpticalIO, o)
		p.Chiplet = chips[idx/len(sizes)]
		designs[idx], errs[idx] = core.Evaluate(p, sizes[idx%len(sizes)], core.NoPower)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for idx, d := range designs {
		radix, ports := chips[idx/len(sizes)].Radix, sizes[idx%len(sizes)]
		if errs[idx] != nil {
			t.AddRow(radix, ports, "-", "-", "-", fmt.Sprintf("no (%v)", errs[idx]))
			continue
		}
		if d.MaxChannelLoad == 0 {
			continue
		}
		avail := float64(d.EdgeCapacity) / float64(d.MaxChannelLoad) * 200
		t.AddRow(radix, ports, d.MaxChannelLoad, d.EdgeCapacity, avail, avail >= 200 && d.Feasible)
	}
	return t, nil
}

// fig26 compares the Clos-mapped-to-mesh design against a physically
// routed Clos at two internal bandwidth densities, plus iso-radix power.
func fig26(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig26",
		Title:   "Mapped Clos vs physical Clos (Optical I/O)",
		Headers: []string{"internal BW", "substrate (mm)", "mapped ports", "physical ports", "mapped power @iso (kW)", "physical power @iso (kW)"},
	}
	for _, w := range []tech.WSI{tech.SiIF, tech.InFOSoW} {
		for _, side := range o.substrates() {
			p := baseParams(side, w, tech.OpticalIO, o)
			mapped, err := core.MaxPorts(p, core.NoPower)
			if err != nil {
				return nil, err
			}
			pp := p
			pp.PhysicalClos = true
			phys, err := core.MaxPorts(pp, core.NoPower)
			if err != nil {
				return nil, err
			}
			iso := phys.Best.Ports
			var mIso, pIso float64
			if iso > 256 {
				md, err := core.Evaluate(p, iso, core.NoPower)
				if err != nil {
					return nil, err
				}
				pd, err := core.Evaluate(pp, iso, core.NoPower)
				if err != nil {
					return nil, err
				}
				mIso, pIso = md.Power.TotalW()/1000, pd.Power.TotalW()/1000
			}
			t.AddRow(fmt.Sprintf("%v Gbps/mm", w.BandwidthGbpsPerMM), side,
				mapped.Best.Ports, phys.Best.Ports, mIso, pIso)
		}
	}
	t.Notes = append(t.Notes, "physical Clos dedicates substrate area to point-to-point wiring, losing radix; its repeaters cost ~10% internal-I/O power at iso-radix")
	return t, nil
}

// fig27 sweeps internal bandwidth density (metal layer count) to find
// where area becomes the binding constraint.
func fig27(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig27",
		Title:   "Max ports vs internal bandwidth density (metal-layer sweep, 300 mm, Optical I/O)",
		Headers: []string{"signal layers", "density (Gbps/mm)", "max ports", "binding constraint"},
	}
	layers := []int{2, 4, 8, 16, 32}
	if o.Quick {
		layers = []int{4, 8}
	}
	for _, l := range layers {
		w := tech.SiIF.Scaled(float64(l) / 4)
		p := baseParams(300, w, tech.OpticalIO, o)
		r, err := core.MaxPorts(p, core.NoPower)
		if err != nil {
			return nil, err
		}
		constraint := "internal bandwidth"
		// If the next-larger candidate failed on area, area binds.
		for _, d := range r.Evaluated {
			if d.Ports == 2*r.Best.Ports && !d.Feasible && len(d.Reasons) > 0 {
				constraint = d.Reasons[0]
			}
		}
		t.AddRow(l, w.BandwidthGbpsPerMM, r.Best.Ports, constraint)
	}
	t.Notes = append(t.Notes, "beyond ~8 layers the wafer area (8192-port Clos needs 96 chiplets) is the bottleneck, confirming Fig 27")
	return t, nil
}

// fig28 reports the maximum ports each cooling solution sustains, after
// the heterogeneous optimization.
func fig28(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig28",
		Title:   "Max ports by cooling solution (heterogeneous design, 6400 Gbps/mm, Optical I/O)",
		Headers: []string{"substrate (mm)", "air", "water", "multiphase", "water benefit vs TH-5"},
	}
	for _, side := range o.substrates() {
		row := []interface{}{side}
		var waterPorts int
		for _, c := range []tech.Cooling{tech.AirCooling, tech.WaterCooling, tech.MultiPhaseCooling} {
			p := baseParams(side, tech.SiIF.Scaled(2), tech.OpticalIO, o)
			p.HeteroLeafRadix = 64
			p.Cooling = c
			r, err := core.MaxPorts(p, core.AllConstraints)
			if err != nil {
				return nil, err
			}
			row = append(row, r.Best.Ports)
			if c.Name == "water" {
				waterPorts = r.Best.Ports
			}
		}
		row = append(row, fmt.Sprintf("%.0fx", float64(waterPorts)/256))
		t.AddRow(row...)
	}
	return t, nil
}

// table3 compares the waferscale switch against commercial modular
// switches (paper Table III).
func table3(o Options) (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Modular switches vs waferscale switches",
		Headers: []string{"router", "space (RU)", "total BW (Tbps)", "ports (200G)", "power (kW)", "power/port (W)", "density (Tbps/RU)"},
	}
	for _, m := range sysarch.ModularSwitches {
		t.AddRow(m.Name, m.SpaceRU, m.TotalGbps/1000, m.Ports200G, m.TotalPowerW/1000,
			m.PowerPerPortW(), m.DensityGbpsPerRU()/1000)
	}
	type ws struct {
		side  float64
		ports int
		cells int
	}
	for _, w := range []ws{{300, 8192, 144}, {200, 4096, 64}} {
		p := baseParams(w.side, tech.SiIF.Scaled(2), tech.OpticalIO, o)
		p.HeteroLeafRadix = 64
		d, err := core.Evaluate(p, w.ports, core.NoPower)
		if err != nil {
			return nil, err
		}
		e, err := sysarch.Plan(w.ports, 200, d.Power.TotalW(), w.side, w.cells)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("WS (%vmm)", w.side), e.TotalRU, e.TotalGbps/1000, e.Ports,
			e.TotalPowerW/1000, e.PowerPerPortW, e.DensityGbpsPerRU/1000)
	}
	return t, nil
}

// table6 compares chiplet counts across switch construction approaches.
func table6(o Options) (*Table, error) {
	t := &Table{
		ID:      "table6",
		Title:   "Chiplets required: Clos vs hierarchical crossbar vs modular crossbar",
		Headers: []string{"network size N", "sub-switch radix k", "Clos 3(N/k)", "HC (N/k)^2", "MC (N/k)^2"},
	}
	for _, n := range []int{2048, 8192} {
		t.AddRow(n, 256, topo.ClosChiplets(n, 256),
			topo.HierarchicalCrossbarChiplets(n, 256), topo.ModularCrossbarChiplets(n, 256))
	}
	return t, nil
}
