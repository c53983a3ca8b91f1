package expt

import (
	"fmt"

	"waferswitch/internal/core"
	"waferswitch/internal/ssc"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
	"waferswitch/internal/wafer"
)

func init() {
	register("fig25", fig25)
}

// topoBuilder constructs the largest instance of one topology family that
// fits within maxChiplets chiplets of the given class, or an error if
// none fits. directMaxPorts shrinks the budget by 3/4 each time the
// instance is infeasible under the constraints.
type topoBuilder struct {
	name string
	// identity marks topologies whose native layout is the wafer mesh.
	identity bool
	build    func(maxChiplets int, chip ssc.Chiplet) (*topo.Topology, error)
}

var directFamilies = []topoBuilder{
	{
		name:     "mesh",
		identity: true,
		build: func(maxChiplets int, chip ssc.Chiplet) (*topo.Topology, error) {
			rows, cols := inscribedGrid(maxChiplets)
			return topo.BalancedMesh(rows, cols, chip)
		},
	},
	{
		name: "butterfly",
		build: func(maxChiplets int, chip ssc.Chiplet) (*topo.Topology, error) {
			stage2 := chip.Radix / 4 // 3:1 oversubscription
			stage1 := maxChiplets - stage2
			if stage1 > chip.Radix {
				stage1 = chip.Radix
			}
			return topo.Butterfly2(stage1, chip, 3)
		},
	},
	{
		name: "flatbutterfly",
		build: func(maxChiplets int, chip ssc.Chiplet) (*topo.Topology, error) {
			rows, cols := inscribedGrid(maxChiplets)
			return topo.FlattenedButterfly(rows, cols, chip)
		},
	},
	{
		name: "dragonfly",
		build: func(maxChiplets int, chip ssc.Chiplet) (*topo.Topology, error) {
			return topo.BalancedDragonfly(maxChiplets, chip)
		},
	},
}

// fig25 compares the maximum 200G ports across topology families in three
// regimes: (a) area-only ("ideal"), (b) all constraints at the baseline
// 3200 Gbps/mm with water cooling, (c) constraints with the optimizations
// applied (6400 Gbps/mm Vdd-scaled links, deradixing for every family,
// heterogeneous leaves for Clos).
func fig25(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig25",
		Title:   "Max 200G ports by topology: ideal / constrained / optimized (300 mm, Optical I/O)",
		Headers: []string{"topology", "(a) ideal", "(b) constrained", "(c) optimized", "ideal benefit vs TH-5"},
	}
	const side = 300
	sub := wafer.Substrate{SideMM: side}
	chip := ssc.MustTH5(200)
	sites := sub.MaxSites(chip.AreaMM2)

	// Each row, Clos via the core solver or a direct family, needs four
	// independent searches: ideal, constrained, and optimized at deradix
	// 1 and 2. The 5x4 searches fan across the pool into index slots;
	// rows are emitted serially afterwards.
	const searches = 4
	ports := make([]int, (1+len(directFamilies))*searches)
	err := o.each("fig25", len(ports), func(idx int) error {
		row, search := idx/searches, idx%searches
		// Search 0 is area-only. Search 1 applies every constraint with
		// water cooling. Searches 2 and 3 add Vdd-scaled links and
		// deradix by 1 and 2.
		c, w, cons, cooling := chip, tech.SiIF, core.AllConstraints, tech.WaterCooling
		if search == 0 {
			cons, cooling = core.AreaOnly, tech.NoCoolingLimit
		}
		if search >= 2 {
			var err error
			if c, err = chip.Deradix(search - 1); err != nil {
				return err
			}
			w = tech.SiIF.Scaled(2)
		}
		if row > 0 {
			v, err := directMaxPorts(directFamilies[row-1], c, sites, side, w, cons, cooling, o)
			ports[idx] = v
			return err
		}
		// The Clos row uses heterogeneous leaves when optimized.
		p := baseParams(side, w, tech.OpticalIO, o)
		p.Chiplet, p.Cooling = c, cooling
		if search >= 2 {
			p.HeteroLeafRadix = c.Radix / 4
		}
		r, err := core.MaxPorts(p, cons)
		if err != nil {
			return err
		}
		ports[idx] = r.Best.Ports
		return nil
	})
	if err != nil {
		return nil, err
	}
	for row := 0; row <= len(directFamilies); row++ {
		name := "clos"
		if row > 0 {
			name = directFamilies[row-1].name
		}
		v := ports[row*searches : (row+1)*searches]
		t.AddRow(name, v[0], v[1], max(v[2], v[3]), fmt.Sprintf("%.0fx", float64(v[0])/256))
	}
	t.Notes = append(t.Notes,
		"paper (ideal): butterfly 44x, dragonfly 31x, flattened butterfly 19x, mesh 44x vs TH-5; our sizing conventions differ (see DESIGN.md) but preserve the ordering",
		"direct topologies lose most under constraints: their external-port demand per chiplet is higher")
	return t, nil
}

// inscribedGrid returns the largest near-square rows x cols grid with
// rows*cols <= n.
func inscribedGrid(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		rows = r
	}
	cols = n / rows
	return rows, cols
}

// directMaxPorts searches chiplet budgets downward for the largest
// feasible instance of a direct-topology family.
func directMaxPorts(fam topoBuilder, chip ssc.Chiplet, sites int, side float64, w tech.WSI, cons core.Constraints, cooling tech.Cooling, o Options) (int, error) {
	for budget := sites; budget >= 4; budget = budget * 3 / 4 {
		tp, err := fam.build(budget, chip)
		if err != nil {
			continue
		}
		p := core.Params{
			Substrate:   wafer.Substrate{SideMM: side},
			WSI:         w,
			ExternalIO:  tech.OpticalIO,
			Chiplet:     chip,
			Cooling:     cooling,
			MapRestarts: o.restarts(),
			Seed:        o.seed(),
		}
		d, err := core.EvaluateTopology(p, tp, tp, fam.identity, cons)
		if err != nil {
			continue
		}
		if d.Feasible {
			return d.Ports, nil
		}
	}
	return chip.Radix, nil // single chip fallback
}
