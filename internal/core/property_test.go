package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"waferswitch/internal/ssc"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
	"waferswitch/internal/wafer"
)

// Feasibility must be monotone in substrate size: whatever fits on a
// smaller wafer fits on a bigger one.
func TestMaxPortsMonotoneInSubstrate(t *testing.T) {
	prev := 0
	for _, side := range []float64{100, 200, 300} {
		d := maxPorts(t, params(side, tech.SiIF, tech.OpticalIO), NoPower)
		if d.Ports < prev {
			t.Errorf("max ports dropped from %d to %d when growing substrate to %vmm", prev, d.Ports, side)
		}
		prev = d.Ports
	}
}

// Feasibility must be monotone in internal bandwidth density.
func TestMaxPortsMonotoneInBandwidth(t *testing.T) {
	prev := 0
	for _, scale := range []float64{1, 2, 4} {
		d := maxPorts(t, params(300, tech.SiIF.Scaled(scale), tech.OpticalIO), NoPower)
		if d.Ports < prev {
			t.Errorf("max ports dropped to %d at %gx internal bandwidth", d.Ports, scale)
		}
		prev = d.Ports
	}
}

// Relaxing constraints can only allow larger (or equal) designs.
func TestConstraintsMonotone(t *testing.T) {
	p := params(300, tech.SiIF, tech.OpticalIO)
	p.Cooling = tech.AirCooling
	all := maxPorts(t, p, AllConstraints)
	noPower := maxPorts(t, p, NoPower)
	areaOnly := maxPorts(t, p, AreaOnly)
	if !(all.Ports <= noPower.Ports && noPower.Ports <= areaOnly.Ports) {
		t.Errorf("constraint relaxation not monotone: all=%d noPower=%d areaOnly=%d",
			all.Ports, noPower.Ports, areaOnly.Ports)
	}
}

// More placement restarts can only improve (or preserve) the feasible
// radix now that restarts are ranked by post-escape load.
func TestRestartsMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-restart search in short mode")
	}
	p := params(300, tech.SiIF, tech.OpticalIO)
	p.MapRestarts = 1
	one := maxPorts(t, p, NoPower)
	p.MapRestarts = 4
	four := maxPorts(t, p, NoPower)
	if four.Ports < one.Ports {
		t.Errorf("4 restarts found %d ports, 1 restart found %d", four.Ports, one.Ports)
	}
}

// Every evaluated design must carry a reason when infeasible and none
// when feasible, across a spread of random parameter points.
func TestEvaluateReasonsProperty(t *testing.T) {
	chip := ssc.MustTH5(200)
	f := func(rawSide, rawPorts uint8) bool {
		side := []float64{100, 150, 200, 250, 300}[rawSide%5]
		ports := 512 << (rawPorts % 4)
		p := Params{
			Substrate:   wafer.Substrate{SideMM: side},
			WSI:         tech.SiIF,
			ExternalIO:  tech.OpticalIO,
			Chiplet:     chip,
			MapRestarts: 1,
			Seed:        1,
		}
		d, err := Evaluate(p, ports, NoPower)
		if err != nil {
			return false
		}
		if d.Feasible != (len(d.Reasons) == 0) {
			return false
		}
		// Power components are always non-negative and consistent.
		b := d.Power
		return b.SSCLogicW >= 0 && b.InternalIOW >= 0 && b.ExternalIOW >= 0 &&
			d.PowerDensity >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// EvaluateTopology with an identity mesh placement: a native mesh never
// violates the internal constraint (all links are single-hop and
// per-neighbor lanes are far below edge capacity).
func TestEvaluateTopologyIdentityMesh(t *testing.T) {
	chip := ssc.MustTH5(200)
	m, err := topo.BalancedMesh(4, 4, chip)
	if err != nil {
		t.Fatal(err)
	}
	p := params(300, tech.SiIF, tech.AreaIOTech)
	d, err := EvaluateTopology(p, m, m, true, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatalf("identity mesh infeasible: %v", d.Reasons)
	}
	if d.MaxChannelLoad != chip.Radix/8 {
		t.Errorf("identity mesh max load = %d, want %d (lanes per neighbor)", d.MaxChannelLoad, chip.Radix/8)
	}
}

// The heterogeneous design never has more total chiplet area or more
// power than the homogeneous design of the same radix.
func TestHeteroNeverWorse(t *testing.T) {
	for _, ports := range []int{2048, 8192} {
		p := params(300, tech.SiIF.Scaled(2), tech.OpticalIO)
		homo, err := Evaluate(p, ports, NoPower)
		if err != nil {
			t.Fatal(err)
		}
		p.HeteroLeafRadix = 64
		het, err := Evaluate(p, ports, NoPower)
		if err != nil {
			t.Fatal(err)
		}
		if het.Power.TotalW() >= homo.Power.TotalW() {
			t.Errorf("%d ports: hetero power %v not below homogeneous %v", ports, het.Power.TotalW(), homo.Power.TotalW())
		}
		// Leaf silicon area scales linearly with switching bandwidth, so
		// disaggregation conserves total area exactly.
		if het.Topology.TotalChipAreaMM2() > homo.Topology.TotalChipAreaMM2() {
			t.Errorf("%d ports: hetero area above homogeneous", ports)
		}
	}
}

// The solver's metamorphic relations, over substrate sides 100-300 mm,
// the three external I/O schemes, three WSI technologies in ascending
// bandwidth (Si-IF, Si-IF at twice its bandwidth, InFO-SoW) and 1 and 3
// placement restarts:
//   - relaxing constraints never loses ports: AreaOnly >= NoPower >=
//     AllConstraints under water cooling;
//   - none of the three loses ports as the substrate grows;
//   - under NoPower, a physically routed Clos never beats the mapped one
//     (Fig 26), and more WSI bandwidth never loses ports;
//   - 3 restarts never find fewer ports than 1 under NoPower: restart i
//     uses seed Seed+i, so the budgets nest.
func TestMaxPortsMetamorphic(t *testing.T) {
	sides := []float64{100, 150, 200, 250, 300}
	ios := []tech.ExternalIO{tech.SerDes, tech.OpticalIO, tech.AreaIOTech}
	wsis := []tech.WSI{tech.SiIF, tech.SiIF.Scaled(2), tech.InFOSoW}
	conss := []Constraints{AreaOnly, NoPower, AllConstraints}
	consNames := []string{"AreaOnly", "NoPower", "AllConstraints"}
	const noPower = 1
	type point struct {
		side, io, wsi, restarts, cons int // indices, except restarts
		physical                      bool
	}
	name := func(k point) string {
		s := fmt.Sprintf("%gmm %s %s, %d restarts, %s", sides[k.side], ios[k.io].Name, wsis[k.wsi].Name, k.restarts, consNames[k.cons])
		if k.physical {
			s += ", physical Clos"
		}
		return s
	}
	ports := func(k point) int {
		p := params(sides[k.side], wsis[k.wsi], ios[k.io])
		p.Cooling = tech.WaterCooling
		p.MapRestarts = k.restarts
		p.PhysicalClos = k.physical
		return maxPorts(t, p, conss[k.cons]).Ports
	}
	// atLeast fails t unless the design at hi has at least the ports of
	// the one at lo.
	atLeast := func(hi, lo point) {
		if a, b := ports(hi), ports(lo); a < b {
			t.Errorf("%s: %d ports, fewer than the %d of %s", name(hi), a, b, name(lo))
		}
	}
	for side := range sides {
		for io := range ios {
			for wsi := range wsis {
				for _, restarts := range []int{1, 3} {
					k := point{side: side, io: io, wsi: wsi, restarts: restarts}
					for cons := range conss {
						k.cons = cons
						if cons > 0 {
							atLeast(point{side, io, wsi, restarts, cons - 1, false}, k)
						}
						if side > 0 {
							atLeast(k, point{side - 1, io, wsi, restarts, cons, false})
						}
					}
					k.cons = noPower
					atLeast(k, point{side, io, wsi, restarts, noPower, true})
					if wsi > 0 {
						atLeast(k, point{side, io, wsi - 1, restarts, noPower, false})
					}
					if restarts == 3 {
						atLeast(k, point{side, io, wsi, 1, noPower, false})
					}
				}
			}
		}
	}
}
