// Package core implements the paper's design-space methodology: given a
// substrate size, a WSI interconnect technology, an external I/O scheme,
// a sub-switch chiplet and a cooling envelope, it determines the maximum
// feasible radix of a waferscale network switch and the feasibility
// breakdown of every candidate design (Sections IV and V of the paper).
//
// A candidate design is a 2-level folded Clos of sub-switch chiplets
// mapped onto the wafer's physical chiplet mesh. Feasibility requires:
//
//   - Area: chiplets plus external-I/O chiplets (plus dedicated wiring for
//     physical-Clos designs) fit on the substrate.
//   - Internal bandwidth: after pairwise-exchange placement optimization
//     and dimension-order routing (including periphery escape paths), no
//     inter-chiplet edge carries more lanes than its shoreline supports.
//   - External bandwidth: the external I/O scheme can escape the switch's
//     full port bandwidth.
//   - Power density: total power over substrate area stays within the
//     cooling envelope.
package core

import (
	"fmt"
	"math"

	"waferswitch/internal/mapping"
	"waferswitch/internal/power"
	"waferswitch/internal/ssc"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
	"waferswitch/internal/wafer"
)

// Constraints selects which feasibility checks apply. The zero value
// checks nothing; use AllConstraints or AreaOnly for the common cases.
type Constraints struct {
	Area     bool
	Internal bool
	External bool
	Power    bool
}

// AllConstraints applies every feasibility check.
var AllConstraints = Constraints{Area: true, Internal: true, External: true, Power: true}

// AreaOnly is the paper's "ideal case" (Fig 6): substrate area is the
// only constraint.
var AreaOnly = Constraints{Area: true}

// NoPower applies everything but the cooling envelope, matching Figs 7, 9
// and 12 (the paper defers power-density limits to Figs 16 and 28).
var NoPower = Constraints{Area: true, Internal: true, External: true}

// Params describes one point in the design space.
type Params struct {
	Substrate  wafer.Substrate
	WSI        tech.WSI
	ExternalIO tech.ExternalIO
	// Chiplet is the sub-switch chiplet used for spines, and for leaves
	// unless HeteroLeafRadix is set.
	Chiplet ssc.Chiplet
	// HeteroLeafRadix, when non-zero, enables the heterogeneous design of
	// Section V-B: leaves become scaled dies of this radix.
	HeteroLeafRadix int
	// Cooling bounds power density when Constraints.Power is set.
	Cooling tech.Cooling
	// PhysicalClos switches from Clos-mapped-to-mesh to a physically
	// routed Clos whose dedicated point-to-point wiring consumes
	// substrate area and pays a repeater power overhead (Fig 26).
	PhysicalClos bool
	// MapRestarts is the number of random restarts for the placement
	// optimizer. Zero means 3. The paper uses 1000 and reports <1%
	// spread. 3 does not reproduce every verdict here: run at 1000, 12
	// of the 18 design-space tables fig6-13, fig16-19, fig25-28, table3
	// and table6 moved, and three verdicts flipped (fig7's Optical I/O
	// and fig17's radix-256 SSCs reach 4096 ports at 3200 Gbps/mm, and
	// fig19's radix-256 SSCs meet 200 Gb/s per port at 4096 ports;
	// ROADMAP.md item 18).
	MapRestarts int
	// Seed makes the whole evaluation deterministic.
	Seed int64
}

func (p Params) restarts() int {
	if p.MapRestarts <= 0 {
		return 3
	}
	return p.MapRestarts
}

// physicalClosEnergyOverhead is the internal-I/O energy penalty of a
// physically routed Clos relative to the mapped Clos: dedicated long
// wires cannot share the feedthrough repeaters, costing ~10% (Fig 26c).
const physicalClosEnergyOverhead = 1.10

// Design is the evaluation of one candidate port count.
type Design struct {
	Params Params
	Ports  int
	// Topology is the actual logical topology (heterogeneous when
	// configured); it is nil for the single-chip fallback.
	Topology *topo.Topology
	// Placement maps the homogeneous equivalent of Topology onto the
	// chiplet grid (nil when the internal constraint was not evaluated).
	Placement *mapping.Placement
	// GridRows and GridCols give the chiplet-array shape used.
	GridRows, GridCols int

	Power          power.Breakdown
	PowerDensity   float64 // W/mm^2 over the substrate
	MaxChannelLoad int     // lanes on the most loaded inter-chiplet edge
	EdgeCapacity   int     // lane capacity of one inter-chiplet edge
	ChipAreaMM2    float64 // chiplets + I/O chiplets (+ wiring if physical)
	WiringAreaMM2  float64 // physical-Clos dedicated wiring area
	IOChiplets     int

	Feasible bool
	// Reasons lists the constraints the design violates (empty when
	// feasible).
	Reasons []string
}

// SingleChip reports whether the design degenerated to a single
// sub-switch chiplet (no waferscale integration benefit).
func (d *Design) SingleChip() bool { return d.Topology == nil }

// FeedthroughShare is the fraction of a chiplet's inter-chiplet I/O
// shoreline available to mapped logical lanes and escape paths. The
// remainder is reserved for clocking, control, lane repair and the
// repeater overheads of the feedthrough scheme ("a subset of the
// inter-chiplet I/Os", Section III-C).
const FeedthroughShare = 0.90

// EdgeCapacityLanes returns how many bidirectional lanes of the given
// line rate one inter-chiplet edge supports: shoreline length times the
// WSI bandwidth density, derated by FeedthroughShare.
func EdgeCapacityLanes(w tech.WSI, tileSideMM, portGbps float64) int {
	return int(w.BandwidthGbpsPerMM * tileSideMM * FeedthroughShare / portGbps)
}

// Evaluate builds and checks one candidate Clos design with the given
// port count under the given constraints.
func Evaluate(p Params, ports int, cons Constraints) (*Design, error) {
	actual, err := buildTopology(p, ports)
	if err != nil {
		return nil, err
	}
	// The mapping always runs on the homogeneous equivalent: the
	// heterogeneous design co-locates each group of disaggregated leaves
	// on the tile their full-radix ancestor occupied, so the aggregate
	// lane structure between tiles is identical (Section V-B notes only a
	// ~1% hop-latency effect).
	equiv := actual
	if p.HeteroLeafRadix > 0 {
		equiv, err = topo.HomogeneousClos(ports, p.Chiplet)
		if err != nil {
			return nil, err
		}
	}
	return EvaluateTopology(p, actual, equiv, false, cons)
}

// EvaluateTopology checks an arbitrary pre-built logical topology against
// the constraints. actual carries the chiplets whose area and power
// count; equiv (usually the same topology) is what gets placed on the
// chiplet grid. identityPlacement places node i at grid cell i without
// optimization — correct for native mesh topologies, whose layout is the
// wafer itself.
func EvaluateTopology(p Params, actual, equiv *topo.Topology, identityPlacement bool, cons Constraints) (*Design, error) {
	ports := actual.ExternalPorts()
	d := &Design{Params: p, Ports: ports, Feasible: true}
	d.Topology = actual

	tileSide := p.Chiplet.SideMM()
	d.EdgeCapacity = EdgeCapacityLanes(p.WSI, tileSide, p.Chiplet.PortGbps)
	d.GridRows, d.GridCols = topo.NearSquare(len(equiv.Nodes))

	externalGbps := float64(ports) * p.Chiplet.PortGbps
	if p.ExternalIO.Kind == tech.PeripheryIO {
		d.IOChiplets = wafer.IOChiplets(externalGbps, tileSide, p.ExternalIO.EdgeGbpsPerMM, p.ExternalIO.Layers)
	}

	// --- Area ---
	d.ChipAreaMM2 = actual.TotalChipAreaMM2() + float64(d.IOChiplets)*wafer.IOChipletAreaMM2

	// --- Internal bandwidth (mapping) ---
	needMapping := cons.Internal || cons.Power || p.PhysicalClos
	if needMapping {
		pl, err := d.placeAndEscape(p, equiv, identityPlacement)
		if err != nil {
			return nil, err
		}
		d.Placement = pl
		d.MaxChannelLoad = pl.MaxLoad()
		// The cross-section between adjacent tiles bounds both mapped
		// feedthrough lanes and a physical Clos's dedicated wires; the
		// physical Clos additionally pays wiring area.
		if cons.Internal && d.MaxChannelLoad > d.EdgeCapacity {
			d.fail(fmt.Sprintf("internal: max channel load %d lanes exceeds edge capacity %d", d.MaxChannelLoad, d.EdgeCapacity))
		}
		if p.PhysicalClos {
			d.WiringAreaMM2 = wiringArea(pl, tileSide, p.Chiplet.PortGbps, p.WSI)
			d.ChipAreaMM2 += d.WiringAreaMM2
		}
	}

	if cons.Area && !p.Substrate.FitsArea(d.ChipAreaMM2) {
		d.fail(fmt.Sprintf("area: %.0f mm^2 of silicon%s on %.0f mm^2 substrate",
			d.ChipAreaMM2, wiringNote(d), p.Substrate.AreaMM2()))
	}

	// --- External bandwidth ---
	if cons.External {
		if maxExt := p.ExternalIO.MaxBandwidthGbps(p.Substrate.SideMM); externalGbps > maxExt {
			d.fail(fmt.Sprintf("external: %.0f Gbps needed, %s provides %.0f Gbps", externalGbps, p.ExternalIO.Name, maxExt))
		}
	}

	// --- Power ---
	d.Power = power.Compute(actual, d.Placement, p.WSI, p.ExternalIO)
	if p.PhysicalClos {
		d.Power.InternalIOW *= physicalClosEnergyOverhead
	}
	d.PowerDensity = p.Substrate.PowerDensityWPerMM2(d.Power.TotalW())
	if cons.Power {
		cooling := p.Cooling
		if cooling.Name == "" {
			cooling = tech.NoCoolingLimit
		}
		if d.PowerDensity > cooling.MaxWPerMM2 {
			d.fail(fmt.Sprintf("power: %.2f W/mm^2 exceeds %s cooling limit %.2f W/mm^2",
				d.PowerDensity, cooling.Name, cooling.MaxWPerMM2))
		}
	}
	return d, nil
}

// placeAndEscape maps the topology onto the chiplet grid and routes the
// periphery external escape paths. Restarts are selected by the final
// (post-escape) bottleneck load, not the internal-only load: a placement
// with slightly worse Clos congestion can still win once escape paths are
// accounted for, and selecting on the final metric keeps feasibility
// monotone in the restart budget. Escape-capacity shortfalls are recorded
// as external-constraint failures on d. Restart i is Algorithm 1 from
// seed p.Seed+i, which mapping.Optimized computes once per process.
func (d *Design) placeAndEscape(p Params, equiv *topo.Topology, identityPlacement bool) (*mapping.Placement, error) {
	escape := func(pl *mapping.Placement) error {
		if p.ExternalIO.Kind != tech.PeripheryIO {
			return nil
		}
		escapeLanes := int(p.ExternalIO.MaxBandwidthGbps(p.Substrate.SideMM) / p.Chiplet.PortGbps)
		caps := mapping.SpreadEscape(escapeLanes, len(pl.BoundaryCells()), d.EdgeCapacity)
		return pl.RouteExternal(caps)
	}
	if identityPlacement {
		positions := make([]int, len(equiv.Nodes))
		for i := range positions {
			positions[i] = i
		}
		pl, err := mapping.NewWithPositions(equiv, d.GridRows, d.GridCols, positions)
		if err != nil {
			return nil, err
		}
		if err := escape(pl); err != nil {
			d.fail("external: " + err.Error())
		}
		return pl, nil
	}
	var best *mapping.Placement
	for i := 0; i < p.restarts(); i++ {
		pl, err := mapping.Optimized(equiv, d.GridRows, d.GridCols, p.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		if err := escape(pl); err != nil {
			// Escape capacity is placement-independent (totals only), so
			// one failure fails them all.
			d.fail("external: " + err.Error())
			return pl, nil
		}
		if best == nil || pl.MaxLoad() < best.MaxLoad() {
			best = pl
		}
	}
	return best, nil
}

func wiringNote(d *Design) string {
	if d.WiringAreaMM2 > 0 {
		return fmt.Sprintf(" (%.0f mm^2 wiring)", d.WiringAreaMM2)
	}
	return ""
}

func (d *Design) fail(reason string) {
	d.Feasible = false
	d.Reasons = append(d.Reasons, reason)
}

// buildTopology constructs the candidate logical topology for the params.
func buildTopology(p Params, ports int) (*topo.Topology, error) {
	if p.HeteroLeafRadix > 0 {
		return topo.HeterogeneousClos(ports, p.Chiplet, p.HeteroLeafRadix)
	}
	return topo.HomogeneousClos(ports, p.Chiplet)
}

// wiringArea estimates the substrate area consumed by dedicated
// point-to-point wiring for a physical Clos: every lane-hop occupies one
// tile length of wire at a cross-section width of portGbps over the WSI
// bandwidth density.
func wiringArea(pl *mapping.Placement, tileSideMM, portGbps float64, w tech.WSI) float64 {
	laneWidthMM := portGbps / w.BandwidthGbpsPerMM
	return float64(pl.TotalLaneHops()) * tileSideMM * laneWidthMM
}

// CandidatePorts lists the port counts explored for a chiplet: powers of
// two from twice the chiplet radix up to the largest 2-level Clos the
// chiplet can form (k^2/2).
func CandidatePorts(chip ssc.Chiplet) []int {
	var out []int
	maxN := chip.Radix * chip.Radix / 2
	for n := 2 * chip.Radix; n <= maxN; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Result is the outcome of a MaxPorts search.
type Result struct {
	// Best is the largest feasible design; it is a single-chip fallback
	// (Design.SingleChip() == true, Ports == chiplet radix) when no
	// waferscale design is feasible.
	Best *Design
	// Evaluated holds every candidate evaluated, descending in port count
	// (useful for reporting why larger designs failed).
	Evaluated []*Design
}

// MaxPorts finds the largest feasible port count for the given design
// parameters under the given constraints, evaluating candidates in
// descending order.
func MaxPorts(p Params, cons Constraints) (*Result, error) {
	cands := CandidatePorts(p.Chiplet)
	res := &Result{}
	for i := len(cands) - 1; i >= 0; i-- {
		ports := cands[i]
		// Cheap area prefilter: skip mapping designs that cannot possibly
		// fit (chiplet area alone exceeds the substrate).
		minArea := float64(topo.ClosChiplets(ports, p.Chiplet.Radix)) * minChipArea(p)
		if cons.Area && minArea > p.Substrate.AreaMM2() {
			d := &Design{Params: p, Ports: ports}
			d.fail(fmt.Sprintf("area: at least %.0f mm^2 of chiplets on %.0f mm^2 substrate", minArea, p.Substrate.AreaMM2()))
			res.Evaluated = append(res.Evaluated, d)
			continue
		}
		d, err := Evaluate(p, ports, cons)
		if err != nil {
			// Candidates the chiplets cannot even form a Clos for (e.g. a
			// heterogeneous design whose leaves cannot reach every spine)
			// are infeasible by construction, not fatal.
			d = &Design{Params: p, Ports: ports}
			d.fail("construction: " + err.Error())
		}
		res.Evaluated = append(res.Evaluated, d)
		if d.Feasible {
			res.Best = d
			return res, nil
		}
	}
	// No waferscale design is feasible: fall back to a single chiplet.
	single := &Design{Params: p, Ports: p.Chiplet.Radix, Feasible: true}
	single.Power = power.Breakdown{
		SSCLogicW:   p.Chiplet.NonIOPowerW(),
		ExternalIOW: float64(p.Chiplet.Radix) * p.Chiplet.PortGbps * p.ExternalIO.EnergyPJPerBit * 1e-3,
	}
	single.PowerDensity = p.Substrate.PowerDensityWPerMM2(single.Power.TotalW())
	res.Best = single
	return res, nil
}

// minChipArea returns the smallest possible per-chiplet area of a design
// (the leaf area for heterogeneous designs, used only as a prefilter
// lower bound).
func minChipArea(p Params) float64 {
	if p.HeteroLeafRadix > 0 {
		leaf, err := ssc.ScaledLeaf(p.HeteroLeafRadix, p.Chiplet.PortGbps)
		if err == nil {
			return math.Min(leaf.AreaMM2, p.Chiplet.AreaMM2)
		}
	}
	return p.Chiplet.AreaMM2
}
