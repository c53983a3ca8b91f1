// Package power computes the power breakdown of a mapped waferscale
// network switch: sub-switch chiplet (SSC) switching-core power, internal
// inter-chiplet I/O power (every physical hop of every logical lane,
// including periphery escape paths, re-driven by feedthrough repeaters),
// and external I/O conversion power. This reproduces the breakdowns of
// Figs 10, 11 and 13 of the paper.
package power

import (
	"waferswitch/internal/mapping"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
)

// Breakdown is the switch power split by component, in watts.
type Breakdown struct {
	// SSCLogicW is the switching-core (non-I/O) power of all chiplets.
	SSCLogicW float64
	// InternalIOW is the power of all inter-chiplet links: lane-hops x
	// line rate x substrate energy per bit.
	InternalIOW float64
	// ExternalIOW is the external conversion power: external ports x line
	// rate x external-scheme energy per bit.
	ExternalIOW float64
}

// TotalW is the total switch power.
func (b Breakdown) TotalW() float64 {
	return b.SSCLogicW + b.InternalIOW + b.ExternalIOW
}

// IOShare is the fraction of total power spent on internal plus external
// I/O (the paper reports 33-43.8% for the 6400 Gbps/mm design point).
func (b Breakdown) IOShare() float64 {
	t := b.TotalW()
	if t == 0 {
		return 0
	}
	return (b.InternalIOW + b.ExternalIOW) / t
}

// Compute returns the power breakdown of topology t mapped by placement p
// (which must belong to an equivalent topology with the same lane
// structure; for the heterogeneous design the mapping is done on the
// homogeneous equivalent, see core). Links are driven at line rate, so
// power is load-independent, matching the nameplate powers the paper
// compares. Pass a placement of nil to account only chiplet and external
// power (used by area-I/O designs before mapping, and by tests).
func Compute(t *topo.Topology, p *mapping.Placement, wsi tech.WSI, ext tech.ExternalIO) Breakdown {
	var b Breakdown
	for _, n := range t.Nodes {
		b.SSCLogicW += n.Chiplet.NonIOPowerW()
	}
	if p != nil {
		// Gbps * pJ/bit = 1e9 b/s * 1e-12 J/b = 1e-3 W.
		b.InternalIOW = float64(p.TotalLaneHops()) * t.PortGbps * wsi.EnergyPJPerBit * 1e-3
	}
	b.ExternalIOW = float64(t.ExternalPorts()) * t.PortGbps * ext.EnergyPJPerBit * 1e-3
	return b
}
