// Package tech models the integration technologies a waferscale network
// switch is built from: the waferscale integration (WSI) substrate that
// carries inter-chiplet links, the external I/O schemes that connect the
// wafer to the outside world, and the cooling solutions that bound power
// density. The parameter values follow Tables I and IV of the paper
// "Waferscale Network Switches" (ISCA 2024); calibrated constants are
// documented where they appear.
package tech

import "fmt"

// WSI describes a chiplet-based waferscale integration technology: the
// properties of the substrate-embedded wires that connect adjacent
// chiplets (Table I of the paper).
type WSI struct {
	// Name identifies the technology (e.g. "Si-IF").
	Name string
	// BandwidthGbpsPerMM is the aggregate inter-chiplet bandwidth density
	// per mm of chiplet edge, summed over all signal layers, in Gbps/mm.
	BandwidthGbpsPerMM float64
	// SignalLayers is the number of signal metal layers the density is
	// spread over (each alternating with a power/ground layer).
	SignalLayers int
	// EnergyPJPerBit is the energy to move one bit across one
	// inter-chiplet hop, in pJ/bit.
	EnergyPJPerBit float64
	// HopLatencyNS is the latency of one inter-chiplet hop in ns.
	HopLatencyNS float64
	// WirePitchUM is the interconnect wire pitch in µm.
	WirePitchUM float64
}

// The WSI technologies studied in the paper. SiIF is the primary
// technology: 4 µm pitch, 4 signal layers at 800 Gbps/mm/layer for a
// total of 3200 Gbps/mm, and ~1 ns per hop. The per-hop energy of
// 0.45 pJ/bit (wire plus feedthrough repeater, within the 0.06-4 pJ/bit
// range of Table I) is calibrated so that the paper's total-power anchors
// in Section V hold (≈60 kW for the 8192-port design at 6400 Gbps/mm with
// a 33-44% I/O power share).
var (
	SiIF = WSI{
		Name:               "Si-IF",
		BandwidthGbpsPerMM: 3200,
		SignalLayers:       4,
		EnergyPJPerBit:     0.45,
		HopLatencyNS:       1,
		WirePitchUM:        4,
	}
	// InFOSoW is TSMC's integrated fan-out system-on-wafer: 4x the
	// bandwidth density of baseline Si-IF at much higher energy per bit
	// (Section V-A; top of the 1.5-3 pJ/bit range of Table I including
	// the repeater).
	InFOSoW = WSI{
		Name:               "InFO-SoW",
		BandwidthGbpsPerMM: 12800,
		SignalLayers:       4,
		EnergyPJPerBit:     3.0,
		HopLatencyNS:       12,
		WirePitchUM:        20,
	}
	// Interposer is a conventional silicon interposer, included for
	// completeness; its maximum size (8.5 cm^2) is far below waferscale.
	Interposer = WSI{
		Name:               "Si interposer",
		BandwidthGbpsPerMM: 1000,
		SignalLayers:       3,
		EnergyPJPerBit:     0.25,
		HopLatencyNS:       0.1,
		WirePitchUM:        4,
	}
)

// Scaled returns a copy of the technology with its internal bandwidth
// density scaled by factor via link frequency/voltage scaling, with the
// energy per bit adjusted per the Vdd model of Section V-A (see
// ScaleEnergyPerBit). Scaling Si-IF by 2 yields the paper's 6400 Gbps/mm
// operating point.
func (w WSI) Scaled(factor float64) WSI {
	if factor <= 0 {
		panic(fmt.Sprintf("tech: non-positive bandwidth scale factor %v", factor))
	}
	s := w
	s.Name = fmt.Sprintf("%s x%.3g", w.Name, factor)
	s.BandwidthGbpsPerMM = w.BandwidthGbpsPerMM * factor
	s.EnergyPJPerBit = w.EnergyPJPerBit * EnergyScale(factor)
	return s
}

// IOKind distinguishes where an external I/O technology brings signals
// off the substrate.
type IOKind int

const (
	// PeripheryIO escapes through chiplets on the substrate perimeter.
	PeripheryIO IOKind = iota
	// AreaIO escapes through through-wafer vias anywhere under the
	// substrate, onto a mezzanine PCB acting as a redistribution layer.
	AreaIO
)

func (k IOKind) String() string {
	switch k {
	case PeripheryIO:
		return "periphery"
	case AreaIO:
		return "area"
	default:
		return fmt.Sprintf("IOKind(%d)", int(k))
	}
}

// ExternalIO describes an external connectivity scheme (Table IV).
type ExternalIO struct {
	Name string
	Kind IOKind
	// EdgeGbpsPerMM is the escape bandwidth per mm of usable substrate
	// perimeter per layer (periphery schemes only).
	EdgeGbpsPerMM float64
	// Layers is the number of escape layers (periphery schemes only).
	Layers int
	// AreaGbpsPerMM2 is the escape bandwidth per mm^2 of substrate (area
	// schemes only).
	AreaGbpsPerMM2 float64
	// EnergyPJPerBit is the external link energy in pJ/bit.
	EnergyPJPerBit float64
	// UsablePerimeterFraction is the fraction of the substrate's 4L
	// perimeter that can actually be used for escape. Electrical SerDes
	// escapes need board-level routing space at the wafer edge alongside
	// power delivery and cooling manifolds; prior waferscale systems
	// escape on one edge only, so SerDes uses 0.25. Optical fibers are
	// flexible and can exit anywhere, so Optical I/O uses 1.0.
	UsablePerimeterFraction float64
}

// The external I/O technologies of Table IV.
var (
	SerDes = ExternalIO{
		Name:                    "SerDes",
		Kind:                    PeripheryIO,
		EdgeGbpsPerMM:           512,
		Layers:                  1,
		EnergyPJPerBit:          8.0,
		UsablePerimeterFraction: 0.25,
	}
	OpticalIO = ExternalIO{
		Name:                    "Optical I/O",
		Kind:                    PeripheryIO,
		EdgeGbpsPerMM:           800,
		Layers:                  4,
		EnergyPJPerBit:          5.0,
		UsablePerimeterFraction: 1.0,
	}
	AreaIOTech = ExternalIO{
		Name:           "Area I/O",
		Kind:           AreaIO,
		AreaGbpsPerMM2: 16,
		EnergyPJPerBit: 8.0,
	}
)

// MaxBandwidthGbps returns the total external bandwidth the scheme can
// escape from a square substrate with the given side length in mm.
func (e ExternalIO) MaxBandwidthGbps(substrateSideMM float64) float64 {
	switch e.Kind {
	case PeripheryIO:
		perimeter := 4 * substrateSideMM * e.UsablePerimeterFraction
		return perimeter * e.EdgeGbpsPerMM * float64(e.Layers)
	case AreaIO:
		return substrateSideMM * substrateSideMM * e.AreaGbpsPerMM2
	default:
		return 0
	}
}

// Cooling bounds the sustainable power density of the wafer assembly.
type Cooling struct {
	Name string
	// MaxWPerMM2 is the maximum sustainable power density in W/mm^2.
	MaxWPerMM2 float64
}

// Cooling envelopes used in Figs 16 and 28. Water cooling sustains
// 0.5 W/mm^2 (Section VIII, matching Cerebras WSE-2 practice); the air
// and multiphase values are calibrated within the ranges of the cited
// surveys so that the paper's radix-vs-cooling results hold.
var (
	AirCooling        = Cooling{Name: "air", MaxWPerMM2: 0.20}
	WaterCooling      = Cooling{Name: "water", MaxWPerMM2: 0.50}
	MultiPhaseCooling = Cooling{Name: "multiphase", MaxWPerMM2: 1.50}
	NoCoolingLimit    = Cooling{Name: "unlimited", MaxWPerMM2: 1e12}
)
