// Package wafer models the waferscale substrate: a square interconnect
// substrate onto which pre-tested sub-switch chiplets and external-I/O
// chiplets are bonded. Following the paper, the substrate is
// characterized by its side length (100-300 mm); chiplets occupy
// area-proportional sites and the substrate perimeter provides escape
// shoreline for periphery external I/O.
package wafer

import (
	"fmt"
	"math"
)

// Substrate is a square waferscale interconnect substrate.
type Substrate struct {
	// SideMM is the substrate side length in mm. The paper studies square
	// substrates of 100-300 mm ("300mm corresponds to a square with a
	// side of 300mm").
	SideMM float64
}

// StandardSides are the substrate sizes swept in the paper's figures.
var StandardSides = []float64{100, 150, 200, 250, 300}

// AreaMM2 is the substrate area in mm^2.
func (s Substrate) AreaMM2() float64 { return s.SideMM * s.SideMM }

// MaxSites is the number of chiplets of the given area that fit on the
// substrate by area division. The paper uses area division rather than
// strict rectangular tiling (its 100 mm ideal configuration needs 12
// sites of 800 mm^2; see DESIGN.md "Known deviations").
func (s Substrate) MaxSites(chipAreaMM2 float64) int {
	if chipAreaMM2 <= 0 {
		return 0
	}
	return int(s.AreaMM2() / chipAreaMM2)
}

// FitsArea reports whether the given total chiplet area fits on the
// substrate.
func (s Substrate) FitsArea(totalChipAreaMM2 float64) bool {
	return totalChipAreaMM2 <= s.AreaMM2()
}

// PowerDensityWPerMM2 converts a total power draw into the substrate's
// areal power density.
func (s Substrate) PowerDensityWPerMM2(totalPowerW float64) float64 {
	return totalPowerW / s.AreaMM2()
}

// String implements fmt.Stringer.
func (s Substrate) String() string { return fmt.Sprintf("%vmm substrate", s.SideMM) }

// IOChipletAreaMM2 is the die area of one external-I/O chiplet (an O/E/O
// transceiver die or a SerDes escape die): an eighth of the reference SSC
// tile, matching the small grey I/O chiplets of Fig 8.
const IOChipletAreaMM2 = 100

// IOChiplets returns the number of external-I/O chiplets needed to escape
// the given external bandwidth with periphery I/O, assuming each I/O
// chiplet provides one reference-tile side (tileSideMM) of shoreline at
// the scheme's escape density (edgeGbpsPerMM x layers).
func IOChiplets(externalGbps, tileSideMM, edgeGbpsPerMM float64, layers int) int {
	if externalGbps <= 0 {
		return 0
	}
	per := tileSideMM * edgeGbpsPerMM * float64(layers)
	if per <= 0 {
		return 0
	}
	return int(math.Ceil(externalGbps / per))
}
