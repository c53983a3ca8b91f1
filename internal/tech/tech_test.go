package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWSIScaledBandwidth(t *testing.T) {
	s := SiIF.Scaled(2)
	if got, want := s.BandwidthGbpsPerMM, 6400.0; got != want {
		t.Errorf("Scaled(2) bandwidth = %v, want %v", got, want)
	}
	if s.EnergyPJPerBit <= SiIF.EnergyPJPerBit {
		t.Errorf("Scaled(2) energy = %v, want > baseline %v", s.EnergyPJPerBit, SiIF.EnergyPJPerBit)
	}
	if SiIF.BandwidthGbpsPerMM != 3200 {
		t.Errorf("Scaled mutated the receiver: SiIF bandwidth = %v", SiIF.BandwidthGbpsPerMM)
	}
}

func TestWSIScaledIdentity(t *testing.T) {
	s := SiIF.Scaled(1)
	if s.BandwidthGbpsPerMM != SiIF.BandwidthGbpsPerMM {
		t.Errorf("Scaled(1) bandwidth = %v, want unchanged", s.BandwidthGbpsPerMM)
	}
	if math.Abs(s.EnergyPJPerBit-SiIF.EnergyPJPerBit) > 1e-12 {
		t.Errorf("Scaled(1) energy = %v, want %v", s.EnergyPJPerBit, SiIF.EnergyPJPerBit)
	}
}

func TestWSIScaledPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scaled(0) did not panic")
		}
	}()
	SiIF.Scaled(0)
}

func TestVddForBandwidthScaleNominal(t *testing.T) {
	if got := VddForBandwidthScale(1); math.Abs(got-Vdd0) > 1e-9 {
		t.Errorf("VddForBandwidthScale(1) = %v, want %v", got, Vdd0)
	}
}

func TestVddForBandwidthScaleSolvesRelation(t *testing.T) {
	for _, factor := range []float64{0.5, 1, 2, 4, 8} {
		v := VddForBandwidthScale(factor)
		got := bandwidthMetric(v) / bandwidthMetric(Vdd0)
		if math.Abs(got-factor) > 1e-9 {
			t.Errorf("factor %v: bandwidth metric ratio = %v", factor, got)
		}
	}
}

func TestEnergyScaleKnownPoints(t *testing.T) {
	// At the calibrated operating point, doubling bandwidth costs ~2.2x
	// energy per bit and quadrupling ~5.8x (Section V-A trade-off).
	if got := EnergyScale(2); got < 1.9 || got > 2.5 {
		t.Errorf("EnergyScale(2) = %v, want in [1.9, 2.5]", got)
	}
	if got := EnergyScale(4); got < 5.0 || got > 6.5 {
		t.Errorf("EnergyScale(4) = %v, want in [5.0, 6.5]", got)
	}
	if got := EnergyScale(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("EnergyScale(1) = %v, want 1", got)
	}
}

// Energy per bit must rise monotonically with bandwidth at or above the
// nominal operating point: that is the entire premise of the paper's
// "bandwidth at the expense of energy efficiency" optimization.
func TestEnergyScaleMonotonic(t *testing.T) {
	f := func(a, b float64) bool {
		fa := 1 + math.Mod(math.Abs(a), 7) // factors in [1, 8)
		fb := 1 + math.Mod(math.Abs(b), 7)
		if fa > fb {
			fa, fb = fb, fa
		}
		return EnergyScale(fa) <= EnergyScale(fb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExternalIOMaxBandwidth(t *testing.T) {
	tests := []struct {
		io   ExternalIO
		side float64
		want float64
	}{
		// SerDes: 0.25 usable fraction * 4L * 512 Gbps/mm * 1 layer.
		{SerDes, 300, 300 * 512},
		{SerDes, 200, 200 * 512},
		// Optical: full perimeter, 800 Gbps/mm * 4 layers.
		{OpticalIO, 300, 4 * 300 * 800 * 4},
		// Area I/O: 16 Gbps/mm^2 over the substrate.
		{AreaIOTech, 300, 90000 * 16},
		{AreaIOTech, 100, 10000 * 16},
	}
	for _, tc := range tests {
		if got := tc.io.MaxBandwidthGbps(tc.side); math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("%s at %vmm: MaxBandwidthGbps = %v, want %v", tc.io.Name, tc.side, got, tc.want)
		}
	}
}

func TestExternalIOAnchors(t *testing.T) {
	// Paper anchors (Section IV-C): SerDes supports about 512 ports of
	// 200 Gbps at 200 mm, and under 1024 at 300 mm; Area I/O supports
	// 7200 ports at 300 mm and 3200 at 200 mm (binding below the 8192 and
	// 4096 achievable internally at 6400 Gbps/mm).
	ports := func(io ExternalIO, side float64) float64 {
		return io.MaxBandwidthGbps(side) / 200
	}
	if got := ports(SerDes, 200); got != 512 {
		t.Errorf("SerDes 200mm ports = %v, want 512", got)
	}
	if got := ports(SerDes, 300); got < 512 || got >= 1024 {
		t.Errorf("SerDes 300mm ports = %v, want in [512, 1024)", got)
	}
	if got := ports(AreaIOTech, 300); got != 7200 {
		t.Errorf("Area I/O 300mm ports = %v, want 7200", got)
	}
	if got := ports(AreaIOTech, 200); got != 3200 {
		t.Errorf("Area I/O 200mm ports = %v, want 3200", got)
	}
}

func TestCoolingMaxPower(t *testing.T) {
	// Water cooling sustains 0.5 W/mm^2: 45 kW fits on a 300 mm wafer
	// (Section VIII) but 62 kW does not.
	maxW := WaterCooling.MaxWPerMM2 * 300 * 300
	if maxW != 45000 {
		t.Errorf("water cooling 300mm max power = %v, want 45000", maxW)
	}
	if AirCooling.MaxWPerMM2 >= WaterCooling.MaxWPerMM2 {
		t.Error("air cooling should sustain less power than water cooling")
	}
	if MultiPhaseCooling.MaxWPerMM2 <= WaterCooling.MaxWPerMM2 {
		t.Error("multiphase cooling should sustain more power than water cooling")
	}
}

func TestIOKindString(t *testing.T) {
	if PeripheryIO.String() != "periphery" || AreaIO.String() != "area" {
		t.Errorf("IOKind strings = %q, %q", PeripheryIO, AreaIO)
	}
	if got := IOKind(9).String(); got != "IOKind(9)" {
		t.Errorf("unknown IOKind string = %q", got)
	}
}
