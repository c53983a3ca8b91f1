package core

import (
	"strings"
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/tech"
	"waferswitch/internal/wafer"
)

func params(side float64, wsi tech.WSI, ext tech.ExternalIO) Params {
	return Params{
		Substrate:  wafer.Substrate{SideMM: side},
		WSI:        wsi,
		ExternalIO: ext,
		Chiplet:    ssc.MustTH5(200),
		Seed:       1,
	}
}

func maxPorts(t *testing.T, p Params, cons Constraints) *Design {
	t.Helper()
	r, err := MaxPorts(p, cons)
	if err != nil {
		t.Fatal(err)
	}
	return r.Best
}

// Fig 6 anchors: with area as the only constraint, waferscale integration
// supports 4x/16x/32x the ports of a single TH-5 at 100/200/300 mm.
func TestIdealMaxPorts(t *testing.T) {
	tests := []struct {
		side  float64
		ports int
	}{
		{100, 1024},
		{200, 4096},
		{300, 8192},
	}
	for _, tc := range tests {
		d := maxPorts(t, params(tc.side, tech.SiIF, tech.OpticalIO), AreaOnly)
		if d.Ports != tc.ports {
			t.Errorf("ideal %vmm = %d ports, want %d", tc.side, d.Ports, tc.ports)
		}
	}
}

// Fig 6: at higher port bandwidth the ideal port count halves per
// doubling but stays 32x a single TH-5 in the same configuration.
func TestIdealMaxPortsHigherRates(t *testing.T) {
	for _, rate := range []float64{400, 800} {
		p := params(300, tech.SiIF, tech.OpticalIO)
		p.Chiplet = ssc.MustTH5(rate)
		d := maxPorts(t, p, AreaOnly)
		if want := 32 * p.Chiplet.Radix; d.Ports != want {
			t.Errorf("ideal 300mm @%vG = %d ports, want %d", rate, d.Ports, want)
		}
	}
}

// Fig 7 anchors at 3200 Gbps/mm internal bandwidth: SerDes is stuck at
// 512 ports (2x a TH-5) even at 300 mm; Optical I/O reaches 2048 at both
// 200 and 300 mm (internal-bandwidth limited) and the full ideal 1024 at
// 100 mm.
func TestFig7Anchors(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space search in short mode")
	}
	tests := []struct {
		side  float64
		ext   tech.ExternalIO
		ports int
	}{
		{100, tech.SerDes, 256}, // no waferscale benefit at all
		{200, tech.SerDes, 512},
		{300, tech.SerDes, 512},
		{100, tech.OpticalIO, 1024},
		{200, tech.OpticalIO, 2048},
		{300, tech.OpticalIO, 2048},
		{200, tech.AreaIOTech, 2048},
	}
	for _, tc := range tests {
		d := maxPorts(t, params(tc.side, tech.SiIF, tc.ext), NoPower)
		if d.Ports != tc.ports {
			t.Errorf("%vmm %s @3200 = %d ports, want %d", tc.side, tc.ext.Name, d.Ports, tc.ports)
		}
	}
}

// Fig 9 anchors at 6400 Gbps/mm (Vdd-scaled Si-IF): Optical I/O reaches
// 8192 at 300 mm (4x the 3200 result), 4096 at 200 mm (2x), and stays at
// 1024 at 100 mm; Area I/O does not improve (external-bandwidth bound).
func TestFig9Anchors(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space search in short mode")
	}
	wsi := tech.SiIF.Scaled(2)
	tests := []struct {
		side  float64
		ext   tech.ExternalIO
		ports int
	}{
		{100, tech.OpticalIO, 1024},
		{200, tech.OpticalIO, 4096},
		{300, tech.OpticalIO, 8192},
		{200, tech.AreaIOTech, 2048},
		{300, tech.AreaIOTech, 4096},
	}
	for _, tc := range tests {
		d := maxPorts(t, params(tc.side, wsi, tc.ext), NoPower)
		if d.Ports != tc.ports {
			t.Errorf("%vmm %s @6400 = %d ports, want %d", tc.side, tc.ext.Name, d.Ports, tc.ports)
		}
	}
}

// Fig 12/13: InFO-SoW reaches the same 8192 ports as 6400 Gbps/mm Si-IF
// but at much higher power.
func TestInFOSoWSamePortsMorePower(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space search in short mode")
	}
	siif := maxPorts(t, params(300, tech.SiIF.Scaled(2), tech.OpticalIO), NoPower)
	info := maxPorts(t, params(300, tech.InFOSoW, tech.OpticalIO), NoPower)
	if info.Ports != siif.Ports {
		t.Errorf("InFO-SoW ports = %d, Si-IF x2 = %d, want equal", info.Ports, siif.Ports)
	}
	if info.Power.TotalW() < siif.Power.TotalW()*1.2 {
		t.Errorf("InFO-SoW power %v not substantially above Si-IF %v", info.Power.TotalW(), siif.Power.TotalW())
	}
}

// Section V-A: the 8192-port design at 6400 Gbps/mm draws tens of kW with
// a 33-44% I/O power share.
func TestBigDesignPowerAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space search in short mode")
	}
	d, err := Evaluate(params(300, tech.SiIF.Scaled(2), tech.OpticalIO), 8192, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatalf("8192 @6400 infeasible: %v", d.Reasons)
	}
	total := d.Power.TotalW()
	if total < 45000 || total > 70000 {
		t.Errorf("total power = %v W, want within [45, 70] kW (paper: 62 kW)", total)
	}
	if share := d.Power.IOShare(); share < 0.28 || share > 0.50 {
		t.Errorf("I/O power share = %v, want within [0.28, 0.50] (paper: 33-43.8%%)", share)
	}
}

// Section V-B: the heterogeneous design (radix-64 TH-3-class leaves)
// reduces total power by roughly a third and brings power density within
// the water-cooling envelope.
func TestHeterogeneousPowerReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space search in short mode")
	}
	p := params(300, tech.SiIF.Scaled(2), tech.OpticalIO)
	homo, err := Evaluate(p, 8192, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	p.HeteroLeafRadix = 64
	hetero, err := Evaluate(p, 8192, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	if !hetero.Feasible {
		t.Fatalf("hetero 8192 infeasible: %v", hetero.Reasons)
	}
	red := 1 - hetero.Power.TotalW()/homo.Power.TotalW()
	if red < 0.25 || red > 0.45 {
		t.Errorf("hetero power reduction = %.1f%%, want 25-45%% (paper: 30.8-33.5%%)", red*100)
	}
	if homo.PowerDensity <= tech.WaterCooling.MaxWPerMM2 {
		t.Errorf("homogeneous density %.2f should exceed water cooling limit", homo.PowerDensity)
	}
	if hetero.PowerDensity > tech.WaterCooling.MaxWPerMM2 {
		t.Errorf("hetero density %.2f should be within water cooling limit", hetero.PowerDensity)
	}
}

// Section V-C / Figs 17-19: at 3200 Gbps/mm, halving the SSC radix (same
// die) doubles the achievable 300 mm port count from 2048 to 4096;
// quartering over-deradixes and falls back to 2048. At 6400 Gbps/mm the
// internal bandwidth is already sufficient, so deradixing only hurts.
func TestDeradixing(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space search in short mode")
	}
	chip := ssc.MustTH5(200)
	deradix := func(factor int) ssc.Chiplet {
		d, err := chip.Deradix(factor)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tests := []struct {
		factor int
		wsi    tech.WSI
		ports  int
	}{
		{1, tech.SiIF, 2048},
		{2, tech.SiIF, 4096},
		{4, tech.SiIF, 2048},
		{1, tech.SiIF.Scaled(2), 8192},
		{2, tech.SiIF.Scaled(2), 4096},
	}
	for _, tc := range tests {
		p := params(300, tc.wsi, tech.OpticalIO)
		p.Chiplet = chip
		if tc.factor > 1 {
			p.Chiplet = deradix(tc.factor)
		}
		d := maxPorts(t, p, NoPower)
		if d.Ports != tc.ports {
			t.Errorf("deradix/%d @%v = %d ports, want %d", tc.factor, tc.wsi.BandwidthGbpsPerMM, d.Ports, tc.ports)
		}
	}
}

// Fig 28: cooling envelopes bound the radix. After the heterogeneous
// optimization, water cooling sustains the full 8192 ports at 300 mm
// while air cooling cannot.
func TestCoolingBoundsRadix(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space search in short mode")
	}
	p := params(300, tech.SiIF.Scaled(2), tech.OpticalIO)
	p.HeteroLeafRadix = 64

	p.Cooling = tech.WaterCooling
	water := maxPorts(t, p, AllConstraints)
	if water.Ports != 8192 {
		t.Errorf("water-cooled max ports = %d, want 8192", water.Ports)
	}
	p.Cooling = tech.AirCooling
	air := maxPorts(t, p, AllConstraints)
	if air.Ports >= water.Ports {
		t.Errorf("air-cooled max ports = %d, want below water-cooled %d", air.Ports, water.Ports)
	}
	p.Cooling = tech.MultiPhaseCooling
	multi := maxPorts(t, p, AllConstraints)
	if multi.Ports < water.Ports {
		t.Errorf("multiphase max ports = %d, want >= water %d", multi.Ports, water.Ports)
	}
}

// Fig 26: a physically routed Clos always achieves at most the mapped
// Clos radix (its dedicated wiring competes for substrate area) and pays
// a power overhead at iso-radix.
func TestPhysicalClos(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space search in short mode")
	}
	p := params(300, tech.InFOSoW, tech.OpticalIO)
	mapped := maxPorts(t, p, NoPower)
	p.PhysicalClos = true
	phys := maxPorts(t, p, NoPower)
	if phys.Ports > mapped.Ports {
		t.Errorf("physical Clos ports = %d, mapped = %d, want physical <= mapped", phys.Ports, mapped.Ports)
	}
	if phys.Ports == mapped.Ports {
		t.Errorf("physical Clos should lose radix at 300mm InFO-SoW (got %d for both)", phys.Ports)
	}
	// Iso-radix power comparison at the physical design's radix.
	pm := params(300, tech.InFOSoW, tech.OpticalIO)
	mappedIso, err := Evaluate(pm, phys.Ports, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	pm.PhysicalClos = true
	physIso, err := Evaluate(pm, phys.Ports, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	if physIso.Power.InternalIOW <= mappedIso.Power.InternalIOW {
		t.Errorf("physical Clos internal power %v not above mapped %v", physIso.Power.InternalIOW, mappedIso.Power.InternalIOW)
	}
}

func TestSingleChipFallback(t *testing.T) {
	d := maxPorts(t, params(100, tech.SiIF, tech.SerDes), NoPower)
	if !d.SingleChip() {
		t.Error("100mm SerDes should degenerate to a single chip")
	}
	if d.Ports != 256 {
		t.Errorf("single-chip fallback ports = %d, want 256", d.Ports)
	}
	if d.Power.TotalW() <= 0 {
		t.Error("single-chip fallback has no power accounting")
	}
}

func TestEvaluateReportsReasons(t *testing.T) {
	// 8192 at 3200 Gbps/mm must fail with an internal-bandwidth reason.
	d, err := Evaluate(params(300, tech.SiIF, tech.OpticalIO), 8192, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible {
		t.Fatal("8192 @3200 should be infeasible")
	}
	found := false
	for _, r := range d.Reasons {
		if strings.HasPrefix(r, "internal:") {
			found = true
		}
	}
	if !found {
		t.Errorf("no internal-bandwidth reason in %v", d.Reasons)
	}
}

func TestCandidatePorts(t *testing.T) {
	chip := ssc.MustTH5(200)
	cands := CandidatePorts(chip)
	if len(cands) == 0 || cands[0] != 512 {
		t.Fatalf("CandidatePorts starts at %v, want 512", cands)
	}
	if last := cands[len(cands)-1]; last != 32768 {
		t.Errorf("CandidatePorts ends at %d, want 32768 (k^2/2)", last)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] != 2*cands[i-1] {
			t.Errorf("CandidatePorts not doubling at %d", i)
		}
	}
}

func TestEdgeCapacityLanes(t *testing.T) {
	// 3200 Gbps/mm x 28.28 mm x 0.90 / 200 Gbps = 407 lanes.
	got := EdgeCapacityLanes(tech.SiIF, ssc.MustTH5(200).SideMM(), 200)
	if got != 407 {
		t.Errorf("EdgeCapacityLanes = %d, want 407", got)
	}
}

// The second MaxPorts call reads its placements from the first's memo
// entries (mapping.Optimized), so this pins the solver's determinism
// around the placements; mapping's TestOptimizedMatchesFresh carries the
// placements' own determinism against a fresh Algorithm 1 run.
func TestMaxPortsDeterministic(t *testing.T) {
	p := params(200, tech.SiIF, tech.OpticalIO)
	a := maxPorts(t, p, NoPower)
	b := maxPorts(t, p, NoPower)
	if a.Ports != b.Ports || a.Power != b.Power {
		t.Errorf("MaxPorts not deterministic: %d/%v vs %d/%v", a.Ports, a.Power, b.Ports, b.Power)
	}
}
