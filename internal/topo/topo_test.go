package topo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"waferswitch/internal/ssc"
)

func th5() ssc.Chiplet { return ssc.MustTH5(200) }

func TestClos2PaperConfigurations(t *testing.T) {
	// Table VI / Section VI: a 2048-port Clos from radix-256 SSCs uses 24
	// chiplets; an 8192-port Clos uses 96.
	tests := []struct {
		ports    int
		chiplets int
		leaves   int
		spines   int
		lanes    int
	}{
		{2048, 24, 16, 8, 16},
		{4096, 48, 32, 16, 8},
		{8192, 96, 64, 32, 4},
		{512, 6, 4, 2, 64},
	}
	for _, tc := range tests {
		c, err := HomogeneousClos(tc.ports, th5())
		if err != nil {
			t.Fatalf("HomogeneousClos(%d): %v", tc.ports, err)
		}
		if got := c.ChipletCount(); got != tc.chiplets {
			t.Errorf("clos-%d chiplets = %d, want %d", tc.ports, got, tc.chiplets)
		}
		if got := c.ExternalPorts(); got != tc.ports {
			t.Errorf("clos-%d external ports = %d, want %d", tc.ports, got, tc.ports)
		}
		var leaves, spines int
		for _, n := range c.Nodes {
			switch n.Role {
			case RoleLeaf:
				leaves++
			case RoleSpine:
				spines++
			}
		}
		if leaves != tc.leaves || spines != tc.spines {
			t.Errorf("clos-%d = %d leaves + %d spines, want %d + %d", tc.ports, leaves, spines, tc.leaves, tc.spines)
		}
		if got := c.Links[0].Lanes; got != tc.lanes {
			t.Errorf("clos-%d lane multiplicity = %d, want %d", tc.ports, got, tc.lanes)
		}
	}
}

func TestClosChipletsFormula(t *testing.T) {
	// Table VI exact values.
	if got := ClosChiplets(2048, 256); got != 24 {
		t.Errorf("ClosChiplets(2048,256) = %d, want 24", got)
	}
	if got := ClosChiplets(8192, 256); got != 96 {
		t.Errorf("ClosChiplets(8192,256) = %d, want 96", got)
	}
	if got := HierarchicalCrossbarChiplets(2048, 256); got != 64 {
		t.Errorf("HC(2048,256) = %d, want 64", got)
	}
	if got := ModularCrossbarChiplets(8192, 256); got != 1024 {
		t.Errorf("MC(8192,256) = %d, want 1024", got)
	}
}

func TestClos2MatchesFormula(t *testing.T) {
	for _, ports := range []int{1024, 2048, 4096, 8192, 16384} {
		c, err := HomogeneousClos(ports, th5())
		if err != nil {
			t.Fatalf("clos-%d: %v", ports, err)
		}
		if got, want := c.ChipletCount(), ClosChiplets(ports, 256); got != want {
			t.Errorf("clos-%d chiplets = %d, formula says %d", ports, got, want)
		}
	}
}

func TestClos2Invalid(t *testing.T) {
	if _, err := HomogeneousClos(1000, th5()); err == nil {
		t.Error("non-divisible port count did not fail")
	}
	if _, err := HomogeneousClos(0, th5()); err == nil {
		t.Error("zero ports did not fail")
	}
	if _, err := HomogeneousClos(256, th5()); err == nil {
		t.Error("degenerate two-leaf-one-spine... single-chip radix did not fail")
	}
	// Mismatched line rates.
	leaf := ssc.MustTH5(200)
	spine := ssc.MustTH5(400)
	if _, err := Clos2(2048, leaf, spine); err == nil {
		t.Error("mismatched line rates did not fail")
	}
	// More spines than a leaf can reach.
	if _, err := HomogeneousClos(65536, th5()); err == nil {
		t.Error("Clos beyond k^2/2 did not fail")
	}
}

func TestHeterogeneousClos(t *testing.T) {
	// Section V-B: 8192-port design with radix-64 TH-3-class leaves and
	// radix-256 spines: 256 leaves + 32 spines.
	c, err := HeterogeneousClos(8192, th5(), 64)
	if err != nil {
		t.Fatal(err)
	}
	var leaves, spines int
	var leafPower, spinePower float64
	for _, n := range c.Nodes {
		switch n.Role {
		case RoleLeaf:
			leaves++
			leafPower += n.Chiplet.NonIOPowerW()
		case RoleSpine:
			spines++
			spinePower += n.Chiplet.NonIOPowerW()
		}
	}
	if leaves != 256 || spines != 32 {
		t.Fatalf("hetero clos = %d leaves + %d spines, want 256 + 32", leaves, spines)
	}
	if c.ExternalPorts() != 8192 {
		t.Errorf("hetero clos ports = %d, want 8192", c.ExternalPorts())
	}
	// Leaf power drops from 64*400 W = 25.6 kW (homogeneous) to
	// 256*25 W = 6.4 kW; spines stay at 32*400 W = 12.8 kW.
	if leafPower != 6400 {
		t.Errorf("hetero leaf power = %v, want 6400", leafPower)
	}
	if spinePower != 12800 {
		t.Errorf("hetero spine power = %v, want 12800", spinePower)
	}
}

func TestMeshTopo(t *testing.T) {
	m, err := MeshTopo(3, 4, th5(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ChipletCount(); got != 12 {
		t.Errorf("mesh chiplets = %d, want 12", got)
	}
	// Corner node: degree 2, external = 256 - 64 = 192.
	if got := m.Nodes[0].ExternalPorts; got != 192 {
		t.Errorf("corner external ports = %d, want 192", got)
	}
	// Interior node (1,1): degree 4, external = 256 - 128 = 128.
	if got := m.Nodes[1*4+1].ExternalPorts; got != 128 {
		t.Errorf("interior external ports = %d, want 128", got)
	}
	// Link count: rows*(cols-1) + cols*(rows-1) = 9 + 8 = 17.
	if got := len(m.Links); got != 17 {
		t.Errorf("mesh links = %d, want 17", got)
	}
}

func TestMeshInvalid(t *testing.T) {
	if _, err := MeshTopo(1, 4, th5(), 1); err == nil {
		t.Error("1-row mesh did not fail")
	}
	if _, err := MeshTopo(3, 3, th5(), 64); err == nil {
		t.Error("radix-exhausting mesh did not fail")
	}
	if _, err := MeshTopo(3, 3, th5(), 0); err == nil {
		t.Error("zero-lane mesh did not fail")
	}
}

func TestButterfly2(t *testing.T) {
	b, err := Butterfly2(88, th5(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// oversub 3:1 on radix 256: 192 external + 64 up per stage-1 chiplet;
	// 64 stage-2 chiplets.
	if got := b.ChipletCount(); got != 88+64 {
		t.Errorf("butterfly chiplets = %d, want 152", got)
	}
	if got := b.ExternalPorts(); got != 88*192 {
		t.Errorf("butterfly ports = %d, want %d", got, 88*192)
	}
	if err := b.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFlattenedButterfly(t *testing.T) {
	fb, err := FlattenedButterfly(10, 11, th5())
	if err != nil {
		t.Fatal(err)
	}
	if got := fb.ChipletCount(); got != 110 {
		t.Errorf("flattened butterfly chiplets = %d, want 110", got)
	}
	// Full-bisection sizing keeps external ports well below radix/2.
	perNode := fb.Nodes[0].ExternalPorts
	if perNode <= 0 || perNode >= 128 {
		t.Errorf("flattened butterfly external/node = %d, want in (0, 128)", perNode)
	}
}

func TestBalancedDragonfly(t *testing.T) {
	df, err := BalancedDragonfly(112, th5())
	if err != nil {
		t.Fatal(err)
	}
	if got := df.ChipletCount(); got > 112 {
		t.Errorf("dragonfly chiplets = %d, want <= 112", got)
	}
	if df.ExternalPorts() < 2048 {
		t.Errorf("dragonfly ports = %d, want >= 2048 at 112 chiplets", df.ExternalPorts())
	}
}

// builtDragonfly is what the build-every-candidate search keeps of one
// Dragonfly build.
type builtDragonfly struct {
	ports int
	name  string
	hash  [32]byte
	ok    bool
}

// dragonflyBuilds builds each dragonfly shape once. A build depends on
// the chiplet only through its lane multiplier radix/(p+a-1+h), so the
// key holds that instead of the radix.
type dragonflyBuilds map[[5]int]builtDragonfly

func (m dragonflyBuilds) build(groups, a, h, p int, chip ssc.Chiplet) builtDragonfly {
	key := [5]int{groups, a, h, p, chip.Radix / (p + a - 1 + h)}
	if b, ok := m[key]; ok {
		return b
	}
	var b builtDragonfly
	if t, err := Dragonfly(groups, a, h, p, chip); err == nil {
		b = builtDragonfly{ports: t.ExternalPorts(), name: t.Name, hash: t.CanonicalHash(), ok: true}
	}
	m[key] = b
	return b
}

// buildEveryBalancedDragonfly is BalancedDragonfly as it was before it
// computed port counts in closed form: it builds every candidate shape
// and keeps the first with the most external ports.
func buildEveryBalancedDragonfly(maxChiplets int, chip ssc.Chiplet, builds dragonflyBuilds) builtDragonfly {
	var best builtDragonfly
	for p := 1; p <= chip.Radix/4; p++ {
		aa, hh := 2*p, p
		groups := min(maxChiplets/aa, aa*hh+1)
		if groups < 2 {
			continue
		}
		t := builds.build(groups, aa, hh, p, chip)
		if !t.ok {
			continue
		}
		if !best.ok || t.ports > best.ports {
			best = t
		}
	}
	return best
}

// TestBalancedDragonflyMatchesBuildEvery: picking the shape by its
// closed-form port count must choose the dragonfly the build-every-
// candidate search chose, for every chiplet radix from 16 to 256 and
// every budget from 0 to 400 chiplets (a sparser grid under -short).
func TestBalancedDragonflyMatchesBuildEvery(t *testing.T) {
	radixStep, budgetStep := 1, 1
	if testing.Short() {
		radixStep, budgetStep = 7, 3
	}
	builds := dragonflyBuilds{}
	// A name fixes every shape parameter, so each built shape's hash is
	// compared once.
	hashed := map[string]bool{}
	for radix := 16; radix <= 256; radix += radixStep {
		chip := ssc.Chiplet{Name: fmt.Sprintf("r%d", radix), Radix: radix, PortGbps: 200}
		for budget := 0; budget <= 400; budget += budgetStep {
			got, err := BalancedDragonfly(budget, chip)
			want := buildEveryBalancedDragonfly(budget, chip, builds)
			if (err == nil) != want.ok {
				t.Fatalf("radix %d budget %d: error %v, build-every found a dragonfly: %v", radix, budget, err, want.ok)
			}
			if err != nil {
				continue
			}
			if got.Name != want.name {
				t.Fatalf("radix %d budget %d: built %s, build-every %s", radix, budget, got.Name, want.name)
			}
			if !hashed[got.Name] {
				if got.CanonicalHash() != want.hash {
					t.Fatalf("radix %d budget %d: %s hashes differently from build-every's", radix, budget, got.Name)
				}
				hashed[got.Name] = true
			}
		}
	}
}

func TestDragonflyInvalid(t *testing.T) {
	if _, err := Dragonfly(100, 4, 2, 2, th5()); err == nil {
		t.Error("too many dragonfly groups did not fail")
	}
	if _, err := Dragonfly(2, 1, 1, 1, th5()); err == nil {
		t.Error("degenerate dragonfly did not fail")
	}
}

func TestNearSquare(t *testing.T) {
	tests := []struct{ n, rows, cols int }{
		{1, 1, 1}, {4, 2, 2}, {12, 3, 4}, {96, 9, 11}, {110, 10, 11},
	}
	for _, tc := range tests {
		r, c := NearSquare(tc.n)
		if r != tc.rows || c != tc.cols {
			t.Errorf("NearSquare(%d) = (%d,%d), want (%d,%d)", tc.n, r, c, tc.rows, tc.cols)
		}
	}
}

// Property: for every valid Clos, all topologies validate, external port
// totals match the request, and every node's port budget is respected
// (Validate re-checks, but the property drives many shapes through it).
func TestClosPropertyValidShapes(t *testing.T) {
	chip := th5()
	f := func(raw uint8) bool {
		ports := 512 << (raw % 6) // 512 .. 16384
		c, err := HomogeneousClos(ports, chip)
		if err != nil {
			return false
		}
		if c.ExternalPorts() != ports {
			return false
		}
		deg := c.TotalLaneTerminations()
		for i, n := range c.Nodes {
			if deg[i]+n.ExternalPorts > n.Chiplet.Radix {
				return false
			}
			// Leaves use their full radix; spines use exactly their radix.
			if n.Role == RoleSpine && deg[i] != n.Chiplet.Radix {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: near-square shapes satisfy rows*cols >= n and are within one
// of square.
func TestNearSquareProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%5000) + 1
		r, c := NearSquare(n)
		return r*c >= n && c >= r && c-r <= r+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c, err := HomogeneousClos(2048, th5())
	if err != nil {
		t.Fatal(err)
	}
	c.Links[0].Lanes = -1
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted negative lanes")
	}
	c.Links[0].Lanes = 10000
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted radix overflow")
	}
	c.Links[0] = Link{A: 0, B: 0, Lanes: 1}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted self-link")
	}
	c.Links[0] = Link{A: 0, B: 99999, Lanes: 1}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted out-of-range endpoint")
	}
	// A grid shape must tile the nodes: the simulator reads each node's
	// row and column from it. The last shape's product overflows to 12.
	m, err := MeshTopo(3, 4, th5(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range [][2]int{{-3, -4}, {3, 0}, {0, 4}, {-1, -12}, {4, 4}, {2, 4}, {6, 3}, {4, math.MaxInt/2 + 4}} {
		bad := *m
		bad.MeshRows, bad.MeshCols = g[0], g[1]
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted grid %dx%d on %d nodes", g[0], g[1], len(m.Nodes))
		}
	}
	for _, g := range [][2]int{{0, 0}, {4, 3}, {1, 12}, {12, 1}} {
		ok := *m
		ok.MeshRows, ok.MeshCols = g[0], g[1]
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate refused grid %dx%d on %d nodes: %v", g[0], g[1], len(m.Nodes), err)
		}
	}
}

func TestRoleString(t *testing.T) {
	if RoleLeaf.String() != "leaf" || RoleSpine.String() != "spine" || RoleNode.String() != "node" {
		t.Error("Role strings wrong")
	}
}
