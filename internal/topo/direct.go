package topo

import (
	"fmt"
	"math"

	"waferswitch/internal/ssc"
)

// This file builds the non-Clos topologies of the paper's discussion
// section (Fig 25). The paper does not publish its sizing conventions for
// these, so we use standard ones and document them per constructor; the
// relative ordering the paper reports (mesh/butterfly above Clos in raw
// port count, dragonfly/flattened-butterfly below once constraints are
// applied) is preserved. See EXPERIMENTS.md fig25.

// MeshTopo builds a rows x cols 2-D mesh of identical chiplets where each
// chiplet dedicates lanesPerNeighbor lanes to each physical neighbor and
// the remaining radix to external ports. Mesh lays out natively on the
// wafer (identity mapping) but has poor bisection bandwidth and is highly
// blocking, as the paper notes.
func MeshTopo(rows, cols int, chip ssc.Chiplet, lanesPerNeighbor int) (*Topology, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("topo: mesh %dx%d too small", rows, cols)
	}
	if lanesPerNeighbor < 1 {
		return nil, fmt.Errorf("topo: mesh needs >= 1 lane per neighbor, got %d", lanesPerNeighbor)
	}
	if 4*lanesPerNeighbor >= chip.Radix {
		return nil, fmt.Errorf("topo: %d lanes/neighbor exhausts radix-%d chiplet", lanesPerNeighbor, chip.Radix)
	}
	t := &Topology{
		Name:     fmt.Sprintf("mesh-%dx%d (%d lanes/neighbor)", rows, cols, lanesPerNeighbor),
		Kind:     "mesh",
		PortGbps: chip.PortGbps,
		MeshRows: rows,
		MeshCols: cols,
	}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			deg := 4
			if r == 0 || r == rows-1 {
				deg--
			}
			if c == 0 || c == cols-1 {
				deg--
			}
			t.Nodes = append(t.Nodes, Node{
				ID:            id(r, c),
				Role:          RoleNode,
				Chiplet:       chip,
				ExternalPorts: chip.Radix - deg*lanesPerNeighbor,
			})
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.Links = append(t.Links, Link{A: id(r, c), B: id(r, c+1), Lanes: lanesPerNeighbor})
			}
			if r+1 < rows {
				t.Links = append(t.Links, Link{A: id(r, c), B: id(r+1, c), Lanes: lanesPerNeighbor})
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// BalancedMesh builds a mesh that splits each chiplet's radix evenly
// between external ports and internal links (the convention we use for
// Fig 25's mesh datapoints): lanesPerNeighbor = radix/8.
func BalancedMesh(rows, cols int, chip ssc.Chiplet) (*Topology, error) {
	return MeshTopo(rows, cols, chip, chip.Radix/8)
}

// Butterfly2 builds a 2-stage bidirectional butterfly with the given
// oversubscription ratio: each first-stage chiplet dedicates
// oversub/(oversub+1) of its radix to external ports and the rest to
// uplinks, and every stage-1/stage-2 pair is connected by exactly one
// lane (no path diversity — the butterfly's defining property). With
// oversub=1 this degenerates to a Clos with multiplicity 1.
func Butterfly2(stage1 int, chip ssc.Chiplet, oversub int) (*Topology, error) {
	if stage1 < 2 {
		return nil, fmt.Errorf("topo: butterfly needs >= 2 stage-1 chiplets, got %d", stage1)
	}
	if oversub < 1 {
		return nil, fmt.Errorf("topo: oversubscription %d < 1", oversub)
	}
	up := chip.Radix / (oversub + 1)
	ext := chip.Radix - up
	if up < 1 {
		return nil, fmt.Errorf("topo: oversubscription %d leaves no uplinks on radix-%d chiplet", oversub, chip.Radix)
	}
	// Each stage-1 chiplet has `up` uplinks, one lane to each stage-2
	// chiplet, so stage2 = up; each stage-2 chiplet receives stage1 lanes
	// and needs stage1 <= radix.
	stage2 := up
	if stage1 > chip.Radix {
		return nil, fmt.Errorf("topo: %d stage-1 chiplets exceed stage-2 radix %d", stage1, chip.Radix)
	}
	t := &Topology{
		Name:     fmt.Sprintf("butterfly-%d+%d (oversub %d:1)", stage1, stage2, oversub),
		Kind:     "butterfly",
		PortGbps: chip.PortGbps,
	}
	for i := 0; i < stage1; i++ {
		t.Nodes = append(t.Nodes, Node{ID: i, Role: RoleLeaf, Chiplet: chip, ExternalPorts: ext})
	}
	for j := 0; j < stage2; j++ {
		t.Nodes = append(t.Nodes, Node{ID: stage1 + j, Role: RoleSpine, Chiplet: chip})
	}
	for i := 0; i < stage1; i++ {
		for j := 0; j < stage2; j++ {
			t.Links = append(t.Links, Link{A: i, B: stage1 + j, Lanes: 1})
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// FlattenedButterfly builds a 2-D flattened butterfly on a rows x cols
// array: every chiplet links to every other chiplet in its row and in its
// column. Lane counts are chosen for full bisection bandwidth under
// uniform traffic (external ports p = cols*lanes/2), the standard
// balanced sizing; this makes the flattened butterfly external-port-poor
// relative to Clos, matching Fig 25.
func FlattenedButterfly(rows, cols int, chip ssc.Chiplet) (*Topology, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("topo: flattened butterfly %dx%d too small", rows, cols)
	}
	deg := (rows - 1) + (cols - 1)
	// p = cols*c/2 and p + deg*c <= radix  =>  c <= radix / (cols/2 + deg).
	c := int(float64(chip.Radix) / (float64(cols)/2 + float64(deg)))
	if c < 1 {
		return nil, fmt.Errorf("topo: radix-%d chiplet too small for %dx%d flattened butterfly", chip.Radix, rows, cols)
	}
	p := cols * c / 2
	t := &Topology{
		Name:     fmt.Sprintf("flatbutterfly-%dx%d (%d lanes, %d ext/node)", rows, cols, c, p),
		Kind:     "flatbutterfly",
		PortGbps: chip.PortGbps,
	}
	id := func(r, cc int) int { return r*cols + cc }
	for r := 0; r < rows; r++ {
		for cc := 0; cc < cols; cc++ {
			t.Nodes = append(t.Nodes, Node{ID: id(r, cc), Role: RoleNode, Chiplet: chip, ExternalPorts: p})
		}
	}
	for r := 0; r < rows; r++ {
		for a := 0; a < cols; a++ {
			for b := a + 1; b < cols; b++ {
				t.Links = append(t.Links, Link{A: id(r, a), B: id(r, b), Lanes: c})
			}
		}
	}
	for cc := 0; cc < cols; cc++ {
		for a := 0; a < rows; a++ {
			for b := a + 1; b < rows; b++ {
				t.Links = append(t.Links, Link{A: id(a, cc), B: id(b, cc), Lanes: c})
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Dragonfly builds a balanced dragonfly (Kim et al.): groups of a
// chiplets, each chiplet with p external ports, connections to all a-1
// group peers, and h global link endpoints, using the balanced sizing
// a = 2p, h = p scaled by a lane multiplier to fill the chiplet radix.
// groups may not exceed a*h+1.
func Dragonfly(groups, a, h, p int, chip ssc.Chiplet) (*Topology, error) {
	if a < 2 || h < 1 || p < 1 || groups < 2 {
		return nil, fmt.Errorf("topo: invalid dragonfly shape g=%d a=%d h=%d p=%d", groups, a, h, p)
	}
	if groups > a*h+1 {
		return nil, fmt.Errorf("topo: %d groups exceed maximum %d for a=%d h=%d", groups, a*h+1, a, h)
	}
	unit := p + (a - 1) + h
	lanes := chip.Radix / unit
	if lanes < 1 {
		return nil, fmt.Errorf("topo: radix-%d chiplet cannot host dragonfly unit %d", chip.Radix, unit)
	}
	n := groups * a
	t := &Topology{
		Name:     fmt.Sprintf("dragonfly-g%d.a%d.h%d.p%d (x%d lanes)", groups, a, h, p, lanes),
		Kind:     "dragonfly",
		PortGbps: chip.PortGbps,
		Nodes:    make([]Node, 0, n),
		Links:    make([]Link, 0, groups*a*(a-1)/2+groups*(groups-1)/2),
	}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, Node{ID: i, Role: RoleNode, Chiplet: chip, ExternalPorts: p * lanes})
	}
	// Local links: full connectivity within each group.
	for g := 0; g < groups; g++ {
		base := g * a
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				t.Links = append(t.Links, Link{A: base + i, B: base + j, Lanes: lanes})
			}
		}
	}
	// Global links: distribute group-pair links over member chiplets
	// round-robin (absolute-port assignment). Each chiplet has h*lanes
	// global lane endpoints; each connected group pair gets one logical
	// link of `lanes` lanes.
	globalEndpoint := make([]int, groups) // next member chiplet to use per group
	for g1 := 0; g1 < groups; g1++ {
		for g2 := g1 + 1; g2 < groups; g2++ {
			a1 := g1*a + globalEndpoint[g1]%a
			a2 := g2*a + globalEndpoint[g2]%a
			globalEndpoint[g1]++
			globalEndpoint[g2]++
			t.Links = append(t.Links, Link{A: a1, B: a2, Lanes: lanes})
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// BalancedDragonfly picks the largest balanced dragonfly (h = p,
// a = 2p) that fits within maxChiplets chiplets, scanning p upward and
// keeping the first shape with the most external ports. Only the winner
// is built: a shape that passes Dragonfly's checks always builds, since
// groups <= a*h+1 caps each member's global links at h, so each
// candidate's port count, groups*a*p*lanes, is known without building it.
func BalancedDragonfly(maxChiplets int, chip ssc.Chiplet) (*Topology, error) {
	bestP, bestGroups, bestPorts := 0, 0, 0
	for p := 1; p <= chip.Radix/4; p++ {
		aa, hh := 2*p, p
		groups := min(maxChiplets/aa, aa*hh+1)
		lanes := chip.Radix / (p + aa - 1 + hh)
		if groups < 2 || lanes < 1 {
			continue
		}
		if ports := groups * aa * p * lanes; ports > bestPorts {
			bestP, bestGroups, bestPorts = p, groups, ports
		}
	}
	if bestPorts == 0 {
		return nil, fmt.Errorf("topo: no balanced dragonfly fits in %d chiplets", maxChiplets)
	}
	return Dragonfly(bestGroups, 2*bestP, bestP, bestP, chip)
}

// NearSquare returns rows x cols dimensions for n nodes with rows*cols >= n
// and the aspect ratio as square as possible. It is used to shape direct
// topologies to the wafer.
func NearSquare(n int) (rows, cols int) {
	if n <= 0 {
		return 0, 0
	}
	rows = int(math.Sqrt(float64(n)))
	if rows < 1 {
		rows = 1
	}
	cols = (n + rows - 1) / rows
	return rows, cols
}
