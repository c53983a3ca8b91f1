// Package topo builds the logical switch topologies that are mapped onto
// the physical wafer mesh: the 2-level folded Clos the paper focuses on
// (Section IV), plus the mesh, butterfly, flattened butterfly and
// dragonfly alternatives of the discussion section (Fig 25).
//
// A Topology is a multigraph over sub-switch chiplets: nodes carry the
// chiplet class and the number of external (terminal-facing) ports they
// host; links carry a lane multiplicity, where one lane is one
// bidirectional port's worth of bandwidth at the topology's line rate.
package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"waferswitch/internal/ssc"
)

// Role classifies a node's function within the topology.
type Role int

const (
	// RoleLeaf nodes host external ports (ingress/egress SSCs).
	RoleLeaf Role = iota
	// RoleSpine nodes only switch between leaves (root-level SSCs).
	RoleSpine
	// RoleNode is used by direct topologies where every node does both.
	RoleNode
)

func (r Role) String() string {
	switch r {
	case RoleLeaf:
		return "leaf"
	case RoleSpine:
		return "spine"
	case RoleNode:
		return "node"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Node is one sub-switch chiplet in the logical topology.
type Node struct {
	ID   int
	Role Role
	// Chiplet is the hardware the node runs on.
	Chiplet ssc.Chiplet
	// ExternalPorts is the number of terminal-facing ports on this node.
	ExternalPorts int
}

// Link connects two nodes with Lanes parallel bidirectional lanes, each
// carrying one port's worth of bandwidth.
type Link struct {
	A, B  int
	Lanes int
}

// Topology is a logical switch built from sub-switch chiplets.
type Topology struct {
	Name  string
	Kind  string // "clos", "mesh", "butterfly", "flatbutterfly", "dragonfly"
	Nodes []Node
	Links []Link
	// PortGbps is the line rate of every lane and external port.
	PortGbps float64
	// MeshRows and MeshCols give the grid shape of the mesh and the
	// flattened butterfly (node i at row i/MeshCols, column i%MeshCols);
	// they are zero for every other topology. The simulator's routes
	// take their row hops first on a grid, which keeps both fabrics'
	// channel dependencies acyclic.
	MeshRows, MeshCols int
}

// ExternalPorts is the switch's total radix: the sum of terminal-facing
// ports over all nodes.
func (t *Topology) ExternalPorts() int {
	total := 0
	for _, n := range t.Nodes {
		total += n.ExternalPorts
	}
	return total
}

// TotalChipAreaMM2 is the silicon area of all chiplets in the topology.
func (t *Topology) TotalChipAreaMM2() float64 {
	var a float64
	for _, n := range t.Nodes {
		a += n.Chiplet.AreaMM2
	}
	return a
}

// TotalLaneTerminations returns, per node, the number of lanes that
// terminate at the node (its internal-link degree in lanes).
func (t *Topology) TotalLaneTerminations() []int {
	deg := make([]int, len(t.Nodes))
	for _, l := range t.Links {
		deg[l.A] += l.Lanes
		deg[l.B] += l.Lanes
	}
	return deg
}

// Validate checks the structural invariants of the topology: link
// endpoints in range and distinct, positive lane counts, every node's
// lane terminations plus external ports within its chiplet radix, and a
// grid shape, if any, that tiles the nodes.
func (t *Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("topo: %s has no nodes", t.Name)
	}
	if (t.MeshRows != 0 || t.MeshCols != 0) && (t.MeshRows <= 0 || t.MeshCols <= 0 ||
		len(t.Nodes)%t.MeshCols != 0 || len(t.Nodes)/t.MeshCols != t.MeshRows) {
		return fmt.Errorf("topo: %s grid %dx%d does not tile its %d nodes",
			t.Name, t.MeshRows, t.MeshCols, len(t.Nodes))
	}
	for i, n := range t.Nodes {
		if n.ID != i {
			return fmt.Errorf("topo: %s node %d has ID %d", t.Name, i, n.ID)
		}
		if n.ExternalPorts < 0 {
			return fmt.Errorf("topo: %s node %d has negative external ports", t.Name, i)
		}
	}
	for _, l := range t.Links {
		if l.A < 0 || l.A >= len(t.Nodes) || l.B < 0 || l.B >= len(t.Nodes) {
			return fmt.Errorf("topo: %s link (%d,%d) out of range", t.Name, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("topo: %s has self-link at node %d", t.Name, l.A)
		}
		if l.Lanes <= 0 {
			return fmt.Errorf("topo: %s link (%d,%d) has %d lanes", t.Name, l.A, l.B, l.Lanes)
		}
	}
	deg := t.TotalLaneTerminations()
	for i, n := range t.Nodes {
		if used := deg[i] + n.ExternalPorts; used > n.Chiplet.Radix {
			return fmt.Errorf("topo: %s node %d uses %d ports but chiplet radix is %d",
				t.Name, i, used, n.Chiplet.Radix)
		}
	}
	return nil
}

// CanonicalHash content-hashes the structural identity of the topology:
// everything the simulator's port assignment and route computation
// depend on — node count, per-node external ports, the link list in
// declared order with lane multiplicities, and the grid shape whose
// rows the routes cross first. Two Topology values with equal
// hashes build identical router graphs and identical route tables, so
// the hash keys the simulator's shared route cache and is the
// topology-identity component of any future result cache. Names, line
// rates and chiplet hardware are deliberately excluded: they never
// influence adjacency or routing.
func (t *Topology) CanonicalHash() [32]byte {
	h := sha256.New()
	var buf [8]byte
	u := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	u(len(t.Nodes))
	for _, n := range t.Nodes {
		u(n.ExternalPorts)
	}
	u(len(t.Links))
	for _, l := range t.Links {
		u(l.A)
		u(l.B)
		u(l.Lanes)
	}
	u(t.MeshRows)
	u(t.MeshCols)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ChipletCount returns the number of chiplets in the topology.
func (t *Topology) ChipletCount() int { return len(t.Nodes) }

// ClosChiplets returns the number of chiplets a 2-level Clos needs for a
// switch of n ports built from radix-k sub-switches: 3(n/k), per Table VI.
func ClosChiplets(n, k int) int { return 3 * n / k }

// HierarchicalCrossbarChiplets returns the chiplet count of a
// hierarchical crossbar of the same radix: (n/k)^2, per Table VI.
func HierarchicalCrossbarChiplets(n, k int) int { m := n / k; return m * m }

// ModularCrossbarChiplets returns the chiplet count of a modular crossbar:
// (n/k)^2, per Table VI.
func ModularCrossbarChiplets(n, k int) int { m := n / k; return m * m }
