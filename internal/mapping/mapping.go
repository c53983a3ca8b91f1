// Package mapping places a logical switch topology onto the wafer's
// physical chiplet mesh and evaluates the resulting channel loads. Every
// logical link is routed dimension-order (X then Y) through intermediate
// chiplets acting as feedthrough repeaters, as in Section III-C of the
// paper. The quality of a mapping is the maximum number of logical lanes
// crossing any adjacent chiplet pair — the quantity C(M) that the paper's
// Algorithm 1 (pairwise exchange) minimizes.
package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"waferswitch/internal/topo"
)

// Placement maps topology nodes onto a Rows x Cols grid of chiplet sites
// and maintains the per-edge channel loads of the dimension-order-routed
// logical links.
type Placement struct {
	Topo *topo.Topology
	Rows int
	Cols int

	pos  []int // node -> cell index (r*Cols + c)
	cell []int // cell -> node index, or -1 if empty

	// row and col give each cell's grid coordinates, sparing route a
	// division.
	row []int
	col []int

	// hDiff and vDiff hold the channel loads as difference arrays indexed
	// by cell. The load on the horizontal edge between (r,c) and (r,c+1)
	// is the sum of hDiff over cells (r,0)..(r,c); the load on the
	// vertical edge between (r,c) and (r+1,c) is the sum of vDiff over
	// cells (0,c)..(r,c). A dimension-order path is one row segment plus
	// one column segment, so routing it touches four entries whatever its
	// length. Loads count bidirectional lanes.
	hDiff []int
	vDiff []int

	// sh and sv are scratch difference arrays in which swapCost builds a
	// candidate swap's channel loads. A placement allocates its own on
	// first use, and clone gives the copy none, so copies optimized
	// concurrently never share them.
	sh, sv []int

	// evaluations counts the swaps swapCost has scored (see
	// SwapEvaluations).
	evaluations int

	// totalLaneHops is the sum over logical links of lanes x path length;
	// it drives internal-I/O power and is the tie-breaker cost.
	totalLaneHops int

	// arcs holds every node's links, in Topo.Links order, as seen from
	// that node: node n's are arcs[arcOff[n]:arcOff[n+1]].
	arcs   []arc
	arcOff []int

	// class[n] == class[m] marks nodes with identical arc lists, direction
	// included. Optimize skips swapping two such nodes, which would leave
	// every load unchanged.
	class []int32

	// externalRouted is set once RouteExternal has added the periphery
	// escape paths.
	externalRouted bool
}

// arc is one end of a logical link, seen from the node it touches.
type arc struct {
	peer  int32
	lanes int32
	// aSide marks the link's A end. Paths run X-first from the A end, so
	// the direction decides which row and column a path uses.
	aSide bool
}

// newPlacement checks the grid and the links and builds a placement of t
// with no node placed and no link routed. New and NewWithPositions both
// start here.
func newPlacement(t *topo.Topology, rows, cols int) (*Placement, error) {
	n := len(t.Nodes)
	if rows < 1 || cols < 1 || rows*cols < n {
		return nil, fmt.Errorf("mapping: %dx%d grid cannot hold %d chiplets", rows, cols, n)
	}
	cells := rows * cols
	p := &Placement{
		Topo:   t,
		Rows:   rows,
		Cols:   cols,
		pos:    make([]int, n),
		cell:   make([]int, cells),
		row:    make([]int, cells),
		col:    make([]int, cells),
		hDiff:  make([]int, cells),
		vDiff:  make([]int, cells),
		arcOff: make([]int, n+1),
		class:  make([]int32, n),
	}
	for c := range p.cell {
		p.cell[c] = -1
		p.row[c], p.col[c] = c/cols, c%cols
	}
	for _, l := range t.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n || l.Lanes < 1 || l.Lanes > math.MaxInt32 {
			return nil, fmt.Errorf("mapping: link (%d,%d) with %d lanes is out of range", l.A, l.B, l.Lanes)
		}
		// A self-link's path has no length wherever its node sits, so it
		// gets no arc: moveNode takes each peer at its cell in pos, which
		// for the moving node itself is the cell it leaves.
		if l.A != l.B {
			p.arcOff[l.A+1]++
			p.arcOff[l.B+1]++
		}
	}
	for i := 1; i <= n; i++ {
		p.arcOff[i] += p.arcOff[i-1]
	}
	p.arcs = make([]arc, p.arcOff[n])
	// pos is not filled yet, so it serves as each node's fill cursor.
	next := p.pos
	copy(next, p.arcOff[:n])
	for _, l := range t.Links {
		if l.A == l.B {
			continue
		}
		p.arcs[next[l.A]] = arc{peer: int32(l.B), lanes: int32(l.Lanes), aSide: true}
		p.arcs[next[l.B]] = arc{peer: int32(l.A), lanes: int32(l.Lanes)}
		next[l.A]++
		next[l.B]++
	}
	// A node takes its predecessor's class when their arc lists are equal
	// element for element. The indirect topologies number each stage's
	// nodes consecutively, so this finds every interchangeable pair in
	// them; a pair it misses is merely evaluated.
	for v := range p.class {
		p.class[v] = int32(v)
		if v > 0 && slices.Equal(p.nodeArcs(v), p.nodeArcs(v-1)) {
			p.class[v] = p.class[v-1]
		}
	}
	return p, nil
}

// New places the topology's nodes uniformly at random onto a rows x cols
// grid (one node per cell) and routes all logical links. It fails if the
// grid cannot hold the topology.
func New(t *topo.Topology, rows, cols int, rng *rand.Rand) (*Placement, error) {
	p, err := newPlacement(t, rows, cols)
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(rows * cols)
	for i := range p.pos {
		p.pos[i] = perm[i]
		p.cell[perm[i]] = i
	}
	p.routeLinks(1)
	return p, nil
}

// NewWithPositions places node i at positions[i]. Used for identity
// layouts of native mesh topologies and for tests.
func NewWithPositions(t *topo.Topology, rows, cols int, positions []int) (*Placement, error) {
	if len(positions) != len(t.Nodes) {
		return nil, fmt.Errorf("mapping: %d positions for %d nodes", len(positions), len(t.Nodes))
	}
	p, err := newPlacement(t, rows, cols)
	if err != nil {
		return nil, err
	}
	for i, c := range positions {
		if c < 0 || c >= rows*cols {
			return nil, fmt.Errorf("mapping: position %d out of range", c)
		}
		if p.cell[c] != -1 {
			return nil, fmt.Errorf("mapping: cell %d assigned twice", c)
		}
		p.pos[i] = c
		p.cell[c] = i
	}
	p.routeLinks(1)
	return p, nil
}

// nodeArcs returns node n's links.
func (p *Placement) nodeArcs(n int) []arc { return p.arcs[p.arcOff[n]:p.arcOff[n+1]] }

// routeLinks adds (sign 1) or removes (sign -1) the paths of every
// logical link.
func (p *Placement) routeLinks(sign int) {
	for _, l := range p.Topo.Links {
		p.totalLaneHops += p.route(p.hDiff, p.vDiff, p.pos[l.A], p.pos[l.B], sign*l.Lanes)
	}
}

// route adds (or with negative lanes, removes) the dimension-order path
// from cell ca to cell cb to the difference arrays h and v, and returns
// the lane-hops it adds: along ca's row to cb's column, then along that
// column to cb. Each segment adds lanes at its lower end's difference
// entry and subtracts them at its upper end's. It is kept small enough
// for the compiler to inline into moveNode, the optimizers' hot loop.
func (p *Placement) route(h, v []int, ca, cb, lanes int) int {
	dc := p.col[cb] - p.col[ca]
	dr := p.row[cb] - p.row[ca]
	// x and y are the lanes signed by dc and dr, taken as positive at
	// zero: a segment of length zero starts and ends on one entry and
	// cancels out. ca+dc is the corner, in ca's row and cb's column.
	x, y := (1|dc>>63)*lanes, (1|dr>>63)*lanes
	h[ca] += x
	h[ca+dc] -= x
	v[ca+dc] += y
	v[cb] -= y
	return dc*x + dr*y
}

// MaxLoad returns C(M): the maximum lane load on any mesh edge.
func (p *Placement) MaxLoad() int { return p.peakLoad(p.hDiff, p.vDiff, math.MaxInt) }

// peakLoad returns the highest edge load that the difference arrays h
// and v hold, found by one prefix-sum scan of each row and then of each
// column. It stops at the first edge whose load exceeds bound and returns
// that load, which is then a lower bound of the peak.
func (p *Placement) peakLoad(h, v []int, bound int) int {
	m := 0
	for r := 0; r < p.Rows; r++ {
		load := 0
		for _, d := range h[r*p.Cols : (r+1)*p.Cols-1] {
			load += d
			if load > m {
				if load > bound {
					return load
				}
				m = load
			}
		}
	}
	for c := 0; c < p.Cols; c++ {
		load := 0
		for i := c; i < (p.Rows-1)*p.Cols; i += p.Cols {
			load += v[i]
			if load > m {
				if load > bound {
					return load
				}
				m = load
			}
		}
	}
	return m
}

// TotalLaneHops returns the sum over logical links of lanes x physical
// path length, including any routed external escape paths.
func (p *Placement) TotalLaneHops() int { return p.totalLaneHops }

// Loads returns the horizontal and vertical edge loads (for utilization
// maps such as Fig 8): h[r*(Cols-1)+c] is the load between (r,c) and
// (r,c+1), v[r*Cols+c] the load between (r,c) and (r+1,c).
func (p *Placement) Loads() (h, v []int) {
	h = make([]int, p.Rows*(p.Cols-1))
	v = make([]int, (p.Rows-1)*p.Cols)
	for r := 0; r < p.Rows; r++ {
		load := 0
		for c := 0; c < p.Cols-1; c++ {
			load += p.hDiff[r*p.Cols+c]
			h[r*(p.Cols-1)+c] = load
		}
	}
	for c := 0; c < p.Cols; c++ {
		load := 0
		for r := 0; r < p.Rows-1; r++ {
			load += p.vDiff[r*p.Cols+c]
			v[r*p.Cols+c] = load
		}
	}
	return h, v
}

// NodeCell returns the grid coordinates of a node.
func (p *Placement) NodeCell(node int) (row, col int) {
	c := p.pos[node]
	return p.row[c], p.col[c]
}

// Cost is the lexicographic optimization objective: the bottleneck
// channel load first (the paper's C(M)), total lane-hops second.
type Cost struct {
	MaxLoad  int
	LaneHops int
}

// Less reports whether c is strictly better than d.
func (c Cost) Less(d Cost) bool {
	if c.MaxLoad != d.MaxLoad {
		return c.MaxLoad < d.MaxLoad
	}
	return c.LaneHops < d.LaneHops
}

// Cost returns the placement's current cost.
func (p *Placement) Cost() Cost {
	return Cost{MaxLoad: p.MaxLoad(), LaneHops: p.totalLaneHops}
}

// moveNode adds to the difference arrays h and v the change in path
// loads that moving node n from cell from to cell to makes, and returns
// the change in lane-hops. Every peer stays at its cell in pos, except
// node other, which moves from cell of to cell ot at the same time; with
// of = -1 the links to other are left out.
func (p *Placement) moveNode(h, v []int, n, from, to, other, of, ot int) int {
	hops := 0
	for _, a := range p.nodeArcs(n) {
		pf := p.pos[a.peer]
		pt := pf
		if int(a.peer) == other {
			if of == -1 {
				continue
			}
			pf, pt = of, ot
		}
		l := int(a.lanes)
		if a.aSide {
			hops += p.route(h, v, from, pf, -l) + p.route(h, v, to, pt, l)
		} else {
			hops += p.route(h, v, pf, from, -l) + p.route(h, v, pt, to, l)
		}
	}
	return hops
}

// worstCost is above every cost a placement can have: a swap scored
// against it by swapCost gets its exact cost.
var worstCost = Cost{MaxLoad: math.MaxInt, LaneHops: math.MaxInt}

// swapCost scores the exchange of the contents of cells ca and cb (either
// may be empty) without changing the placement: it routes the paths the
// swap moves into a scratch copy of the difference arrays, sh and sv, and
// scans the copy for its peak load. The scan stops at the first edge that
// rules out beating limit, so the result is Less than limit exactly when
// the swap's cost is, and then it is that cost.
func (p *Placement) swapCost(ca, cb int, limit Cost) Cost {
	if p.sh == nil {
		s := make([]int, len(p.hDiff)+len(p.vDiff))
		p.sh, p.sv = s[:len(p.hDiff):len(p.hDiff)], s[len(p.hDiff):]
	}
	p.evaluations++
	copy(p.sh, p.hDiff)
	copy(p.sv, p.vDiff)
	// Links between the two nodes move once, with nb. -1 never matches a
	// peer, so a node swapped with an empty cell moves all of its links.
	na, nb := p.cell[ca], p.cell[cb]
	c := Cost{LaneHops: p.totalLaneHops}
	if na != -1 {
		c.LaneHops += p.moveNode(p.sh, p.sv, na, ca, cb, nb, -1, -1)
	}
	if nb != -1 {
		c.LaneHops += p.moveNode(p.sh, p.sv, nb, cb, ca, na, ca, cb)
	}
	// c beats limit exactly when no edge carries more than bound.
	bound := limit.MaxLoad - 1
	if c.LaneHops < limit.LaneHops {
		bound = limit.MaxLoad // an equal peak wins on lane-hops
	}
	if bound < 0 {
		return c // no load is below zero, so c, at peak 0, loses too
	}
	c.MaxLoad = p.peakLoad(p.sh, p.sv, bound)
	return c
}

// commitSwap makes the swap of cells ca and cb that swapCost scored last,
// whatever its limit: the scratch arrays, which hold the loads after it,
// become the placement's difference arrays, the lane-hops become the
// score's, and the two cells exchange their contents.
func (p *Placement) commitSwap(ca, cb, laneHops int) {
	p.hDiff, p.sh = p.sh, p.hDiff
	p.vDiff, p.sv = p.sv, p.vDiff
	p.totalLaneHops = laneHops
	na, nb := p.cell[ca], p.cell[cb]
	p.cell[ca], p.cell[cb] = nb, na
	if na != -1 {
		p.pos[na] = cb
	}
	if nb != -1 {
		p.pos[nb] = ca
	}
}

// Optimize runs the paper's Algorithm 1: repeated sweeps over all cell
// pairs, keeping any swap that improves the cost, until a full sweep
// makes no improvement or maxPasses is reached. It returns the number of
// passes executed. Optimize must be called before RouteExternal.
//
// Each candidate swap is scored by swapCost without moving a node, and
// only a swap that improves the cost is committed. A pair of nodes of one
// class is skipped. Exchanging them re-routes the same set of paths: each
// link of one moves to the cell the matching link of the other left, with
// the same peer, lanes and direction, and two such nodes are never linked
// to each other, as that would take a self-link. So the swap would leave
// the cost equal and be rejected.
func (p *Placement) Optimize(maxPasses int) int {
	if p.externalRouted {
		panic("mapping: Optimize called after RouteExternal")
	}
	cells := p.Rows * p.Cols
	best := p.Cost()
	passes := 0
	for passes < maxPasses {
		passes++
		improved := false
		for ca := 0; ca < cells; ca++ {
			for cb := ca + 1; cb < cells; cb++ {
				na, nb := p.cell[ca], p.cell[cb]
				if na == nb || (na != -1 && nb != -1 && p.class[na] == p.class[nb]) {
					continue // two empty cells, or two nodes of one class
				}
				if c := p.swapCost(ca, cb, best); c.Less(best) {
					p.commitSwap(ca, cb, c.LaneHops)
					best = c
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return passes
}

// Best runs the optimizer from `restarts` random initial placements and
// returns the placement with the lowest cost. The paper uses 1000
// restarts but reports <1% spread; we default to fewer for speed (the
// caller chooses).
func Best(t *topo.Topology, rows, cols, restarts int, seed int64) (*Placement, error) {
	return bestOf(t, rows, cols, restarts, seed, func(p *Placement, _ *rand.Rand) { p.Optimize(50) })
}

// bestOf draws `restarts` (at least one) random initial placements from
// one rng seeded with seed, runs optimize on each right after drawing
// it, and returns the one with the lowest cost, counting the swap
// evaluations of every restart.
func bestOf(t *topo.Topology, rows, cols, restarts int, seed int64, optimize func(*Placement, *rand.Rand)) (*Placement, error) {
	rng := rand.New(rand.NewSource(seed))
	var best *Placement
	var bestCost Cost
	evaluations := 0
	for i := 0; i < max(restarts, 1); i++ {
		p, err := New(t, rows, cols, rng)
		if err != nil {
			return nil, err
		}
		optimize(p, rng)
		evaluations += p.evaluations
		if c := p.Cost(); best == nil || c.Less(bestCost) {
			best, bestCost = p, c
		}
	}
	best.evaluations = evaluations
	return best, nil
}

// SwapEvaluations returns the number of candidate swaps scored on the
// way to p: by every Optimize and Anneal call on it and, when p is the
// result of Best or BestAnnealed, on every one of their restarts. Unlike
// a timing, it is the same on every host.
func (p *Placement) SwapEvaluations() int { return p.evaluations }
