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
	row []int32
	col []int32

	// hDiff and vDiff hold the channel loads as difference arrays indexed
	// by cell. The load on the horizontal edge between (r,c) and (r,c+1)
	// is the sum of hDiff over cells (r,0)..(r,c); the load on the
	// vertical edge between (r,c) and (r+1,c) is the sum of vDiff over
	// cells (0,c)..(r,c). A dimension-order path is one row segment plus
	// one column segment, so routing it touches four entries whatever its
	// length. Loads count bidirectional lanes.
	hDiff []int
	vDiff []int

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

	// externalLaneHops accumulates the lane-hops of periphery escape
	// paths added by RouteExternal.
	externalLaneHops int
	externalRouted   bool
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
		row:    make([]int32, cells),
		col:    make([]int32, cells),
		hDiff:  make([]int, cells),
		vDiff:  make([]int, cells),
		arcs:   make([]arc, 2*len(t.Links)),
		arcOff: make([]int, n+1),
		class:  make([]int32, n),
	}
	for c := range p.cell {
		p.cell[c] = -1
		p.row[c], p.col[c] = int32(c/cols), int32(c%cols)
	}
	for _, l := range t.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n || l.Lanes < 1 || l.Lanes > math.MaxInt32 {
			return nil, fmt.Errorf("mapping: link (%d,%d) with %d lanes is out of range", l.A, l.B, l.Lanes)
		}
		p.arcOff[l.A+1]++
		p.arcOff[l.B+1]++
	}
	for i := 1; i <= n; i++ {
		p.arcOff[i] += p.arcOff[i-1]
	}
	// pos is not filled yet, so it serves as each node's fill cursor.
	next := p.pos
	copy(next, p.arcOff[:n])
	for _, l := range t.Links {
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
		p.route(p.pos[l.A], p.pos[l.B], sign*l.Lanes)
	}
}

// route adds (or with negative lanes, removes) the dimension-order path
// from cell ca to cell cb: along ca's row to cb's column, then along that
// column to cb. Each segment adds lanes at its lower end's difference
// entry and subtracts them at its upper end's.
func (p *Placement) route(ca, cb, lanes int) {
	dc := int(p.col[cb]) - int(p.col[ca])
	dr := int(p.row[cb]) - int(p.row[ca])
	corner := ca + dc // ca's row, cb's column
	// sx and sy are the signs of dc and dr, taken as 1 at zero: a segment
	// of length zero starts and ends on one entry and cancels out.
	sx, sy := 1|dc>>63, 1|dr>>63
	p.hDiff[ca] += sx * lanes
	p.hDiff[corner] -= sx * lanes
	p.vDiff[corner] += sy * lanes
	p.vDiff[cb] -= sy * lanes
	p.totalLaneHops += (sx*dc + sy*dr) * lanes
}

// MaxLoad returns C(M): the maximum lane load on any mesh edge, found by
// one prefix-sum scan of each row and each column.
func (p *Placement) MaxLoad() int {
	m := 0
	for r := 0; r < p.Rows; r++ {
		load := 0
		for _, d := range p.hDiff[r*p.Cols : (r+1)*p.Cols-1] {
			load += d
			m = max(m, load)
		}
	}
	for c := 0; c < p.Cols; c++ {
		load := 0
		for i := c; i < (p.Rows-1)*p.Cols; i += p.Cols {
			load += p.vDiff[i]
			m = max(m, load)
		}
	}
	return m
}

// TotalLaneHops returns the sum over logical links of lanes x physical
// path length, including any routed external escape paths.
func (p *Placement) TotalLaneHops() int { return p.totalLaneHops }

// ExternalLaneHops returns the lane-hops contributed by periphery escape
// routing (zero until RouteExternal is called).
func (p *Placement) ExternalLaneHops() int { return p.externalLaneHops }

// InternalLaneHops returns the lane-hops of logical topology links only.
func (p *Placement) InternalLaneHops() int { return p.totalLaneHops - p.externalLaneHops }

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
	return int(p.row[c]), int(p.col[c])
}

// AvgLinkHops returns the average physical path length of a logical lane.
func (p *Placement) AvgLinkHops() float64 {
	lanes := 0
	for _, l := range p.Topo.Links {
		lanes += l.Lanes
	}
	if lanes == 0 {
		return 0
	}
	return float64(p.InternalLaneHops()) / float64(lanes)
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

// routeNode adds (sign 1) or removes (sign -1) the paths of node n's
// links, except those to node skip. Used for incremental swap evaluation.
func (p *Placement) routeNode(n, skip, sign int) {
	c := p.pos[n]
	for _, a := range p.nodeArcs(n) {
		if int(a.peer) == skip {
			continue // handled once by the caller for links between the pair
		}
		if a.aSide {
			p.route(c, p.pos[a.peer], sign*int(a.lanes))
		} else {
			p.route(p.pos[a.peer], c, sign*int(a.lanes))
		}
	}
}

// swapCells exchanges the contents of two cells (either may be empty),
// keeping the channel loads consistent. Links between the two nodes are
// unrouted/rerouted exactly once.
func (p *Placement) swapCells(ca, cb int) {
	na, nb := p.cell[ca], p.cell[cb]
	if na == nb { // both empty
		return
	}
	// -1 never matches a peer, so nb's links to na are moved with nb.
	if na != -1 {
		p.routeNode(na, nb, -1)
	}
	if nb != -1 {
		p.routeNode(nb, -1, -1)
	}
	p.cell[ca], p.cell[cb] = nb, na
	if na != -1 {
		p.pos[na] = cb
	}
	if nb != -1 {
		p.pos[nb] = ca
	}
	if na != -1 {
		p.routeNode(na, nb, 1)
	}
	if nb != -1 {
		p.routeNode(nb, -1, 1)
	}
}

// Optimize runs the paper's Algorithm 1: repeated sweeps over all cell
// pairs, keeping any swap that improves the cost, until a full sweep
// makes no improvement or maxPasses is reached. It returns the number of
// passes executed. Optimize must be called before RouteExternal.
//
// A pair of nodes of one class is skipped. Exchanging them re-routes the
// same set of paths: each link of one moves to the cell the matching link
// of the other left, with the same peer, lanes and direction, and two
// such nodes are never linked to each other, as that would take a
// self-link. So the swap would leave the cost equal and be reverted.
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
				p.swapCells(ca, cb)
				if c := p.Cost(); c.Less(best) {
					best = c
					improved = true
				} else {
					p.swapCells(ca, cb) // revert
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
	if restarts < 1 {
		restarts = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var best *Placement
	var bestCost Cost
	for i := 0; i < restarts; i++ {
		p, err := New(t, rows, cols, rng)
		if err != nil {
			return nil, err
		}
		p.Optimize(50)
		if c := p.Cost(); best == nil || c.Less(bestCost) {
			best, bestCost = p, c
		}
	}
	return best, nil
}
