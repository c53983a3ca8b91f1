package mapping

import (
	"math"
	"math/rand"

	"waferswitch/internal/topo"
)

// Anneal optimizes a placement by simulated annealing over random cell
// swaps, as an alternative to the paper's greedy pairwise-exchange
// heuristic (Algorithm 1). The paper argues pairwise exchange explores
// local optima well with restarts; annealing explores a single longer
// trajectory that can cross cost barriers. BenchmarkAnnealVsPairwise
// compares the two at equal time budgets.
//
// The energy is the same lexicographic cost as Optimize: bottleneck
// channel load first, total lane-hops as a dense tie-breaker (scaled so
// it never outweighs one unit of bottleneck load).
func (p *Placement) Anneal(sweeps int, rng *rand.Rand) {
	if p.externalRouted {
		panic("mapping: Anneal called after RouteExternal")
	}
	cells := p.Rows * p.Cols
	if cells < 2 || sweeps < 1 {
		return
	}
	energy := func() float64 {
		c := p.Cost()
		return float64(c.MaxLoad) + float64(c.LaneHops)*1e-7
	}
	cur := energy()
	bestPos := append([]int(nil), p.pos...)
	best := cur

	// Initial temperature from the typical uphill move size: sample a
	// few random swaps.
	var deltaSum float64
	const probes = 20
	for i := 0; i < probes; i++ {
		ca, cb := rng.Intn(cells), rng.Intn(cells)
		if ca == cb {
			continue
		}
		p.swapCells(ca, cb)
		e := energy()
		if d := e - cur; d > 0 {
			deltaSum += d
		}
		p.swapCells(ca, cb)
	}
	t0 := deltaSum/probes + 1
	moves := sweeps * cells

	for m := 0; m < moves; m++ {
		temp := t0 * math.Pow(0.01/t0, float64(m)/float64(moves))
		ca, cb := rng.Intn(cells), rng.Intn(cells)
		if ca == cb || (p.cell[ca] == -1 && p.cell[cb] == -1) {
			continue
		}
		p.swapCells(ca, cb)
		e := energy()
		d := e - cur
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			cur = e
			if cur < best {
				best = cur
				copy(bestPos, p.pos)
			}
		} else {
			p.swapCells(ca, cb)
		}
	}
	// Restore the best placement seen.
	p.restorePositions(bestPos)
}

// restorePositions rebuilds the placement at the given node positions.
func (p *Placement) restorePositions(positions []int) {
	p.routeLinks(-1)
	for i := range p.cell {
		p.cell[i] = -1
	}
	copy(p.pos, positions)
	for n, c := range p.pos {
		p.cell[c] = n
	}
	p.routeLinks(1)
}

// BestAnnealed runs annealing from `restarts` random initial placements
// and returns the best result, mirroring Best for the greedy optimizer.
func BestAnnealed(t *topo.Topology, rows, cols, restarts, sweeps int, seed int64) (*Placement, error) {
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
		p.Anneal(sweeps, rng)
		if c := p.Cost(); best == nil || c.Less(bestCost) {
			best, bestCost = p, c
		}
	}
	return best, nil
}
