package sim

import (
	"fmt"
	"math"
	"sort"
)

// SaturationSearchOptions configures FindSaturation.
type SaturationSearchOptions struct {
	// Lo and Hi bracket the search in offered load. Lo defaults to 0
	// (zero load trivially drains and is never simulated); Hi defaults
	// to 0.95 and must stay in (Lo, 1].
	Lo, Hi float64
	// Tol is the absolute load tolerance the knee is located to
	// (default 0.02): the returned bracket satisfies
	// FirstSaturatedLoad - LastDrainedLoad <= Tol.
	Tol float64
	// MaxEvals caps the simulated points as a safety net (default 32 —
	// far above the log2((Hi-Lo)/Tol)+2 a normal search needs).
	MaxEvals int
	// Abort arms the early-abort saturation detector on every probed
	// point, so the saturated half of the bracket costs a fraction of
	// its drain budget (see Network.SetAbort).
	Abort bool
}

// SaturationResult is the outcome of a bisection saturation search.
type SaturationResult struct {
	// Saturated reports whether any probed load failed to drain. When
	// false the network never saturated within the bracket and
	// FirstSaturatedLoad is 0.
	Saturated bool `json:"saturated"`
	// FirstSaturatedLoad is the lowest probed load that failed to
	// drain; the true knee lies in
	// (LastDrainedLoad, FirstSaturatedLoad], a bracket at most Tol
	// wide (except when the knee sits at or below Lo, reported as
	// FirstSaturatedLoad == Lo).
	FirstSaturatedLoad float64 `json:"first_saturated_load,omitempty"`
	// LastDrainedLoad is the highest probed load that drained (0 when
	// even Lo saturated).
	LastDrainedLoad float64 `json:"last_drained_load,omitempty"`
	// SaturationThroughput is the highest accepted throughput across
	// all probed points — accepted throughput plateaus past the knee,
	// so this matches an exhaustive grid to within the plateau's
	// flatness.
	SaturationThroughput float64 `json:"saturation_throughput"`
	// Evaluations counts the simulated points.
	Evaluations int `json:"evaluations"`
	// Points holds every probed point's stats in ascending load order.
	Points []SweepPoint `json:"points"`
}

// FindSaturation locates the saturation knee — the lowest offered load
// that fails to drain — by bisection over (Lo, Hi], in
// O(log((Hi-Lo)/Tol)) simulated points instead of a full grid. The
// search is strictly sequential and each evaluation reuses the
// PointSeed derivation (seed = base + evaluation index); since the
// bisection path is itself a deterministic function of per-point
// outcomes, which are deterministic per seed, the whole search
// reproduces bit-identically no matter how the caller parallelizes
// around it.
//
// Edge bounds: a network that drains at Hi returns Saturated=false
// after one evaluation; a network already saturated at Lo returns
// FirstSaturatedLoad=Lo (the knee is at or below the bracket floor). A
// NaN or infinite Lo, Hi or Tol is an error.
func FindSaturation(build Builder, injf InjectorFactory, opt SaturationSearchOptions) (*SaturationResult, error) {
	for _, v := range []float64{opt.Lo, opt.Hi, opt.Tol} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sim: FindSaturation Lo, Hi or Tol %v is not finite", v)
		}
	}
	lo, hi := opt.Lo, opt.Hi
	if hi <= 0 {
		hi = 0.95
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 0.02
	}
	maxEvals := opt.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 32
	}
	if lo < 0 || hi > 1 || lo >= hi {
		return nil, fmt.Errorf("sim: FindSaturation bracket [%v, %v] invalid", lo, hi)
	}

	res := &SaturationResult{}
	// The search is strictly sequential, so one network serves every
	// evaluation: built on the first, Reset between the rest (seeded by
	// evaluation index, exactly as the fresh-build-per-eval version
	// was). Reset clears the abort detector, so it is re-armed per
	// evaluation.
	var wn workerNet
	eval := func(load float64) (Stats, error) {
		n, err := wn.get(build, res.Evaluations)
		if err != nil {
			return Stats{}, err
		}
		n.SetAbort(opt.Abort)
		inj, err := injf(load)
		if err != nil {
			return Stats{}, err
		}
		st := n.Run(inj, load)
		res.Evaluations++
		res.Points = append(res.Points, SweepPoint{Stats: st})
		if st.Accepted > res.SaturationThroughput {
			res.SaturationThroughput = st.Accepted
		}
		return st, nil
	}
	finalize := func() *SaturationResult {
		sort.Slice(res.Points, func(i, j int) bool {
			return res.Points[i].Stats.Offered < res.Points[j].Stats.Offered
		})
		return res
	}

	st, err := eval(hi)
	if err != nil {
		return nil, err
	}
	if st.Drained {
		res.LastDrainedLoad = hi
		return finalize(), nil // never saturates within the bracket
	}
	res.Saturated = true
	if lo > 0 {
		st, err := eval(lo)
		if err != nil {
			return nil, err
		}
		if !st.Drained {
			res.FirstSaturatedLoad = lo // knee at or below the floor
			return finalize(), nil
		}
		res.LastDrainedLoad = lo
	}
	for hi-lo > tol && res.Evaluations < maxEvals {
		mid := (lo + hi) / 2
		st, err := eval(mid)
		if err != nil {
			return nil, err
		}
		if st.Drained {
			lo = mid
			res.LastDrainedLoad = mid
		} else {
			hi = mid
		}
	}
	res.FirstSaturatedLoad = hi
	return finalize(), nil
}
