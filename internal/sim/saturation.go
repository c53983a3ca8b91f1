package sim

import (
	"fmt"
	"math"
	"sort"
)

// maxSaturationEvals caps FindSaturation's simulated points as a safety
// net, far above the log2(Hi/Tol)+1 a normal search needs.
const maxSaturationEvals = 32

// SaturationSearchOptions configures FindSaturation.
type SaturationSearchOptions struct {
	// Hi tops the search bracket (0, Hi] in offered load: zero load
	// trivially drains and is never simulated. Hi defaults to 0.95 and
	// must not exceed 1.
	Hi float64
	// Tol is the absolute load tolerance the knee is located to
	// (default 0.02): the returned bracket satisfies
	// FirstSaturatedLoad - LastDrainedLoad <= Tol.
	Tol float64
	// Abort arms the early-abort saturation detector on every probed
	// point, so the saturated half of the bracket costs a fraction of
	// its drain budget (see Network.ArmAbort).
	Abort bool
}

// SaturationResult is the outcome of a bisection saturation search.
type SaturationResult struct {
	// Saturated reports whether any probed load failed to drain. When
	// false the network never saturated within the bracket and
	// FirstSaturatedLoad is 0.
	Saturated bool `json:"saturated"`
	// FirstSaturatedLoad is the lowest probed load that failed to
	// drain; the true knee lies in (LastDrainedLoad,
	// FirstSaturatedLoad], a bracket at most Tol wide.
	FirstSaturatedLoad float64 `json:"first_saturated_load,omitempty"`
	// LastDrainedLoad is the highest probed load that drained (0 when
	// every probed load saturated).
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
// that fails to drain — by bisection over (0, Hi], in
// O(log(Hi/Tol)) simulated points instead of a full grid. The
// search is strictly sequential and each evaluation reuses the
// PointSeed derivation (seed = base + evaluation index); since the
// bisection path is itself a deterministic function of per-point
// outcomes, which are deterministic per seed, the whole search
// reproduces bit-identically no matter how the caller parallelizes
// around it.
//
// Edge bounds: a network that drains at Hi returns Saturated=false
// after one evaluation; the search stops after maxSaturationEvals
// evaluations with the bracket it has. A NaN or infinite Hi or Tol is
// an error.
func FindSaturation(build Builder, injf InjectorFactory, opt SaturationSearchOptions) (*SaturationResult, error) {
	for _, v := range []float64{opt.Hi, opt.Tol} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sim: FindSaturation Hi or Tol %v is not finite", v)
		}
	}
	lo, hi := 0.0, opt.Hi
	if hi <= 0 {
		hi = 0.95
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 0.02
	}
	if hi > 1 {
		return nil, fmt.Errorf("sim: FindSaturation bracket (0, %v] invalid", hi)
	}

	res := &SaturationResult{}
	// The search is strictly sequential, so one network serves every
	// evaluation: built on the first, Reset between the rest (seeded by
	// evaluation index, exactly as the fresh-build-per-eval version
	// was). Reset clears the abort detector, so it is re-armed per
	// evaluation.
	var wn workerNet
	eval := func(load float64) (Stats, error) {
		n, err := wn.get(build, 0, res.Evaluations)
		if err != nil {
			return Stats{}, err
		}
		if opt.Abort {
			n.ArmAbort()
		}
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
	for hi-lo > tol && res.Evaluations < maxSaturationEvals {
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
