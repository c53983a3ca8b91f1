package sim

import (
	"encoding/json"
	"testing"

	"waferswitch/internal/traffic"
)

// satMesh returns the mesh family fixture (saturates just below load
// 0.05 under uniform traffic) as a builder/injector pair.
func satMesh(t *testing.T) (Builder, InjectorFactory) {
	t.Helper()
	fam := abortFamilies(t)[1]
	build := func() (*Network, error) { return Build(fam.top, ConstantLatency(1), fam.cfg) }
	injf := SyntheticInjector(traffic.Uniform(fam.top.ExternalPorts()), fam.cfg.PacketFlits)
	return build, injf
}

// TestFindSaturationMatchesGrid pins the bisection search against an
// exhaustive grid over the same bracket: the bisected knee must land
// within one tolerance of the first grid load that fails to drain, and
// the search must spend only O(log(1/tol)) evaluations against the
// grid's linear cost.
func TestFindSaturationMatchesGrid(t *testing.T) {
	build, injf := satMesh(t)
	tol := 0.02
	res, err := FindSaturation(build, injf, SaturationSearchOptions{
		Hi: 0.4, Tol: tol, Abort: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("mesh sweep did not saturate by load 0.4")
	}

	step := 0.02
	loads := []float64{}
	for l := step; l <= 0.4+1e-9; l += step {
		loads = append(loads, l)
	}
	grid, err := Sweep(build, injf, loads, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gridKnee, ok := FirstSaturatedLoad(grid.Stats())
	if !ok {
		t.Fatal("exhaustive grid did not saturate")
	}
	// The grid quantizes the knee to its step and the bisection to its
	// tolerance; the two estimates must agree within the sum.
	if diff := res.FirstSaturatedLoad - gridKnee; diff > tol+step || diff < -(tol+step) {
		t.Errorf("bisected knee %.4f vs grid knee %.4f: outside tolerance %.4f",
			res.FirstSaturatedLoad, gridKnee, tol+step)
	}
	if res.FirstSaturatedLoad <= res.LastDrainedLoad {
		t.Errorf("bracket inverted: first saturated %.4f <= last drained %.4f",
			res.FirstSaturatedLoad, res.LastDrainedLoad)
	}
	if res.FirstSaturatedLoad-res.LastDrainedLoad > tol+1e-9 {
		t.Errorf("bracket wider than tolerance: (%.4f, %.4f]",
			res.LastDrainedLoad, res.FirstSaturatedLoad)
	}
	if res.Evaluations >= len(loads) {
		t.Errorf("bisection used %d evaluations, grid only needed %d — no win",
			res.Evaluations, len(loads))
	}
}

// TestFindSaturationDeterministic pins that the search is a pure
// function of its inputs: repeated runs (the search is sequential, so
// caller-side worker counts cannot reorder it) produce byte-identical
// results, with and without the early-abort detector.
func TestFindSaturationDeterministic(t *testing.T) {
	build, injf := satMesh(t)
	for _, abort := range []bool{false, true} {
		opt := SaturationSearchOptions{Hi: 0.4, Tol: 0.02, Abort: abort}
		first, err := FindSaturation(build, injf, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			again, err := FindSaturation(build, injf, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(again)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("abort=%v rep %d: search result diverged", abort, rep)
			}
		}
	}
}

// TestFindSaturationAbortAgreesWithFull pins that arming the detector
// changes only wall-clock, never the search's answer: every probed
// point's drain classification — and therefore the whole bisection path
// and the reported knee — matches the detector-free search.
func TestFindSaturationAbortAgreesWithFull(t *testing.T) {
	build, injf := satMesh(t)
	full, err := FindSaturation(build, injf, SaturationSearchOptions{Hi: 0.4, Tol: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FindSaturation(build, injf, SaturationSearchOptions{Hi: 0.4, Tol: 0.02, Abort: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast.FirstSaturatedLoad != full.FirstSaturatedLoad ||
		fast.LastDrainedLoad != full.LastDrainedLoad ||
		fast.SaturationThroughput != full.SaturationThroughput ||
		fast.Evaluations != full.Evaluations {
		t.Errorf("abort changed the search result:\nfull %+v\nfast %+v", full, fast)
	}
}

// TestFindSaturationNeverSaturates pins the upper edge bound: a network
// that drains at Hi reports Saturated=false after exactly one
// evaluation — no pointless bisection of a bracket with no knee inside.
func TestFindSaturationNeverSaturates(t *testing.T) {
	build, injf := satMesh(t)
	res, err := FindSaturation(build, injf, SaturationSearchOptions{Hi: 0.03, Tol: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("mesh at load 0.03 should drain: %+v", res)
	}
	if res.Evaluations != 1 {
		t.Errorf("never-saturating bracket took %d evaluations, want 1", res.Evaluations)
	}
	if res.FirstSaturatedLoad != 0 || res.LastDrainedLoad != 0.03 {
		t.Errorf("edge result: %+v", res)
	}
}

// TestFindSaturationAlwaysSaturated pins the lower edge bound: a
// bracket whose floor already saturates reports FirstSaturatedLoad=Lo
// after two evaluations (Hi then Lo) — the knee is at or below the
// floor and bisecting inside the bracket cannot refine that.
func TestFindSaturationAlwaysSaturated(t *testing.T) {
	build, injf := satMesh(t)
	res, err := FindSaturation(build, injf, SaturationSearchOptions{Lo: 0.2, Hi: 0.4, Tol: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("mesh at load 0.2 should saturate: %+v", res)
	}
	if res.Evaluations != 2 {
		t.Errorf("always-saturated bracket took %d evaluations, want 2", res.Evaluations)
	}
	if res.FirstSaturatedLoad != 0.2 || res.LastDrainedLoad != 0 {
		t.Errorf("edge result: FirstSaturatedLoad=%v LastDrainedLoad=%v, want 0.2/0",
			res.FirstSaturatedLoad, res.LastDrainedLoad)
	}
}

// TestFindSaturationMaxEvals pins the evaluation cap: an absurdly tight
// tolerance stops at MaxEvals instead of bisecting forever.
func TestFindSaturationMaxEvals(t *testing.T) {
	build, injf := satMesh(t)
	res, err := FindSaturation(build, injf, SaturationSearchOptions{Hi: 0.4, Tol: 1e-12, MaxEvals: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 6 {
		t.Errorf("capped search used %d evaluations, want exactly 6", res.Evaluations)
	}
	if !res.Saturated || res.FirstSaturatedLoad == 0 {
		t.Errorf("capped search still must report its best bracket: %+v", res)
	}
}

// TestFindSaturationBadBracket pins input validation.
func TestFindSaturationBadBracket(t *testing.T) {
	build, injf := satMesh(t)
	for _, opt := range []SaturationSearchOptions{
		{Lo: 0.5, Hi: 0.4},
		{Lo: -0.1, Hi: 0.4},
		{Hi: 1.5},
	} {
		if _, err := FindSaturation(build, injf, opt); err == nil {
			t.Errorf("bracket %+v accepted, want error", opt)
		}
	}
}

// TestFindSaturationPointsSorted pins that Points come back in
// ascending offered-load order regardless of the probe order.
func TestFindSaturationPointsSorted(t *testing.T) {
	build, injf := satMesh(t)
	res, err := FindSaturation(build, injf, SaturationSearchOptions{Hi: 0.4, Tol: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Stats.Offered < res.Points[i-1].Stats.Offered {
			t.Fatalf("points not sorted by offered load: %v then %v",
				res.Points[i-1].Stats.Offered, res.Points[i].Stats.Offered)
		}
	}
	if len(res.Points) != res.Evaluations {
		t.Errorf("%d points for %d evaluations", len(res.Points), res.Evaluations)
	}
}
