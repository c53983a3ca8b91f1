package refsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"waferswitch/internal/sim"
	"waferswitch/internal/traffic"
)

// TestSimEquivalence is the headline differential test: the optimized
// simulator and the dense reference must produce bit-identical Stats,
// latency histograms and delivered-packet multisets across topology
// families and load points spanning zero-load to past saturation, with
// the runtime invariant checker clean on every optimized run.
func TestSimEquivalence(t *testing.T) {
	base := Spec{
		Pattern: "uniform",
		LinkLat: 2, VCs: 2, Buf: 8, Pkt: 2,
		RCI: 1, RCO: 1, Pipe: 1, Term: 1,
		Warmup: 50, Measure: 150, Seed: 42,
	}
	families := []string{"clos", "mesh", "fbfly", "dfly"}
	loads := []float64{0.05, 0.25, 0.6}
	for _, fam := range families {
		for _, load := range loads {
			s := base
			s.Family = fam
			s.Load = load
			t.Run(fmt.Sprintf("%s/load=%g", fam, load), func(t *testing.T) {
				rep, err := s.Diff()
				if err != nil {
					t.Fatalf("diff %s: %v", s, err)
				}
				if !rep.OK() {
					t.Fatalf("simulators diverge:\n%s", rep.Summary())
				}
				if rep.Opt.Completed == 0 {
					t.Fatalf("spec %s completed no packets; test is vacuous", s)
				}
			})
		}
	}
}

// TestSimEquivalencePatterns varies the traffic pattern and shape knobs
// on one family each, covering the pattern set and the non-trivial
// pipeline delays.
func TestSimEquivalencePatterns(t *testing.T) {
	specs := []Spec{
		{Family: "clos", Size: 1, Pattern: "tornado", LinkLat: 1, VCs: 4, Buf: 12, Pkt: 3, RCI: 2, RCO: 1, Pipe: 2, Term: 3, Warmup: 30, Measure: 100, Seed: 7, Load: 0.3},
		{Family: "mesh", Size: 2, Pattern: "neighbor", LinkLat: 3, VCs: 1, Buf: 4, Pkt: 4, RCI: 1, RCO: 2, Pipe: 0, Term: 0, Warmup: 60, Measure: 120, Seed: 99, Load: 0.15},
		{Family: "fbfly", Size: 1, Pattern: "asymmetric", LinkLat: 2, VCs: 3, Buf: 10, Pkt: 1, RCI: 3, RCO: 3, Pipe: 1, Term: 2, Warmup: 40, Measure: 200, Seed: 1234, Load: 0.4},
		{Family: "dfly", Size: 1, Pattern: "uniform", LinkLat: 4, VCs: 2, Buf: 6, Pkt: 2, RCI: 1, RCO: 1, Pipe: 2, Term: 1, Warmup: 25, Measure: 80, Seed: -5, Load: 0.5},
	}
	check := func(t *testing.T, s Spec) {
		rep, err := s.Diff()
		if err != nil {
			t.Fatalf("diff %s: %v", s, err)
		}
		if !rep.OK() {
			t.Fatalf("simulators diverge:\n%s", rep.Summary())
		}
	}
	for _, s := range specs {
		t.Run(s.Family+"/"+s.Pattern, func(t *testing.T) { check(t, s) })
	}
	// Tornado past the knee with 4 VCs on every family: adversarial
	// permutation traffic under each routing function.
	for _, fam := range []string{"clos", "mesh", "fbfly", "dfly"} {
		s := Spec{
			Family: fam, Size: 1, Pattern: "tornado",
			LinkLat: 2, VCs: 4, Buf: 8, Pkt: 2,
			RCI: 1, RCO: 1, Pipe: 1, Term: 1,
			Warmup: 40, Measure: 120, Seed: 7, Load: 0.6,
		}
		t.Run(fam+"/tornado/load=0.6", func(t *testing.T) { check(t, s) })
	}
}

// TestSimEquivalenceHighLoad drives the differential oracle through the
// regimes the packed-state fast paths are built for: VC depth from a
// single VC to the full 8 tracked per mask word, buffers at the
// single-packet minimum (Buf == Pkt) and comfortably deep, and offered
// loads at trickle (0.05), the throughput knee (~0.45) and well past
// saturation (0.95), where the arbitration masks stay dense and every
// credit-gated path is exercised. Bit-identical Stats, histograms and
// delivery multisets are required at every point.
func TestSimEquivalenceHighLoad(t *testing.T) {
	specs := []Spec{
		{Family: "clos", Size: 0, Pattern: "uniform", LinkLat: 1, VCs: 1, Buf: 4, Pkt: 4, RCI: 1, RCO: 1, Pipe: 1, Term: 1, Warmup: 50, Measure: 150, Seed: 11, Load: 0.95},
		{Family: "clos", Size: 1, Pattern: "tornado", LinkLat: 2, VCs: 8, Buf: 16, Pkt: 2, RCI: 2, RCO: 1, Pipe: 1, Term: 2, Warmup: 40, Measure: 120, Seed: 12, Load: 0.95},
		{Family: "mesh", Size: 1, Pattern: "neighbor", LinkLat: 1, VCs: 4, Buf: 6, Pkt: 3, RCI: 1, RCO: 1, Pipe: 2, Term: 1, Warmup: 50, Measure: 150, Seed: 13, Load: 0.45},
		{Family: "mesh", Size: 0, Pattern: "uniform", LinkLat: 2, VCs: 8, Buf: 2, Pkt: 2, RCI: 1, RCO: 2, Pipe: 0, Term: 0, Warmup: 30, Measure: 100, Seed: 14, Load: 0.95},
		{Family: "fbfly", Size: 1, Pattern: "uniform", LinkLat: 1, VCs: 4, Buf: 12, Pkt: 2, RCI: 2, RCO: 1, Pipe: 1, Term: 1, Warmup: 40, Measure: 120, Seed: 15, Load: 0.45},
		{Family: "fbfly", Size: 0, Pattern: "asymmetric", LinkLat: 2, VCs: 1, Buf: 3, Pkt: 3, RCI: 1, RCO: 1, Pipe: 1, Term: 2, Warmup: 40, Measure: 120, Seed: 16, Load: 0.95},
		{Family: "dfly", Size: 0, Pattern: "uniform", LinkLat: 1, VCs: 8, Buf: 8, Pkt: 1, RCI: 1, RCO: 1, Pipe: 1, Term: 1, Warmup: 40, Measure: 120, Seed: 17, Load: 0.05},
		{Family: "dfly", Size: 1, Pattern: "tornado", LinkLat: 2, VCs: 4, Buf: 4, Pkt: 4, RCI: 2, RCO: 2, Pipe: 2, Term: 1, Warmup: 40, Measure: 100, Seed: 18, Load: 0.95},
	}
	for _, s := range specs {
		s := s
		t.Run(fmt.Sprintf("%s/vcs=%d/buf=%d/load=%g", s.Family, s.VCs, s.Buf, s.Load), func(t *testing.T) {
			rep, err := s.Diff()
			if err != nil {
				t.Fatalf("diff %s: %v", s, err)
			}
			if !rep.OK() {
				t.Fatalf("simulators diverge:\n%s", rep.Summary())
			}
		})
	}
}

// TestSimEquivalenceSaturation10k holds a saturated network under
// offered load 0.95 for a 10k-cycle measurement window — two orders of
// magnitude longer than the fuzz cases — so slow state corruption in
// the packed queue and mask words (a head that creeps, a stale mask
// bit) has time to compound into a visible divergence instead of
// hiding inside a short window. The drain budget is deliberately small:
// the run must end saturated (not drained) identically in both
// simulators, covering the abort path of the measurement loop too.
func TestSimEquivalenceSaturation10k(t *testing.T) {
	s := Spec{Family: "clos", Size: 0, Pattern: "uniform", LinkLat: 2,
		VCs: 4, Buf: 8, Pkt: 2, RCI: 2, RCO: 1, Pipe: 1, Term: 2,
		Warmup: 200, Measure: 10000, Drain: 500, Seed: 4242, Load: 0.95}
	rep, err := s.Diff()
	if err != nil {
		t.Fatalf("diff %s: %v", s, err)
	}
	if !rep.OK() {
		t.Fatalf("simulators diverge:\n%s", rep.Summary())
	}
	if rep.Opt.Drained {
		t.Fatalf("spec %s drained; saturation test is vacuous (stats %+v)", s, rep.Opt)
	}
	if rep.Opt.Completed == 0 {
		t.Fatalf("spec %s completed no packets; test is vacuous", s)
	}
}

// TestSpecRoundTrip pins the replay contract: String o ParseSpec is the
// identity, so a tuple printed by a failing fuzz run reproduces the
// exact same case under wsswitch -replay; tuples printed while the
// sharded engine existed still parse when they name the serial run
// (shards=0|1); and values no run can use are errors, not panics or
// false divergences.
func TestSpecRoundTrip(t *testing.T) {
	s := SpecFromRaw(3, 1, 2, 0, 1, 7, 2, 0, 1, 2, 3, 77, 150, -12345, 333)
	s.Timeline, s.Attribution = true, true
	got, err := ParseSpec(s.String())
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", s.String(), err)
	}
	if got != s {
		t.Fatalf("round trip changed spec:\n  in  %+v\n  out %+v", s, got)
	}
	const base = "family=clos size=0 pattern=uniform link=1 load=0.25"
	want, err := ParseSpec(base)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", base, err)
	}
	for _, tok := range []string{"shards=0", "shards=1"} {
		t.Run("accept/"+tok, func(t *testing.T) {
			got, err := ParseSpec(base + " " + tok)
			if err != nil {
				t.Fatalf("ParseSpec with %s: %v", tok, err)
			}
			if got != want {
				t.Fatalf("%s changed the spec:\n  without %+v\n  with    %+v", tok, want, got)
			}
		})
	}
	for _, tc := range []struct{ in, wantErr string }{
		{"family=clos bogus=1", "unknown spec key"},
		{"size=1", "missing family"},
		{"family=clos size=-1", "outside 0..2"},
		{"family=fbfly size=-2", "outside 0..2"},
		{"family=clos size=3", "outside 0..2"},
		{"family=clos load=NaN", "finite and non-negative"},
		{"family=clos load=+Inf", "finite and non-negative"},
		{"family=clos load=-Inf", "finite and non-negative"},
		{"family=clos load=-0.1", "finite and non-negative"},
		{"family=clos shards=2", "sharded engine was removed"},
		{"family=clos shards=-1", "sharded engine was removed"},
	} {
		t.Run("reject/"+tc.in, func(t *testing.T) {
			_, err := ParseSpec(tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseSpec(%q) = %v, want an error containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

// TestSpecFromRawTotal: every raw tuple must map to a buildable,
// runnable spec (the fuzz mapping is total by contract).
func TestSpecFromRawTotal(t *testing.T) {
	for fam := uint8(0); fam < 4; fam++ {
		for size := uint8(0); size < 3; size++ {
			s := SpecFromRaw(fam, size, size, fam, size, fam, size, fam, size, fam, size, uint16(fam)*37, uint16(size)*91, int64(fam)*1000, uint16(size)*200)
			top, err := s.Build()
			if err != nil {
				t.Fatalf("SpecFromRaw produced unbuildable spec %s: %v", s, err)
			}
			if _, err := s.Injector(top.ExternalPorts()); err != nil {
				t.Fatalf("SpecFromRaw produced bad injector %s: %v", s, err)
			}
			if _, err := sim.Build(top, sim.ConstantLatency(s.LinkLat), s.Config()); err != nil {
				t.Fatalf("SpecFromRaw produced invalid sim config %s: %v", s, err)
			}
		}
	}
}

// TestRefsimZeroLoadLatency cross-checks the reference simulator on its
// own terms: at near-zero load on the smallest Clos, every packet's
// latency must equal the analytic zero-load path latency band (ingress
// RC + hops + channel latencies + pipeline delays), which the optimized
// simulator's own unit tests pin too.
func TestRefsimZeroLoadLatency(t *testing.T) {
	s := Spec{Family: "clos", Size: 0, Pattern: "uniform", LinkLat: 1,
		VCs: 2, Buf: 8, Pkt: 1, RCI: 1, RCO: 1, Pipe: 1, Term: 1,
		Warmup: 50, Measure: 200, Seed: 3, Load: 0.01}
	top, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := s.Injector(top.ExternalPorts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(top, sim.ConstantLatency(s.LinkLat), s.Config(), inj, s.Load)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Completed == 0 {
		t.Fatal("no packets completed at zero load")
	}
	if !res.Stats.Drained {
		t.Fatal("zero-load run failed to drain")
	}
	// Single-flit packets on clos-32: min path is intra-leaf (term
	// channel + RC + SA + egress pipeline), max crosses one spine.
	// Latency must sit in a tight band; a gross miss means the reference
	// pipeline itself is wrong, which would poison every diff.
	if res.Stats.AvgLatency < 4 || res.Stats.AvgLatency > 40 {
		t.Fatalf("implausible zero-load latency %.2f", res.Stats.AvgLatency)
	}
	for _, d := range res.Deliveries {
		if d.Done <= d.Born {
			t.Fatalf("delivery finished at or before birth: %+v", d)
		}
	}
}

// TestRateInjectorOfferedLoad is the load-accuracy property for the
// shared injector: over a long horizon the injected flit rate must
// track Load within a 4-sigma band of the underlying Bernoulli process.
func TestRateInjectorOfferedLoad(t *testing.T) {
	const cycles = 200000
	for _, load := range []float64{0.1, 0.35, 0.7} {
		ri := sim.RateInjector{Load: load, Pattern: traffic.Uniform(64), PacketFlits: 2}
		rng := rand.New(rand.NewSource(11))
		flits := 0
		for now := int64(0); now < cycles; now++ {
			if _, f, ok := ri.Generate(0, now, rng); ok {
				flits += f
			}
		}
		got := float64(flits) / cycles
		p := load / 2 // per-cycle packet probability; each packet is 2 flits
		tol := 4 * 2 * math.Sqrt(p*(1-p)/cycles)
		if got < load-tol || got > load+tol {
			t.Fatalf("load %.2f: injected %.4f flits/cycle (tol %.4f)", load, got, tol)
		}
	}
}
