package traffic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests for the workload generators: every pattern must map
// every source into the terminal range (a single out-of-range
// destination would index the simulator's packet tables out of bounds),
// permutation patterns must be bijections, and the trace generators
// must never emit an out-of-range or self-targeted message. Sizes are
// drawn by testing/quick over the grid the simulator actually uses
// (power-of-two and non-power-of-two terminal counts).

// patternSizes is the size grid the range properties sweep: every
// power of two up to 1024 plus awkward non-powers (odd, prime,
// half-filled leaves).
var patternSizes = []int{2, 3, 4, 5, 7, 8, 12, 16, 20, 31, 32, 48, 64, 100, 128, 255, 256, 510, 512, 1024}

// checkPatternRange drives a pattern across every source with a
// deterministic RNG and asserts every destination is a valid terminal.
// Randomized patterns get multiple draws per source.
func checkPatternRange(t *testing.T, p Pattern, draws int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for src := 0; src < p.N; src++ {
		for d := 0; d < draws; d++ {
			dst := p.Dest(src, rng)
			if dst < 0 || dst >= p.N {
				t.Fatalf("%s(n=%d): Dest(%d) = %d out of [0,%d)", p.Name, p.N, src, dst, p.N)
			}
		}
	}
}

func TestPatternsMapIntoRange(t *testing.T) {
	for _, n := range patternSizes {
		checkPatternRange(t, Uniform(n), 8)
		checkPatternRange(t, Tornado(n), 1)
		checkPatternRange(t, Neighbor(n), 1)
		checkPatternRange(t, Asymmetric(n), 8)
		if n >= 2 {
			hs, err := Hotspot(n, []int{0, n - 1}, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			checkPatternRange(t, hs, 8)
		}
		if p, err := Transpose(n); err == nil {
			checkPatternRange(t, p, 1)
		}
		if p, err := BitComplement(n); err == nil {
			checkPatternRange(t, p, 1)
		}
		if p, err := BitReverse(n); err == nil {
			checkPatternRange(t, p, 1)
		}
		if p, err := Shuffle(n); err == nil {
			checkPatternRange(t, p, 1)
		}
	}
}

// TestUniformNeverSelf: uniform random traffic must never target the
// source (self-traffic would skew accepted-throughput normalization).
func TestUniformNeverSelf(t *testing.T) {
	err := quick.Check(func(nRaw uint8, seed int64) bool {
		n := 2 + int(nRaw)%256
		p := Uniform(n)
		rng := rand.New(rand.NewSource(seed))
		for src := 0; src < n; src++ {
			for d := 0; d < 4; d++ {
				if p.Dest(src, rng) == src {
					return false
				}
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPermutationPatternsAreBijections: the deterministic patterns
// (transpose, bit-complement, bit-reverse, shuffle, tornado, neighbor)
// must be bijections on their size — every terminal receives from
// exactly one source, the defining property of a permutation workload.
func TestPermutationPatternsAreBijections(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		perms := []Pattern{Tornado(n), Neighbor(n)}
		if p, err := Transpose(n); err == nil {
			perms = append(perms, p)
		}
		if p, err := BitComplement(n); err == nil {
			perms = append(perms, p)
		}
		if p, err := BitReverse(n); err == nil {
			perms = append(perms, p)
		}
		if p, err := Shuffle(n); err == nil {
			perms = append(perms, p)
		}
		for _, p := range perms {
			seen := make([]bool, n)
			for src := 0; src < n; src++ {
				dst := p.Dest(src, nil)
				if dst < 0 || dst >= n {
					t.Fatalf("%s(n=%d): Dest(%d) = %d out of range", p.Name, n, src, dst)
				}
				if seen[dst] {
					t.Fatalf("%s(n=%d): destination %d hit twice (not a bijection)", p.Name, n, dst)
				}
				seen[dst] = true
			}
		}
	}
}

// TestAsymmetricConcentratesOnLowerHalf: the asymmetric pattern's
// defining property — every destination lands in the lower half of the
// machine.
func TestAsymmetricConcentratesOnLowerHalf(t *testing.T) {
	for _, n := range []int{2, 8, 63, 128} {
		p := Asymmetric(n)
		rng := rand.New(rand.NewSource(2))
		half := n / 2
		if half == 0 {
			half = 1
		}
		for src := 0; src < n; src++ {
			for d := 0; d < 8; d++ {
				if dst := p.Dest(src, rng); dst >= half {
					t.Fatalf("asymmetric(n=%d): Dest(%d) = %d above half %d", n, src, dst, half)
				}
			}
		}
	}
}

// TestHotspotFraction: hotspot traffic must send roughly the requested
// fraction to the hot set (binomial 4-sigma band), and the remainder
// must stay in range.
func TestHotspotFraction(t *testing.T) {
	const n, draws = 64, 20000
	hot := []int{3, 9}
	p, err := Hotspot(n, hot, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	isHot := map[int]bool{3: true, 9: true}
	hits := 0
	for d := 0; d < draws; d++ {
		if isHot[p.Dest(17, rng)] {
			hits++
		}
	}
	got := float64(hits) / draws
	// Uniform fallback can also land on a hot node, so expected is
	// slightly above 0.4; accept a generous band around it.
	if got < 0.35 || got > 0.50 {
		t.Fatalf("hotspot fraction = %.3f, want ~0.4", got)
	}
}

// TestTraceGeneratorsInRange: every NERSC trace generator, across rank
// counts, must produce only valid (in-range, non-self, positive-size)
// messages — exactly what Trace.Validate pins — and every rank must
// have at least one message so the trace injector makes progress.
// Power-of-two sizes satisfy every generator (nekbone requires them);
// TestTraceGeneratorsValidOrError covers the awkward sizes.
func TestTraceGeneratorsInRange(t *testing.T) {
	for _, n := range []int{8, 64, 128, 512} {
		traces, err := NERSCTraces(n)
		if err != nil {
			t.Fatalf("NERSCTraces(%d): %v", n, err)
		}
		for _, tr := range traces {
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if tr.N != n {
				t.Fatalf("trace %q built for %d ranks, want %d", tr.Name, tr.N, n)
			}
			nonEmpty := 0
			for _, msgs := range tr.PerSource {
				if len(msgs) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty == 0 {
				t.Fatalf("trace %q (n=%d) has no messages at all", tr.Name, n)
			}
		}
	}
}

// TestTraceGeneratorsValidOrError: at arbitrary (non-power-of-two,
// odd, cube and near-cube) rank counts, each generator must either
// refuse the size with an error or produce a trace that validates —
// never a silently malformed one.
func TestTraceGeneratorsValidOrError(t *testing.T) {
	gens := []struct {
		name string
		fn   func(int) (*Trace, error)
	}{
		{"lulesh", LULESH}, {"mocfe", MOCFE}, {"multigrid", Multigrid}, {"nekbone", Nekbone},
	}
	for _, n := range []int{2, 3, 8, 27, 63, 64, 100, 125, 343} {
		for _, g := range gens {
			tr, err := g.fn(n)
			if err != nil {
				continue // size refused: acceptable
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s(%d) returned an invalid trace: %v", g.name, n, err)
			}
		}
	}
}

// TestSyntheticsComplete: the Fig 23 pattern set must build at every
// power-of-two size and contain only patterns of that size.
func TestSyntheticsComplete(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64, 256, 1024} {
		pats, err := Synthetics(n)
		if err != nil {
			t.Fatalf("Synthetics(%d): %v", n, err)
		}
		if len(pats) != 6 {
			t.Fatalf("Synthetics(%d) returned %d patterns, want 6", n, len(pats))
		}
		for _, p := range pats {
			if p.N != n {
				t.Fatalf("Synthetics(%d) contains %s built for %d", n, p.Name, p.N)
			}
			checkPatternRange(t, p, 4)
		}
	}
}
