package traffic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestUniformInRangeNoSelf(t *testing.T) {
	p := Uniform(16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		src := rng.Intn(16)
		d := p.Dest(src, rng)
		if d < 0 || d >= 16 || d == src {
			t.Fatalf("uniform dest %d from src %d", d, src)
		}
	}
}

func TestUniformCoversAll(t *testing.T) {
	p := Uniform(8)
	rng := rand.New(rand.NewSource(2))
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		seen[p.Dest(0, rng)] = true
	}
	if len(seen) != 7 {
		t.Errorf("uniform from src 0 covered %d destinations, want 7", len(seen))
	}
}

func TestTranspose(t *testing.T) {
	p, err := Transpose(16)
	if err != nil {
		t.Fatal(err)
	}
	// 16 terminals: 4 bits, rotate by 2: 0b0110 (6) -> 0b1001 (9).
	if got := p.Dest(6, nil); got != 9 {
		t.Errorf("transpose(6) = %d, want 9", got)
	}
	if got := p.Dest(0, nil); got != 0 {
		t.Errorf("transpose(0) = %d, want 0", got)
	}
	if _, err := Transpose(8); err == nil {
		t.Error("transpose on odd power of two did not fail")
	}
	if _, err := Transpose(10); err == nil {
		t.Error("transpose on non power of two did not fail")
	}
}

func TestBitComplement(t *testing.T) {
	p, err := BitComplement(16)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Dest(0, nil); got != 15 {
		t.Errorf("bitcomp(0) = %d, want 15", got)
	}
	if got := p.Dest(5, nil); got != 10 {
		t.Errorf("bitcomp(5) = %d, want 10", got)
	}
}

func TestBitReverse(t *testing.T) {
	p, err := BitReverse(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Dest(1, nil); got != 4 {
		t.Errorf("bitrev(1) = %d, want 4", got)
	}
	if got := p.Dest(3, nil); got != 6 { // 011 -> 110
		t.Errorf("bitrev(3) = %d, want 6", got)
	}
}

func TestShuffle(t *testing.T) {
	p, err := Shuffle(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Dest(4, nil); got != 1 { // 100 -> 001
		t.Errorf("shuffle(4) = %d, want 1", got)
	}
	if got := p.Dest(3, nil); got != 6 { // 011 -> 110
		t.Errorf("shuffle(3) = %d, want 6", got)
	}
}

func TestTornado(t *testing.T) {
	p := Tornado(8)
	if got := p.Dest(0, nil); got != 3 {
		t.Errorf("tornado(0) = %d, want 3", got)
	}
	if got := p.Dest(6, nil); got != 1 {
		t.Errorf("tornado(6) = %d, want 1", got)
	}
}

func TestNeighbor(t *testing.T) {
	p := Neighbor(4)
	if got := p.Dest(3, nil); got != 0 {
		t.Errorf("neighbor(3) = %d, want 0", got)
	}
}

func TestHotspot(t *testing.T) {
	p, err := Hotspot(16, []int{3}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if got := p.Dest(7, rng); got != 3 {
			t.Fatalf("full hotspot dest = %d, want 3", got)
		}
	}
	if _, err := Hotspot(16, nil, 0.5); err == nil {
		t.Error("hotspot with no hot nodes did not fail")
	}
	if _, err := Hotspot(16, []int{99}, 0.5); err == nil {
		t.Error("hotspot with out-of-range node did not fail")
	}
	if _, err := Hotspot(16, []int{3}, 1.5); err == nil {
		t.Error("hotspot with fraction > 1 did not fail")
	}
}

func TestAsymmetricTargetsLowerHalf(t *testing.T) {
	p := Asymmetric(16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		src := rng.Intn(16)
		d := p.Dest(src, rng)
		if d >= 8 {
			t.Fatalf("asymmetric dest %d in upper half", d)
		}
	}
}

// Property: every permutation pattern is a bijection.
func TestPermutationsAreBijections(t *testing.T) {
	n := 64
	tr, _ := Transpose(n)
	bc, _ := BitComplement(n)
	br, _ := BitReverse(n)
	sh, _ := Shuffle(n)
	for _, p := range []Pattern{tr, bc, br, sh, Tornado(n), Neighbor(n)} {
		seen := make([]bool, n)
		for s := 0; s < n; s++ {
			d := p.Dest(s, nil)
			if d < 0 || d >= n {
				t.Fatalf("%s: dest %d out of range", p.Name, d)
			}
			if seen[d] {
				t.Fatalf("%s: dest %d hit twice (not a permutation)", p.Name, d)
			}
			seen[d] = true
		}
	}
}

// Property: uniform destinations stay in range for arbitrary sizes.
func TestUniformProperty(t *testing.T) {
	f := func(rawN uint8, seed int64) bool {
		n := int(rawN%200) + 2
		p := Uniform(n)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			src := rng.Intn(n)
			d := p.Dest(src, rng)
			if d < 0 || d >= n || d == src {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynthetics(t *testing.T) {
	ps, err := Synthetics(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 6 {
		t.Errorf("Synthetics returned %d patterns, want 6", len(ps))
	}
	if _, err := Synthetics(10); err == nil {
		t.Error("Synthetics(10) did not fail")
	}
}

func TestNERSCTracesValidate(t *testing.T) {
	traces, err := NERSCTraces(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatalf("NERSCTraces returned %d traces, want 4", len(traces))
	}
	names := map[string]bool{}
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
		names[tr.Name] = true
		if !slices.ContainsFunc(tr.PerSource, func(m []TraceMsg) bool { return len(m) > 0 }) {
			t.Errorf("%s: no messages", tr.Name)
		}
	}
	for _, want := range []string{"LULESH", "MOCFE", "Multigrid", "Nekbone"} {
		if !names[want] {
			t.Errorf("missing trace %s", want)
		}
	}
}

// The apps must have distinct locality profiles — that contrast drives
// the relative saturation results of Fig 24. We use mean |dst-src| as the
// locality metric: LULESH/MOCFE are strongly local, Nekbone mixes ring
// and long-range allreduce hops.
func TestTraceLocalityDiffers(t *testing.T) {
	traces, err := NERSCTraces(512)
	if err != nil {
		t.Fatal(err)
	}
	span := map[string]float64{}
	for _, tr := range traces {
		total, count := 0.0, 0
		for s, msgs := range tr.PerSource {
			for _, m := range msgs {
				total += float64(abs(m.Dst - s))
				count++
			}
		}
		span[tr.Name] = total / float64(count)
	}
	if !(span["Multigrid"] < span["MOCFE"]) {
		t.Errorf("expected Multigrid (stride-1 dominated) more local than MOCFE: %v", span)
	}
	if !(span["MOCFE"] < span["LULESH"]) {
		t.Errorf("expected MOCFE (6-point) more local than LULESH (27-point): %v", span)
	}
	if !(span["MOCFE"] < span["Nekbone"]) {
		t.Errorf("expected MOCFE more local than Nekbone (allreduce hops): %v", span)
	}
}

func TestGrid3(t *testing.T) {
	tests := []struct{ n, x, y, z int }{
		{8, 2, 2, 2}, {64, 4, 4, 4}, {512, 8, 8, 8}, {12, 2, 2, 3},
	}
	for _, tc := range tests {
		x, y, z := grid3(tc.n)
		if x*y*z != tc.n {
			t.Errorf("grid3(%d) = %d*%d*%d != n", tc.n, x, y, z)
		}
		if tc.n == 64 && (x != 4 || y != 4 || z != 4) {
			t.Errorf("grid3(64) = (%d,%d,%d), want cube", x, y, z)
		}
	}
}

func TestTraceGeneratorErrors(t *testing.T) {
	if _, err := Multigrid(2); err == nil {
		t.Error("Multigrid(2) did not fail")
	}
	if _, err := Nekbone(12); err == nil {
		t.Error("Nekbone(12) did not fail")
	}
}
