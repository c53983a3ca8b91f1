package sim

import (
	"math"
	"math/rand"
	"testing"

	"waferswitch/internal/traffic"
)

// TestBernoulliMatchesGenerate: the births pass draws RateInjector's
// Bernoulli trial inline (bernoulli, then Pattern.Dest on a birth). Over
// many terminals, loads, packet sizes and draws, that must reach
// Generate's verdict and destination and leave the terminal's stream in
// exactly the state Generate leaves it — including rand.Float64's
// resample when a draw rounds to 1, forced below with a state whose
// next Int63 is 2^63-1.
func TestBernoulliMatchesGenerate(t *testing.T) {
	pat := traffic.Uniform(64)
	loads := []float64{0, 1e-9, 0.01, 0.05, 0.15, 0.3, 0.5, 0.95, 1, 4, math.Inf(1), math.NaN()}
	check := func(start uint64, ri RateInjector, term, draws int) {
		t.Helper()
		a, b := splitmix64{x: start}, splitmix64{x: start}
		ra, rb := rand.New(&a), rand.New(&b)
		p := ri.Load / float64(ri.PacketFlits)
		for i := 0; i < draws; i++ {
			wantDst, _, wantOK := ri.Generate(term, 0, ra)
			ok := bernoulli(&b, p)
			dst := 0
			if ok {
				dst = ri.Pattern.Dest(term, rb)
			}
			if ok != wantOK || dst != wantDst || a != b {
				t.Fatalf("load %v flits %d term %d draw %d: inline (%v, %d, state %#x), Generate (%v, %d, state %#x)",
					ri.Load, ri.PacketFlits, term, i, ok, dst, b.x, wantOK, wantDst, a.x)
			}
		}
	}
	for term := 0; term < 8; term++ {
		for _, load := range loads {
			for flits := 1; flits <= 4; flits++ {
				ri := RateInjector{Load: load, Pattern: pat, PacketFlits: flits}
				check(termRNGState(int64(term)+1, term), ri, term, 500)
			}
		}
	}

	// The resample branch: a state whose next output is all ones, so
	// Int63 returns 2^63-1 and float64(2^63-1)/2^63 rounds to exactly 1.
	start := splitmixPreimage(^uint64(0))
	probe := splitmix64{x: start}
	if f := float64(probe.Int63()) / (1 << 63); f != 1 {
		t.Fatalf("preimage state draws %v, want a draw that rounds to 1", f)
	}
	for _, load := range loads {
		check(start, RateInjector{Load: load, Pattern: pat, PacketFlits: 4}, 3, 4)
	}
	b := splitmix64{x: start}
	bernoulli(&b, 0.5)
	weyl := uint64(0x9E3779B97F4A7C15) // splitmix64's per-draw increment
	if want := start + 2*weyl; b.x != want {
		t.Fatalf("resampled trial advanced the stream to %#x, want two draws (%#x)", b.x, want)
	}
}

// splitmixPreimage returns the state from which splitmix64's next
// Uint64 is out: its finalizer is a chain of bijections on uint64 —
// xor-shifts and multiplications by odd constants — inverted here step
// by step, then the Weyl increment is taken back.
func splitmixPreimage(out uint64) uint64 {
	unxorshift := func(y uint64, s uint) uint64 {
		x := y
		for i := uint(0); i < 64/s+1; i++ {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 { // Newton's iteration mod 2^64
		inv := c
		for i := 0; i < 6; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	z := unxorshift(out, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unxorshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	z = unxorshift(z, 30)
	return z - 0x9E3779B97F4A7C15
}

// TestSourceBacklogStopsAtTheWindow pins lazy births: past the
// measurement window a saturated point's source queues hold what is left
// of the window's backlog and no more. After a drain ten times the
// window, no terminal's queue is longer than at the window's end (the
// same point run with a one-cycle drain), or than one packet, the head
// it sends next, where its queue was empty there. Births that queued
// every packet on time, as they once did, fail this by thousands of
// packets per terminal.
func TestSourceBacklogStopsAtTheWindow(t *testing.T) {
	top := testClos(t)
	cfg := Config{
		NumVCs: 1, BufPerPort: 1, PacketFlits: 1,
		RCIngress: 1, RCOther: 1, PipeDelay: 4, TermDelay: 1,
		WarmupCycles: 100, MeasureCycles: 300, Seed: 3,
	}
	inj := RateInjector{Load: 1, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 1}
	queued := func(drain int) ([]int, Stats) {
		c := cfg
		c.DrainCycles = drain
		n, err := Build(top, ConstantLatency(4), c)
		if err != nil {
			t.Fatal(err)
		}
		st := n.Run(inj, 1)
		q := make([]int, n.T)
		for i := range q {
			q[i] = len(n.srcQ[i]) - int(n.srcQHead[i])
		}
		return q, st
	}
	atEnd, _ := queued(1)
	after, st := queued(10 * cfg.MeasureCycles)
	if st.Drained {
		t.Fatalf("point drained (%+v); the test needs a saturated one", st)
	}
	var sumEnd, sumAfter int
	for i := range atEnd {
		sumEnd += atEnd[i]
		sumAfter += after[i]
		if after[i] > max(atEnd[i], 1) {
			t.Errorf("terminal %d: %d packets queued after the drain, %d at the window's end", i, after[i], atEnd[i])
		}
	}
	if sumEnd == 0 {
		t.Fatal("no backlog at the window's end; the test is vacuous")
	}
	t.Logf("queued packets: %d at the window's end, %d after %d drain cycles", sumEnd, sumAfter, st.Cycles-int64(cfg.WarmupCycles+cfg.MeasureCycles))
}
