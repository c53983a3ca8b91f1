package refsim

import (
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
	"waferswitch/internal/traffic"
)

// FuzzSimEquivalence fuzzes the differential harness: any raw tuple
// maps (via SpecFromRaw's total clamping) to a valid topology, config,
// seed and load, and the optimized simulator must agree bit-for-bit
// with the dense reference — Stats, latency histogram, delivery
// multiset — with the runtime invariant checker clean. A failure
// message leads with the Spec replay tuple; reproduce it outside the
// fuzzer with `wsswitch -replay "<spec>"`.
func FuzzSimEquivalence(f *testing.F) {
	// Seed corpus: one case per family, plus shape extremes (single VC,
	// deep packets, zero pipeline delays, negative seed, heavy load).
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(4), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint16(40), uint16(100), int64(1), uint16(200))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(3), uint8(0), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0), uint16(0), uint16(0), int64(-7), uint16(550))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint8(0), uint8(11), uint8(0), uint8(2), uint8(2), uint8(2), uint8(3), uint16(119), uint16(199), int64(424242), uint16(30))
	f.Add(uint8(3), uint8(0), uint8(3), uint8(3), uint8(2), uint8(6), uint8(2), uint8(0), uint8(2), uint8(1), uint8(2), uint16(60), uint16(140), int64(987654321), uint16(420))
	// High-load / packed-state extremes: single VC with the minimum
	// buffer (Buf == Pkt) past saturation, 4 VCs at the knee, and the
	// full 8-VC depth past saturation (vcs raw value v maps to 1+v%8
	// VCs; loadMil 930 maps to offered 0.95, 430 to 0.45, 30 to 0.05).
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint8(1), uint8(1), uint16(50), uint16(150), int64(77), uint16(930))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(1), uint8(3), uint8(13), uint8(1), uint8(1), uint8(0), uint8(2), uint8(2), uint16(40), uint16(160), int64(-31), uint16(430))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(2), uint8(7), uint8(2), uint8(0), uint8(2), uint8(1), uint8(0), uint8(3), uint16(80), uint16(120), int64(5551), uint16(930))
	f.Add(uint8(3), uint8(1), uint8(0), uint8(1), uint8(7), uint8(0), uint8(2), uint8(1), uint8(1), uint8(1), uint8(0), uint16(30), uint16(100), int64(404), uint16(30))
	// The committed corpus (testdata/fuzz/FuzzSimEquivalence) adds
	// kernel-layout seeds: seed-wide-mixed (radix-16 leaves under
	// 128-port spines) and seed-wide-all (128-port routers only, past
	// saturation) keep two-word port masks under the oracle, and
	// seed-stripe-mesh68 puts 96 channels in one latency class, so every
	// ring stripe after the first starts mid-word in the occupancy
	// bitmaps.
	f.Fuzz(func(t *testing.T, family, size, pattern, link, vcs, buf, pkt, rci, rco, pipe, term uint8,
		warmup, measure uint16, seed int64, loadMil uint16) {
		s := SpecFromRaw(family, size, pattern, link, vcs, buf, pkt, rci, rco, pipe, term, warmup, measure, seed, loadMil)
		rep, err := s.Diff()
		if err != nil {
			t.Fatalf("diff %s: %v", s, err)
		}
		if !rep.OK() {
			t.Fatalf("simulators diverge; replay with: wsswitch -replay %q\n%s", s.String(), rep.Summary())
		}
	})
}

// FuzzObservedEquivalence is FuzzSimEquivalence with observers riding
// the optimized run: the raw tuple is FuzzSimEquivalence's plus one
// byte whose bit 5 attaches a timeline sampler and bit 6 a
// congestion-attribution collector (its other bits are unused). The
// observers must be transparent — Stats, latency histogram and
// delivery multiset still agree bit-for-bit with the dense reference,
// with the invariant checker clean. This is a separate target rather
// than a new SpecFromRaw parameter because Go fuzz corpus entries are
// typed argument lists: extending the existing signature would orphan
// FuzzSimEquivalence's corpus.
func FuzzObservedEquivalence(f *testing.F) {
	// Seed corpus: one case per family at light and saturating loads,
	// with and without observers.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(4), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint16(40), uint16(100), int64(1), uint16(200), uint8(1))
	f.Add(uint8(1), uint8(0), uint8(1), uint8(0), uint8(3), uint8(0), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0), uint16(30), uint16(90), int64(-7), uint16(550), uint8(9))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint8(0), uint8(11), uint8(0), uint8(2), uint8(2), uint8(2), uint8(3), uint16(119), uint16(199), int64(424242), uint16(30), uint8(5))
	f.Add(uint8(3), uint8(1), uint8(3), uint8(3), uint8(2), uint8(6), uint8(2), uint8(0), uint8(2), uint8(1), uint8(2), uint16(60), uint16(140), int64(987654321), uint16(420), uint8(1))
	f.Add(uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint8(1), uint8(1), uint16(50), uint16(150), int64(77), uint16(930), uint8(2))
	f.Add(uint8(3), uint8(0), uint8(1), uint8(1), uint8(7), uint8(2), uint8(1), uint8(1), uint8(0), uint8(2), uint8(2), uint16(40), uint16(160), int64(-31), uint16(930), uint8(5))
	// Observer-on seeds: timeline (32), attribution (64) and both (96),
	// at the knee and past saturation.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(4), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint16(40), uint16(100), int64(1), uint16(430), uint8(32+1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(3), uint8(0), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0), uint16(30), uint16(90), int64(-7), uint16(550), uint8(64+5))
	f.Add(uint8(2), uint8(1), uint8(2), uint8(2), uint8(0), uint8(11), uint8(0), uint8(2), uint8(2), uint8(2), uint8(3), uint16(80), uint16(150), int64(424242), uint16(930), uint8(96+2))
	f.Add(uint8(3), uint8(2), uint8(3), uint8(1), uint8(2), uint8(6), uint8(2), uint8(0), uint8(2), uint8(1), uint8(2), uint16(60), uint16(140), int64(11), uint16(700), uint8(96+9))
	// The committed corpus (testdata/fuzz/FuzzObservedEquivalence) adds
	// kernel-shape seeds: the 120-terminal mesh, whose pending-source
	// bitmap ends mid-word, the 40-terminal dragonfly inside one word,
	// and the wide-spine Clos with both observers attached.
	f.Fuzz(func(t *testing.T, family, size, pattern, link, vcs, buf, pkt, rci, rco, pipe, term uint8,
		warmup, measure uint16, seed int64, loadMil uint16, observers uint8) {
		s := SpecFromRaw(family, size, pattern, link, vcs, buf, pkt, rci, rco, pipe, term, warmup, measure, seed, loadMil)
		s.Timeline = observers&32 != 0
		s.Attribution = observers&64 != 0
		rep, err := s.Diff()
		if err != nil {
			t.Fatalf("diff %s: %v", s, err)
		}
		if !rep.OK() {
			t.Fatalf("simulators diverge; replay with: wsswitch -replay %q\n%s", s.String(), rep.Summary())
		}
	})
}

// FuzzResetEquivalence fuzzes Network.Reset against both oracles: a
// network is deliberately dirtied — run once at a load and seed chosen
// by the dirty byte, so rings, credits, the packet table and RNG
// streams all carry state — then Reset to the spec's seed and run the
// spec. The result must match a freshly built network bit for bit
// (Stats, latency histogram, ordered delivery log) AND the dense
// reference simulator, with the runtime invariant checker clean on the
// reset run. The raw tuple is FuzzSimEquivalence's plus the dirty byte,
// a separate target for the same reason FuzzObservedEquivalence is one:
// extending the existing signature would orphan its corpus.
func FuzzResetEquivalence(f *testing.F) {
	// Seed corpus: one case per family — including the deadlock-capable
	// dragonfly, where the dirty run can stall and hit the drain
	// deadline — at light and saturating dirty loads.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(4), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint16(40), uint16(100), int64(1), uint16(200), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(3), uint8(0), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0), uint16(30), uint16(90), int64(-7), uint16(550), uint8(1))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint8(0), uint8(11), uint8(0), uint8(2), uint8(2), uint8(2), uint8(3), uint16(80), uint16(150), int64(424242), uint16(30), uint8(93))
	f.Add(uint8(3), uint8(0), uint8(3), uint8(3), uint8(2), uint8(6), uint8(2), uint8(0), uint8(2), uint8(1), uint8(2), uint16(60), uint16(140), int64(987654321), uint16(420), uint8(7))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint8(1), uint8(1), uint16(50), uint16(150), int64(77), uint16(930), uint8(255))
	f.Fuzz(func(t *testing.T, family, size, pattern, link, vcs, buf, pkt, rci, rco, pipe, term uint8,
		warmup, measure uint16, seed int64, loadMil uint16, dirty uint8) {
		s := SpecFromRaw(family, size, pattern, link, vcs, buf, pkt, rci, rco, pipe, term, warmup, measure, seed, loadMil)
		top, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.Config()
		lat := sim.ConstantLatency(s.LinkLat)
		inject := func() sim.Injector {
			inj, err := s.Injector(top.ExternalPorts())
			if err != nil {
				t.Fatal(err)
			}
			return inj
		}

		// Fresh baseline.
		fresh, err := sim.Build(top, lat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh.RecordDeliveries()
		freshSt := fresh.Run(inject(), s.Load)
		freshHist := fresh.LatencyHistogram()

		// Dirty a second network at a different seed and load, then Reset
		// it back to the spec's seed.
		reused, err := sim.Build(top, lat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused.Reseed(s.Seed + 1 + int64(dirty))
		dirtyLoad := 0.02 + float64(dirty%94)/100
		dirtyInj := sim.RateInjector{Load: dirtyLoad, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: s.Pkt}
		reused.Run(dirtyInj, dirtyLoad)
		reused.Reset(s.Seed)
		if err := reused.Check(s.CheckOptions()); err != nil {
			t.Fatal(err)
		}
		reused.RecordDeliveries()
		resetSt := reused.Run(inject(), s.Load)
		if v := reused.CheckViolations(); len(v) != 0 {
			t.Fatalf("spec %q: checker found %d violations on the reset run; first: %s", s, len(v), v[0])
		}
		resetHist := reused.LatencyHistogram()

		if resetSt != freshSt {
			t.Fatalf("spec %q dirty=%d: reset run diverges from fresh build:\n  fresh %+v\n  reset %+v", s, dirty, freshSt, resetSt)
		}
		if !resetHist.Equal(&freshHist) {
			t.Fatalf("spec %q dirty=%d: latency histograms diverge: fresh n=%d sum=%g, reset n=%d sum=%g",
				s, dirty, freshHist.Count(), freshHist.Sum(), resetHist.Count(), resetHist.Sum())
		}
		fd, rd := fresh.Deliveries(), reused.Deliveries()
		if len(fd) != len(rd) {
			t.Fatalf("spec %q dirty=%d: delivery counts diverge: fresh %d, reset %d", s, dirty, len(fd), len(rd))
		}
		for i := range fd {
			if fd[i] != rd[i] {
				t.Fatalf("spec %q dirty=%d: delivery log diverges at index %d: fresh %+v, reset %+v", s, dirty, i, fd[i], rd[i])
			}
		}

		// The dense reference simulator is the independent oracle.
		ref, err := Run(top, lat, cfg, inject(), s.Load)
		if err != nil {
			t.Fatal(err)
		}
		if resetSt != ref.Stats {
			t.Fatalf("spec %q dirty=%d: reset run diverges from reference:\n  reference %+v\n  reset     %+v", s, dirty, ref.Stats, resetSt)
		}
		if d := diffDeliveries(rd, ref.Deliveries); d != "" {
			t.Fatalf("spec %q dirty=%d: %s", s, dirty, d)
		}
	})
}

// FuzzSweepDeterminism fuzzes the parallel sweep engine's determinism
// contract: a sweep fanned across W workers must be bit-identical —
// per-point Stats and the merged aggregate histogram — to the same
// sweep run serially, for any load vector, seed and worker count.
func FuzzSweepDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint16(80), uint16(120))
	f.Add(int64(-99), uint8(7), uint8(8), uint16(300), uint16(45))
	f.Add(int64(20240601), uint8(2), uint8(2), uint16(555), uint16(90))
	f.Fuzz(func(t *testing.T, seed int64, nLoads, workers uint8, loadBase, measure uint16) {
		nl := 2 + int(nLoads)%6
		w := 2 + int(workers)%6
		loads := make([]float64, nl)
		for i := range loads {
			// Spread loads over (0, 0.6]; the exact values are
			// fuzz-chosen but every worker split must agree on them.
			loads[i] = 0.02 + float64((int(loadBase)+i*97)%580)/1000
		}
		cfg := sim.Config{
			NumVCs: 2, BufPerPort: 8, PacketFlits: 2,
			RCIngress: 1, RCOther: 1, PipeDelay: 1, TermDelay: 1,
			WarmupCycles: 20, MeasureCycles: 30 + int(measure)%120,
			Seed: seed,
		}
		s := Spec{Family: "clos", Size: 0}
		top, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		build := func() (*sim.Network, error) {
			return sim.Build(top, sim.ConstantLatency(1), cfg)
		}
		injf := sim.SyntheticInjector(traffic.Uniform(top.ExternalPorts()), cfg.PacketFlits)

		serial, err := sim.Sweep(build, injf, loads, sim.SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := sim.Sweep(build, injf, loads, sim.SweepOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		ss, ps := serial.Stats(), par.Stats()
		for i := range ss {
			if ss[i] != ps[i] {
				t.Fatalf("seed %d workers %d: point %d differs\n  serial   %+v\n  parallel %+v",
					seed, w, i, ss[i], ps[i])
			}
		}
		sl, pl := serial.Aggregate, par.Aggregate
		if (sl == nil) != (pl == nil) {
			t.Fatalf("aggregate presence differs: serial %v, parallel %v", sl != nil, pl != nil)
		}
		if sl != nil && !histSnapshotsEqual(sl.Latency, pl.Latency) {
			t.Fatalf("aggregate latency snapshots differ\n  serial   %+v\n  parallel %+v", sl.Latency, pl.Latency)
		}
	})
}

// histSnapshotsEqual compares two histogram snapshots field by field
// (the struct holds a bucket slice, so == does not apply).
func histSnapshotsEqual(a, b *obs.HistogramSnapshot) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Count != b.Count || a.Mean != b.Mean || a.Min != b.Min || a.Max != b.Max ||
		a.P50 != b.P50 || a.P90 != b.P90 || a.P99 != b.P99 || a.P999 != b.P999 ||
		len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	return true
}

// FuzzParseSpec: ParseSpec never panics on any input, and every spec it
// accepts prints a tuple that parses back to an equal Spec, so the
// tuple a failing test prints always replays the case it names.
func FuzzParseSpec(f *testing.F) {
	// Seeds: the tuples of the README, the wsswitch usage text and
	// server tests, and TestSpecRoundTrip.
	for _, in := range []string{
		"family=dfly size=1 pattern=uniform link=1 vcs=1 buf=2 pkt=2 rci=1 rco=1 pipe=0 term=1 warmup=100 measure=1500 drain=4000 seed=2 load=0.95",
		"family=clos size=0 pattern=uniform link=1 vcs=2 buf=8 pkt=2 rci=1 rco=1 pipe=1 term=1 warmup=50 measure=150 drain=0 seed=42 load=0.25",
		"family=clos size=0 pattern=uniform link=1 vcs=2 buf=8 pkt=2 rci=1 rco=1 pipe=0 term=1 warmup=10 measure=40 seed=1 load=0.25 buf=70000",
		"family=clos size=0 pattern=uniform link=1 load=0.25 shards=1",
		"family=clos bogus=1",
		"size=1",
		"family=clos size=-1",
		"family=clos load=NaN",
		"family=clos load=-Inf",
		"family=clos shards=2",
	} {
		f.Add(in)
	}
	s := SpecFromRaw(3, 1, 2, 0, 1, 7, 2, 0, 1, 2, 3, 77, 150, -12345, 333)
	s.Timeline, s.Attribution = true, true
	f.Add(s.String())
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted it, but not its tuple %q: %v", in, s.String(), err)
		}
		if back != s {
			t.Fatalf("ParseSpec(%q) round trip changed the spec:\n  in  %+v\n  out %+v", in, s, back)
		}
	})
}
