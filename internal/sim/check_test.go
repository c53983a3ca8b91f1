package sim

import (
	"math/rand"
	"strings"
	"testing"

	"waferswitch/internal/traffic"
)

// silentInjector never generates traffic; checker fault-injection tests
// use it so the only activity in the network is the corruption planted
// by the test.
type silentInjector struct{}

func (silentInjector) Generate(int, int64, *rand.Rand) (int, int, bool) { return 0, 0, false }

// TestCheckerCleanRun: the checker must stay silent across a healthy
// run at moderate load — the primary regression pin that the optimized
// simulator satisfies its own conservation laws on the stock Clos.
func TestCheckerCleanRun(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	inj := RateInjector{Load: 0.4, Pattern: traffic.Uniform(n.T), PacketFlits: cfg.PacketFlits}
	st := n.Run(inj, 0.4)
	if err := n.CheckErr(); err != nil {
		t.Fatalf("checker flagged a healthy run: %v", err)
	}
	if !st.Drained || st.Completed == 0 {
		t.Fatalf("healthy run did not drain: %+v", st)
	}
}

// TestCheckerDetectsFlitLeak: a flit planted in an input buffer that
// was never injected must trip flit conservation (and the credit scan
// for its feeding channel) on the next cycle boundary.
func TestCheckerDetectsFlitLeak(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 10, 20
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	// Phantom flit: bump an input port's occupancy without an injection.
	// routerOcc stays zero so the pipeline never touches it (the router
	// believes it is idle), which is exactly the kind of counter drift
	// the conservation scan exists to catch.
	n.pkts = append(n.pkts, packetInfo{dst: 0})
	plantFlit(n, 0, 0, flit{pkt: 0, last: true})
	n.Run(silentInjector{}, 0.01)
	err = n.CheckErr()
	if err == nil {
		t.Fatal("checker missed a planted flit leak")
	}
	if !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("violation does not mention conservation: %v", err)
	}
}

// TestCheckerDetectsCreditLoss: stealing one credit from an
// inter-router output port must trip the per-channel credit
// conservation scan.
func TestCheckerDetectsCreditLoss(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 10, 20
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	stolen := false
	for i := range n.outCh {
		if n.outCh[i] >= 0 {
			n.outCredits[i]--
			stolen = true
			break
		}
	}
	if !stolen {
		t.Fatal("no inter-router output port found")
	}
	n.Run(silentInjector{}, 0.01)
	err = n.CheckErr()
	if err == nil {
		t.Fatal("checker missed a stolen credit")
	}
	if !strings.Contains(err.Error(), "credit conservation") {
		t.Fatalf("violation does not mention credit conservation: %v", err)
	}
}

// TestCheckerDetectsSlotLeak: an input-port pool slot handed out but
// neither queued nor freed must trip slot-pool conservation, and a slot
// both queued and on the free stack must be named as such.
func TestCheckerDetectsSlotLeak(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(n *Network)
	}{
		{"leak", "slot pool conservation", func(n *Network) {
			n.alloc[0].bump++
		}},
		{"free-and-queued", "both free and queued", func(n *Network) {
			n.pkts = append(n.pkts, packetInfo{dst: 0})
			plantFlit(n, 0, 0, flit{pkt: 0, last: true})
			n.freeSlots[0] = 0 // slot 0, which VC 0 still queues
			n.alloc[0].free = 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.WarmupCycles, cfg.MeasureCycles = 10, 20
			n, err := Build(testClos(t), ConstantLatency(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Check(CheckOptions{}); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(n)
			n.Run(silentInjector{}, 0.01)
			err = n.CheckErr()
			if err == nil {
				t.Fatal("checker missed a corrupted slot pool")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation does not mention %q: %v", tc.want, err)
			}
		})
	}
}

// TestCheckerDetectsSummaryDrift: every summary the kernel scans in
// place of the state it summarises — the per-router pipe, ready-port
// and credit masks, the ring flit and credit occupancy bitmaps, the
// pending-source bitmap — must be checked against that state: a drifted
// summary silently skips (or invents) work. Each case plants one drift
// and runs a single cycle, so the end-of-cycle scan sees it before
// anything consumes it. The wide cases plant theirs in mask word 1 (port
// 65) of a 128-port spine.
func TestCheckerDetectsSummaryDrift(t *testing.T) {
	// ringSlot returns a slot of the second stripe of latency class 0,
	// which no arrivals pass reaches in cycle 0.
	ringSlot := func(n *Network) int32 { return n.classOff[0] + n.classCnt[0] }
	// word1 returns the index of mask word 1 of the first router with
	// more than 64 ports.
	word1 := func(n *Network) int {
		for r := 0; r < n.R; r++ {
			if n.numPorts[r] > 64 {
				return r*n.pw + 1
			}
		}
		panic("no router above 64 ports")
	}
	cases := []struct {
		name, want string
		wide       bool
		corrupt    func(n *Network)
	}{
		{"pipe", "pipe-port mask", false, func(n *Network) {
			n.portPipeM[0] |= 1 << 1
		}},
		{"ready", "ready-port mask", false, func(n *Network) {
			n.portReadyM[0] |= 1 << 1
		}},
		{"credit", "credit mask", false, func(n *Network) {
			n.creditM[0] &^= 1 // output 0 is a terminal sink, always credited
		}},
		{"wide-pipe", "pipe-port mask word 1", true, func(n *Network) {
			n.portPipeM[word1(n)] |= 1 << 1
		}},
		{"wide-ready", "ready-port mask word 1", true, func(n *Network) {
			n.portReadyM[word1(n)] |= 1 << 1
		}},
		{"wide-credit", "credit mask word 1", true, func(n *Network) {
			n.creditM[word1(n)] &^= 1 << 1 // a spine link, credited at build
		}},
		{"ring-flit", "occupancy bits flit=false credit=false", false, func(n *Network) {
			n.ringSlab[ringSlot(n)] |= packEv(0, true, 0)
		}},
		{"ring-credit", "occupancy bits flit=false credit=true", false, func(n *Network) {
			j := ringSlot(n)
			n.ringCredM[j>>6] |= uint64(1) << (j & 63)
		}},
		{"pending", "pending bit false with 1 queued", false, func(n *Network) {
			n.srcQ[0] = append(n.srcQ[0], pendingPkt{dst: 1, size: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.WarmupCycles, cfg.MeasureCycles = 0, 1
			top := testClos(t)
			if tc.wide {
				top = testWideClos(t)
			}
			n, err := Build(top, ConstantLatency(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Check(CheckOptions{}); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(n)
			n.Run(silentInjector{}, 0.01)
			err = n.CheckErr()
			if err == nil {
				t.Fatal("checker missed a drifted summary")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation does not mention %q: %v", tc.want, err)
			}
		})
	}
}

// TestCheckerDetectsDeferralBound: a terminal whose queued packets plus
// trials deferred before the current cycle reach maxPendingPerTerm has
// deferred a trial the cap might have skipped. The births pass restores
// the bound before any end-of-cycle scan can see it broken, so the state
// is planted between cycles and the scan is called directly.
func TestCheckerDetectsDeferralBound(t *testing.T) {
	n, err := Build(testClos(t), ConstantLatency(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	n.now = 2 * maxPendingPerTerm
	n.srcQ[0] = append(n.srcQ[0], pendingPkt{dst: 1, size: 1})
	n.srcPendM[0] |= 1
	n.srcLagM[0] |= 1
	n.genAt[0] = n.now - maxPendingPerTerm + 2 // queued + (now - genAt) = cap - 1
	n.chk.checkOccupancy(n)
	if err := n.CheckErr(); err != nil {
		t.Fatalf("bound-respecting deferral flagged: %v", err)
	}
	n.genAt[0]-- // queued + (now - genAt) = cap
	n.chk.checkOccupancy(n)
	if err := n.CheckErr(); err == nil || !strings.Contains(err.Error(), "deferral bound") {
		t.Fatalf("broken deferral bound not reported: %v", err)
	}
}

// TestCheckerDetectsVCInterleave: flits of two packets interleaved in
// one VC FIFO (head of packet B before tail of packet A) must trip the
// wormhole-integrity scan.
func TestCheckerDetectsVCInterleave(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 5, 10
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	// Two packets' body flits interleaved in VC 0. Occupancy counters
	// are left untouched so the pipeline ignores the queue and only the
	// integrity scan (which walks every VC unconditionally) sees it.
	n.pkts = append(n.pkts, packetInfo{}, packetInfo{})
	plantFlit(n, 0, 0, flit{pkt: 0, last: false})
	plantFlit(n, 0, 0, flit{pkt: 1, last: false})
	n.Run(silentInjector{}, 0.01)
	err = n.CheckErr()
	if err == nil {
		t.Fatal("checker missed interleaved packets in a VC")
	}
	if !strings.Contains(err.Error(), "interleaves") {
		t.Fatalf("violation does not mention interleaving: %v", err)
	}
}

// TestCheckerWatchdog: a flit that can never win switch allocation
// (its requested output has zero credits and no credit will ever
// return) must trip the no-progress watchdog, and the deadlock dump
// must name the stuck router. Every=1<<30 silences the structural scans
// after cycle 0 so the watchdog report is not crowded out.
func TestCheckerWatchdog(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 10, 200
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(CheckOptions{Watchdog: 20, Every: 1 << 30, MaxViolations: 16}); err != nil {
		t.Fatal(err)
	}
	// Stuck state: a tail flit parked in vcActive on an inter-router
	// output whose credits were zeroed. SA stalls on it forever.
	var out int
	found := false
	for i := range n.outCh {
		if n.outCh[i] >= 0 && i/n.maxP == 0 {
			out = i
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no inter-router output on router 0")
	}
	n.outCredits[out] = 0
	r, p := out/n.maxP, out%n.maxP
	n.creditM[r*n.pw+p>>6] &^= uint64(1) << (p & 63)
	n.pkts = append(n.pkts, packetInfo{dst: 0})
	// Setting vcActive before the push keeps the VC out of the RC/VA scan
	// mask (markBusy only queues pipeline work for non-active VCs), exactly
	// the mid-packet state a real stuck tail would be in.
	n.vcStatus[0] = vcActive
	plantFlit(n, 0, 0, flit{pkt: 0, last: true})
	n.vcOutPort[0] = int32(out % n.maxP)
	n.vcOutVC[0] = 0
	n.outFreeVC[out] &^= 1
	n.routerOcc[0]++
	n.Run(silentInjector{}, 0.01)
	err = n.CheckErr()
	if err == nil {
		t.Fatal("watchdog missed a wedged network")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("violation does not mention deadlock: %v", err)
	}
	if !strings.Contains(err.Error(), "router 0") {
		t.Fatalf("deadlock dump does not name the stuck router: %v", err)
	}
}

// TestCheckerWatchdogQuietWhenIdle: an idle network owes no progress;
// the watchdog must not fire across long zero-traffic stretches.
func TestCheckerWatchdogQuietWhenIdle(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 10, 500
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(CheckOptions{Watchdog: 20}); err != nil {
		t.Fatal(err)
	}
	n.Run(silentInjector{}, 0.01)
	if err := n.CheckErr(); err != nil {
		t.Fatalf("watchdog fired on an idle network: %v", err)
	}
}

// TestCheckerMaxViolations: the violation log must cap at
// MaxViolations and count the overflow instead of growing without
// bound.
func TestCheckerMaxViolations(t *testing.T) {
	c := &checker{opt: CheckOptions{MaxViolations: 3}}
	for i := 0; i < 10; i++ {
		c.violatef("violation %d", i)
	}
	if len(c.violations) != 3 {
		t.Fatalf("recorded %d violations, want cap 3", len(c.violations))
	}
	if c.dropped != 7 {
		t.Fatalf("dropped = %d, want 7", c.dropped)
	}
}

// BenchmarkSimSteadyStateChecked is the steady-state loop with the
// invariant checker enabled at full cadence, quantifying the
// verification overhead against BenchmarkSimSteadyState (the structural
// scans are O(network) per cycle, so this is expected to cost a
// multiple of the unchecked loop — the point of CheckOptions.Every).
func BenchmarkSimSteadyStateChecked(b *testing.B) {
	n := benchSteadyState(b, func(n *Network) {
		if err := n.Check(CheckOptions{}); err != nil {
			b.Fatal(err)
		}
	})
	b.StopTimer()
	if err := n.CheckErr(); err != nil {
		b.Fatal(err)
	}
}

// TestCheckOptionsValidation: negative cadence is rejected; defaults
// fill in.
func TestCheckOptionsValidation(t *testing.T) {
	cl := testClos(t)
	n, err := Build(cl, ConstantLatency(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(CheckOptions{Every: -1}); err == nil {
		t.Fatal("negative Every accepted")
	}
	if err := n.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	if n.chk.opt.Every != 1 || n.chk.opt.Watchdog != defaultWatchdog || n.chk.opt.MaxViolations != defaultMaxViolations {
		t.Fatalf("defaults not applied: %+v", n.chk.opt)
	}
	if n.CheckViolations() != nil {
		t.Fatal("fresh checker has violations")
	}
}
