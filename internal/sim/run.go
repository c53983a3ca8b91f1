package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"waferswitch/internal/obs"
	"waferswitch/internal/traffic"
)

// Injector produces terminal traffic. Generate draws one terminal's
// injection trial for cycle now and may return at most one new packet,
// born at now. It is called once per terminal per cycle (none while the
// terminal's source queue is full, see maxPendingPerTerm), in increasing
// cycle order per terminal, but possibly several cycles late: a terminal
// with a backlog defers its trials until its queue runs dry (see
// births), so calls for different terminals interleave in no fixed
// cycle order. An injector's answer for one terminal may therefore
// depend only on that terminal's own calls and rng, as RateInjector's
// and TraceInjector's do.
type Injector interface {
	Generate(term int, now int64, rng *rand.Rand) (dst, flits int, ok bool)
}

// RateInjector offers Bernoulli traffic at a fixed load with a synthetic
// pattern: each cycle each terminal generates a PacketFlits-flit packet
// with probability Load/PacketFlits. The simulator draws its trial
// inline rather than through Generate (see births); the two consume a
// terminal's stream identically, so Generate remains the definition.
type RateInjector struct {
	Load        float64 // flits/terminal/cycle
	Pattern     traffic.Pattern
	PacketFlits int
}

// Generate implements Injector.
func (ri RateInjector) Generate(term int, _ int64, rng *rand.Rand) (int, int, bool) {
	if rng.Float64() >= ri.Load/float64(ri.PacketFlits) {
		return 0, 0, false
	}
	return ri.Pattern.Dest(term, rng), ri.PacketFlits, true
}

// TraceInjector replays an application trace, pacing each source so its
// long-run offered load matches Load flits/cycle (the paper's methodology
// for sweeping trace-driven load in Fig 24).
type TraceInjector struct {
	trace *traffic.Trace
	load  float64
	next  []float64
	idx   []int32
}

// NewTraceInjector builds a trace injector at the given load.
func NewTraceInjector(tr *traffic.Trace, load float64) (*TraceInjector, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if !(load > 0) || math.IsInf(load, 1) { // NaN fails the comparison
		return nil, fmt.Errorf("sim: trace load %v is not positive and finite", load)
	}
	return &TraceInjector{
		trace: tr,
		load:  load,
		next:  make([]float64, tr.N),
		idx:   make([]int32, tr.N),
	}, nil
}

// Generate implements Injector.
func (ti *TraceInjector) Generate(term int, now int64, _ *rand.Rand) (int, int, bool) {
	msgs := ti.trace.PerSource[term]
	if len(msgs) == 0 || float64(now) < ti.next[term] {
		return 0, 0, false
	}
	m := msgs[ti.idx[term]]
	ti.idx[term] = (ti.idx[term] + 1) % int32(len(msgs))
	ti.next[term] += float64(m.Flits) / ti.load
	return m.Dst, m.Flits, true
}

// maxPendingPerTerm caps a terminal's source queue: its trial for a
// cycle is skipped while the queue holds this many packets. The cap is
// part of the injection rule, which the reference simulator applies
// too, and only binds past saturation. It is not what bounds memory: a
// backlogged terminal defers its trials rather than queue their packets
// (see births), so past the measurement window its queue stops growing
// until its queued packets plus deferred trials reach the cap.
const maxPendingPerTerm = 4096

// Run simulates warmup + measurement, then drains measured packets. A
// Network runs once per build or Reset: call Reset (or build a fresh
// one) before running it again.
func (n *Network) Run(inj Injector, offered float64) Stats {
	cfg := n.cfg
	logger := cfg.Logger // checked once per cycle, never per flit
	n.measStart = int64(cfg.WarmupCycles)
	n.measEnd = int64(cfg.WarmupCycles) + int64(cfg.MeasureCycles)
	drain := int64(cfg.DrainCycles)
	if drain <= 0 {
		drain = 10 * int64(cfg.MeasureCycles)
	}
	if logger != nil {
		logger.Info("sim.run",
			"routers", n.R, "terminals", n.T, "channels", len(n.channels),
			"offered", offered, "warmup", cfg.WarmupCycles,
			"measure", cfg.MeasureCycles, "probe", n.probe != nil)
	}
	window := n.measEnd / 4
	if window < 1 {
		window = 1
	}
	// Deferred birth trials are drawn (catchUp) before each read of an
	// exact birth count or source backlog, and at the end of the window,
	// so measuredBorn, and with it the drain decision, counts every
	// packet born in the window.
	for n.now = 0; n.now < n.measEnd; n.now++ {
		n.step(inj)
		if logger != nil && (n.now+1)%window == 0 {
			n.catchUp(inj, n.now)
			logger.Debug("sim.progress",
				"cycle", n.now+1, "of", n.measEnd,
				"born", n.measuredBorn, "completed", n.completed,
				"ejected_flits", n.ejectedFlits)
		}
		// Divergence detection runs on a fixed cycle cadence relative to
		// the measurement start, so its decisions are pure functions of
		// the seed.
		if n.ab != nil && n.now >= n.measStart && (n.now-n.measStart+1)%abortEvery == 0 {
			n.catchUp(inj, n.now)
			n.ab.measureCheck(n, offered)
		}
	}
	n.catchUp(inj, n.measEnd-1)
	// The detector decides once, here: a run it armed during measurement
	// skips its whole drain, and every other run drains exactly as an
	// unarmed one does.
	aborted := n.ab != nil && n.ab.armed && n.completed < n.measuredBorn
	if !aborted {
		for deadline := n.measEnd + drain; n.completed < n.measuredBorn && n.now < deadline; n.now++ {
			n.step(inj)
		}
	}
	if n.tline != nil {
		n.closeTimelineWindow() // flush the partial final window
		if aborted {
			n.tline.MarkTruncated()
		}
	}
	if n.at != nil && n.completed < n.measuredBorn {
		// The run is saturated (or deadlocked): capture the backpressure
		// root-cause walk at the final cycle for the post-mortem.
		n.at.lastBP = n.AnalyzeBackpressure()
	}
	st := Stats{
		Offered:   offered,
		Accepted:  float64(n.ejectedFlits) / float64(n.T) / float64(n.measEnd-n.measStart),
		Completed: n.completed,
		Drained:   n.completed >= n.measuredBorn,
		Aborted:   aborted,
		Cycles:    n.now,
	}
	if n.completed > 0 {
		// Every latency is an integer-valued float64, and float64 adds
		// integers exactly while the sum stays at or below 2^53, so the
		// histogram's completion-order running sum is the exact integer
		// sum, whatever order the packets completed in (the reference
		// simulator folds per router and must agree bit for bit). Past
		// 2^53 it is still a pure function of the seed: Run is serial.
		st.AvgLatency = n.latHist.Sum() / float64(n.completed)
		st.P50Latency = n.latHist.Percentile(0.50)
		st.P99Latency = n.latHist.Percentile(0.99)
		st.P999Latency = n.latHist.Percentile(0.999)
	}
	if n.chk != nil && logger != nil && len(n.chk.violations) > 0 {
		logger.Error("sim.check_failed",
			"violations", len(n.chk.violations)+n.chk.dropped,
			"first", n.chk.violations[0])
	}
	if logger != nil {
		if st.Drained {
			logger.Info("sim.drained",
				"offered", offered, "accepted", st.Accepted,
				"avg_latency", st.AvgLatency, "p99_latency", st.P99Latency,
				"drain_cycles", n.now-n.measEnd, "completed", st.Completed)
		} else {
			logger.Warn("sim.saturated",
				"offered", offered, "accepted", st.Accepted,
				"completed", st.Completed, "born", n.measuredBorn,
				"stranded", n.measuredBorn-st.Completed, "cycles", st.Cycles,
				"aborted", st.Aborted)
		}
	}
	return st
}

// step advances the network by one cycle: channel arrivals, router
// pipelines (RC/VA then SA), and terminal injection.
func (n *Network) step(inj Injector) {
	for k, lv := range n.latVals {
		n.classSlotBase[k] = n.classOff[k] + int32(n.now%int64(lv))*n.classCnt[k]
	}
	for j, np := range n.npVals {
		n.npRot[j] = int32(n.now % int64(np))
	}
	n.arrivals()
	n.routers()
	n.inject(inj)
	if n.probe != nil {
		n.recordOccupancy()
	}
	if n.tline != nil && n.tline.Tick() {
		n.closeTimelineWindow()
	}
	if n.chk != nil {
		n.chk.endCycle(n)
	}
}

// recordOccupancy accumulates per-router buffer occupancy into the
// attached collector, once per cycle. Only runs with a probe attached.
// routerOcc is exactly the per-port sum the dense loop used to compute.
func (n *Network) recordOccupancy() {
	n.probe.Cycles++
	for r := 0; r < n.R; r++ {
		occ := int64(n.routerOcc[r])
		rc := &n.probe.Routers[r]
		rc.OccSum += occ
		if occ > rc.OccPeak {
			rc.OccPeak = occ
		}
	}
}

// takeSlot hands out a free slot of input port in's pool (base is the
// pool's offset, in*BufPerPort): the most recently freed one, else the
// next never-used one. Credit flow control bounds a port at BufPerPort
// buffered flits, so one of the two exists.
func (n *Network) takeSlot(in, base int32) int32 {
	a := &n.alloc[in]
	if a.free > 0 {
		a.free--
		return int32(n.freeSlots[base+int32(a.free)])
	}
	a.bump++
	return int32(a.bump) - 1
}

// pushVC appends the packed flit w (see packFlit), stored in slot s of
// its input port's pool (s from takeSlot; base is the pool's offset),
// to input VC gv's FIFO, and returns the queue length before the push.
// A zero return means the VC just turned non-empty: the caller must
// follow up with markBusy so the port-level masks track it (split out
// because past the saturation knee almost every arrival joins an
// already-backed-up queue and never needs the mask update). takeSlot
// and pushVC each stay under the inlining budget, so the arrivals scan
// keeps queue state in registers.
func (n *Network) pushVC(gv, base, s int32, w uint32) int32 {
	n.slots[base+s] = uint64(w)
	q := n.vcQ[gv]
	l := q & 0xffff
	head := uint64(s)
	if l != 0 {
		// The old tail's link is zero (every push writes its slot whole),
		// so OR links the new slot behind it.
		n.slots[base+int32(q>>16&0xffff)] |= uint64(s) << 32
		head = q >> 32
	}
	n.vcQ[gv] = head<<32 | uint64(s)<<16 | (l + 1)
	return int32(l)
}

// markBusy flags VC gv (on port p of router r) as newly non-empty in
// its port's masks: the VC turns busy, and either owes pipeline work,
// flagged in both the port's VC mask and r's pipe-port mask, or —
// mid-packet (vcActive, receiving body flits) — is ready for switch
// allocation, flagged in r's ready-port mask.
func (n *Network) markBusy(in, gv, r, p int32) {
	bit := uint64(1) << (gv - in*int32(n.V))
	ps := &n.inState[in]
	ps.busy |= bit
	w, pbit := r*int32(n.pw)+p>>6, uint64(1)<<(p&63)
	if n.vcStatus[gv] != vcActive {
		ps.pipe |= bit
		n.portPipeM[w] |= pbit
	} else {
		n.portReadyM[w] |= pbit
	}
}

// frontVC returns the head flit of input VC gv (which must be
// non-empty) on input port in.
func (n *Network) frontVC(in, gv int32) flit {
	return unpackFlit(uint32(n.slots[in*n.bufPP+int32(n.vcQ[gv]>>32)]))
}

// arrivals delivers flits and credits whose channel latency elapsed.
// Every channel of a latency class matures the same ring slot each
// cycle, and those slots form one contiguous stripe per class (see the
// slot-major layout on Network). The occupancy bitmaps name the
// stripe's slots that hold events, so arrivals visits only those —
// flits first, then credits — at one bitmap word per 64 slots, with no
// load at all for an empty slot. Delivery order (class-major, flits
// before credits, then stripe position) differs from channel-index
// order, which cannot affect results: each channel feeds exactly one
// input port (disjoint VC queues) and credits exactly one output port
// or terminal, and a flit delivery touches only input-port state while
// a credit delivery touches only output-port or source state, so all
// arrivals of a cycle commute.
func (n *Network) arrivals() {
	ringSlab := n.ringSlab
	flitM, credM := n.ringFlitM, n.ringCredM
	V := int32(n.V)
	maxP := int32(n.maxP)
	pw := int32(n.pw)
	for k, base := range n.classSlotBase {
		lo, hi := int(base), int(base+n.classCnt[k])
		recs := n.classHot[k]
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			m := flitM[wi] & spanMask(wi, lo, hi)
			if m == 0 {
				continue
			}
			flitM[wi] &^= m
			for ; m != 0; m &= m - 1 {
				j := wi<<6 | bits.TrailingZeros64(m)
				f, vc := unpackEv(ringSlab[j])
				// Zeroing the whole word also drops the slot's credit bit;
				// the credit pass below delivers from the bitmap.
				ringSlab[j] = 0
				rec := &recs[j-lo]
				in := rec.dstR*maxP + rec.dstP
				gv := in*V + vc
				pool := in * n.bufPP
				if n.pushVC(gv, pool, n.takeSlot(in, pool), packFlit(f)) == 0 {
					n.markBusy(in, gv, rec.dstR, rec.dstP)
				}
				n.routerOcc[rec.dstR]++
			}
		}
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			m := credM[wi] & spanMask(wi, lo, hi)
			if m == 0 {
				continue
			}
			credM[wi] &^= m
			for ; m != 0; m &= m - 1 {
				j := wi<<6 | bits.TrailingZeros64(m)
				ringSlab[j] = 0
				rec := &recs[j-lo]
				if sr := rec.srcR; sr >= 0 {
					so := sr*maxP + rec.srcP
					c := n.outCredits[so] + 1
					n.outCredits[so] = c
					if c == 1 {
						n.creditM[sr*pw+rec.srcP>>6] |= uint64(1) << (rec.srcP & 63)
					}
				} else {
					n.srcCredit[-sr-1]++
				}
			}
		}
	}
}

// spanMask returns the bits of bitmap word wi that index [lo, hi). The
// word must overlap the span.
func spanMask(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	if b := wi << 6; b < lo {
		m <<= uint(lo - b)
	}
	if e := wi<<6 + 64; e > hi {
		m &= ^uint64(0) >> uint(e-hi)
	}
	return m
}

// routers advances every busy router's pipeline: route computation and
// VC allocation, then switch allocation and traversal. The two phases
// run back to back per router — a router's pipeline state is already in
// cache when SA scans it, and the fusion is behavior-identical because
// RC/VA reads and writes only router-local state while SA's only
// cross-router effects (flits and credits on channel rings) are not
// consumed until a later cycle's arrivals.
func (n *Network) routers() {
	for r := 0; r < n.R; r++ {
		if n.routerOcc[r] == 0 {
			continue // nothing buffered, nothing to route, allocate or forward
		}
		n.routerRCVA(r)
		n.routerSA(r)
	}
}

// routerRCVA advances route computation and VC allocation for the head
// packet of every input VC of router r owing pipeline work. The pipe-port
// scan visits exactly the VCs the dense loop would have advanced
// (non-empty, not yet vcActive) in the same ascending order; VCs
// streaming body flits are skipped wholesale, which is most of them
// past the saturation knee.
func (n *Network) routerRCVA(r int) {
	V := int32(n.V)
	base := int32(r) * int32(n.maxP)
	// Local headers for the same re-load reason as routerSA.
	vcStatus := n.vcStatus
	vcRCLeft := n.vcRCLeft
	vcOutPort := n.vcOutPort
	outFreeVC := n.outFreeVC
	rw := r * n.pw // r's first word in the port masks
	// Ports owing pipeline work, from the router-level summary mask: at
	// saturation most ports only stream body flits (vcActive, not in any
	// pipe mask), so the scan touches just the ports with a head packet
	// mid-RC/VA instead of loading every port's VC mask. Each word is
	// snapshot when the scan reaches it; VA success clears only the
	// current port's bit and sets none, so the ascending word-by-word
	// scan visits exactly the ports one snapshot of the whole mask holds.
	for w := rw; w < rw+n.pw; w++ {
		for pm := n.portPipeM[w]; pm != 0; pm &= pm - 1 {
			p := int32((w-rw)<<6 | bits.TrailingZeros64(pm))
			in := base + p
			m := n.inState[in].pipe
			vbase := in * V
			for ; m != 0; m &= m - 1 {
				v := int32(bits.TrailingZeros64(m))
				gv := vbase + v
				st := vcStatus[gv]
				if st == vcIdle {
					st = vcRouting
					vcRCLeft[gv] = n.rcOfIn[in]
					if n.at != nil {
						n.atRCStart(n.frontVC(in, gv).pkt, r)
					}
				}
				if st == vcRouting {
					left := vcRCLeft[gv] - 1
					vcRCLeft[gv] = left
					if left <= 0 {
						n.computeRoute(r, in, gv)
						st = vcVCAlloc
						if n.at != nil {
							n.atRCDone(n.frontVC(in, gv).pkt, r)
						}
						if n.tr != nil {
							n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: n.frontVC(in, gv).pkt,
								Router: int32(r), Kind: obs.TraceRC, Arg: vcOutPort[gv]})
						}
					}
				}
				if st == vcVCAlloc {
					out := base + vcOutPort[gv]
					if free := outFreeVC[out]; free != 0 {
						// First free output VC at or after the round-robin
						// pointer, wrapping — the bit-scan form of the old
						// rotate-and-probe loop.
						var ov int32
						if hi := free >> uint(n.outRRVA[out]); hi != 0 {
							ov = n.outRRVA[out] + int32(bits.TrailingZeros64(hi))
						} else {
							ov = int32(bits.TrailingZeros64(free))
						}
						outFreeVC[out] = free &^ (uint64(1) << ov)
						if rr := ov + 1; rr == V {
							n.outRRVA[out] = 0
						} else {
							n.outRRVA[out] = rr
						}
						n.vcOutVC[gv] = ov
						st = vcActive
						ps := &n.inState[in]
						if pmNew := ps.pipe &^ (uint64(1) << v); pmNew == 0 {
							ps.pipe = 0
							n.portPipeM[w] &^= uint64(1) << (p & 63)
						} else {
							ps.pipe = pmNew
						}
						n.portReadyM[w] |= uint64(1) << (p & 63)
						if n.at != nil {
							n.atVADone(n.frontVC(in, gv).pkt, r)
							n.vcHead[gv] = true
						}
						if n.tr != nil {
							n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: n.frontVC(in, gv).pkt,
								Router: int32(r), Kind: obs.TraceVA, Arg: ov})
							n.vcHead[gv] = true
						}
					} else if n.probe != nil {
						n.probe.Routers[r].VAStalls++
					}
				}
				vcStatus[gv] = st
			}
		}
	}
}

// computeRoute fills the VC's output port for its head packet: the egress
// terminal port on the destination router, or a shortest-path candidate
// chosen by packet id (balancing packets across parallel lanes and
// spines). The destination router and egress port come from the packed
// pktRoute word stamped at packet allocation — one dense int32 load per
// RC instead of chasing the packet table and two terminal arrays.
func (n *Network) computeRoute(r int, in, gv int32) {
	f := n.frontVC(in, gv)
	route := n.pktRoute[f.pkt]
	dr := int(route & 0xffff)
	if dr == r {
		n.vcOutPort[gv] = route >> 16
		return
	}
	cands := n.nextFlat[r*n.R+dr]
	// Lane choice keys off the packet's salt, not its table index: the
	// salt is a pure function of (source terminal, sequence), so the
	// route is identical under any packet-id allocator (see rng.go).
	n.vcOutPort[gv] = cands[int(n.pktSalt[f.pkt])%len(cands)]
}

// routerSA performs separable switch allocation for router r and
// forwards the winning flits. Output availability lives in mask words:
// openM (the network's saOpen scratch) starts as a copy of r's credit
// mask and holds the outputs still grantable this cycle; a grant clears
// its output's bit. Snapshotting credits up front is exact — the grant
// phase never mutates outCredits or creditM (forwards run after it) —
// so an output closed in openM but set in creditM was granted this
// cycle, and one clear in both lacks credit.
func (n *Network) routerSA(r int) {
	V := n.V
	base := r * n.maxP
	pw := n.pw
	// Local slice headers and instrumentation flags: the candidate loop
	// is the simulator's hottest code, and stores through slice elements
	// force re-loading n's fields every iteration unless they live in
	// locals.
	vcOutPort := n.vcOutPort
	inState := n.inState
	winner := n.saWinner
	winnerIn := n.saWinnerIn
	slow := n.probe != nil || n.at != nil
	rw := r * pw // r's first word in the port masks
	openM := n.saOpen
	for i := range openM {
		openM[i] = n.creditM[rw+i]
	}
	// Rotating input priority. The dense loop kept a per-router
	// counter incremented exactly once per cycle, so its value was
	// always the cycle number; deriving the start port from the clock
	// (now % nP, computed once per cycle per distinct port count) keeps
	// the arbitration sequence bit-identical while letting idle routers
	// be skipped without desynchronizing the rotation. The dense loop
	// visited ports start..nP-1, then 0..start-1. Ready-port bits at nP
	// and above are clear, so scanning the mask from start on, wrapping
	// at pw*64, visits the ports with a grantable VC in that order: pass
	// k takes the 64 bits from start+64k, the top of word start>>6+k and
	// the bottom of the next word, wrapping at pw (x<<64 is 0). With one
	// word this is the mask rotated right by start.
	start := int(n.npRot[n.npIdx[r]])
	sw, sb := start>>6, uint(start&63)
	span := pw << 6
	for k := 0; k < pw; k++ {
		w0 := sw + k
		if w0 >= pw {
			w0 -= pw
		}
		w1 := w0 + 1
		if w1 == pw {
			w1 = 0
		}
		pm := n.portReadyM[rw+w0]>>sb | n.portReadyM[rw+w1]<<(64-sb)
		pbase := start + k<<6
		for ; pm != 0; pm &= pm - 1 {
			p := pbase + bits.TrailingZeros64(pm)
			if p >= span {
				p -= span
			}
			in := base + p
			// Request mask: non-empty VCs in vcActive. Rotating it right
			// by the port's round-robin pointer makes one ascending bit
			// scan visit VCs in the dense loop's order — bits at or after
			// the pointer first, then the wrapped remainder — so the
			// grant sequence is bit-identical.
			ps := &inState[in]
			ready := ps.busy &^ ps.pipe
			rr := ps.rr
			gvBase := int32(in * V)
			for m := bits.RotateLeft64(ready, -int(rr)); m != 0; m &= m - 1 {
				v := (int32(bits.TrailingZeros64(m)) + rr) & 63
				gv := gvBase + v
				out := int(vcOutPort[gv])
				ow, obit := out>>6, uint64(1)<<(out&63)
				if openM[ow]&obit == 0 {
					// Blocked: by an earlier grant this cycle (the output
					// is credited) or by exhausted credits.
					if slow {
						if n.creditM[rw+ow]&obit != 0 {
							if n.probe != nil {
								n.probe.Routers[r].SAStalls++
							}
						} else {
							if n.probe != nil {
								n.probe.Routers[r].CreditStalls++
							}
							if n.at != nil {
								n.atCreditStall(int32(in), gv, r, base+out)
							}
						}
					}
					continue
				}
				openM[ow] &^= obit
				winner[out] = gv
				winnerIn[out] = int32(in)
				if rr := v + 1; int(rr) == V {
					ps.rr = 0
				} else {
					ps.rr = rr
				}
				break // one grant per input port per cycle
			}
		}
	}
	// Forward the grants in ascending output order. A word's granted set
	// is taken just before its forwards: forward clears only its own
	// output's credit bit, which the set has already consumed.
	for wi, open := range openM {
		for g := n.creditM[rw+wi] &^ open; g != 0; g &= g - 1 {
			out := wi<<6 | bits.TrailingZeros64(g)
			n.forward(r, out, int(winner[out]), int(winnerIn[out]))
		}
	}
}

// forward moves the winning flit from its input VC onto the output
// channel (or the terminal sink), returning a credit upstream. inPort
// is winnerVC's input port (winnerVC / V), passed down from the grant
// site to keep divisions out of the per-flit path.
func (n *Network) forward(r, out, winnerVC, inPort int) {
	gv := int32(winnerVC)
	// Pop the head flit of gv's FIFO in place (the only pop site, inlined
	// so the per-flit path keeps queue state in registers), pushing its
	// slot onto the port's free stack and clearing the port's busy bit
	// when the FIFO empties. When the port's last flit leaves, its pool
	// rewinds to fresh, so free stacks hold only slots of ports in use.
	a := &n.alloc[inPort]
	q := n.vcQ[gv]
	h := int32(q >> 32)
	base := int32(inPort) * n.bufPP
	w := n.slots[base+h]
	f := unpackFlit(uint32(w))
	n.freeSlots[base+int32(a.free)] = uint16(h)
	a.free++
	left := q&0xffff - 1
	if left == 0 {
		n.vcQ[gv] = 0
		ps := &n.inState[inPort]
		if ps.busy &^= uint64(1) << (gv - int32(inPort)*int32(n.V)); ps.busy == 0 {
			*a = slotAlloc{}
		}
	} else {
		n.vcQ[gv] = w>>32<<32 | q&0xffff0000 | left
	}
	n.routerOcc[r]--
	o := r*n.maxP + out
	// The observer pointers are tested first, so an uninstrumented
	// forward never loads the head mark.
	if (n.tr != nil || n.at != nil) && n.vcHead[gv] {
		n.vcHead[gv] = false
		if n.tr != nil {
			n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: f.pkt,
				Router: int32(r), Kind: obs.TraceST, Arg: int32(out)})
		}
		if n.at != nil {
			n.atHeadForward(f.pkt, r, o)
		}
	}
	if lp := n.feedLP[inPort]; lp >= 0 {
		// The credit shares the slot word with any flit written onto the
		// same channel this cycle (the slot itself was drained by this
		// cycle's arrivals, so only this cycle's producers are present).
		n.postCred(n.classSlotBase[lp&0x7fffffff] + int32(lp>>31))
	}
	if n.probe != nil {
		n.probe.Routers[r].Flits++
	}
	if lp := n.outLP[o]; lp >= 0 {
		n.postFlit(n.classSlotBase[lp&0x7fffffff]+int32(lp>>31), packEv(f.pkt, f.last, n.vcOutVC[gv]))
		c := n.outCredits[o] - 1
		n.outCredits[o] = c
		if c == 0 {
			n.creditM[r*n.pw+out>>6] &^= uint64(1) << (out & 63)
		}
		if n.probe != nil {
			n.probe.Channels[n.outCh[o]].Flits++
		}
	} else {
		// Terminal ejection: the flit leaves through the egress pipeline
		// and the host link.
		if n.inWindow(n.now) {
			n.ejectedFlits++
		}
		if n.probe != nil {
			n.probe.Ejected++
		}
		if n.tr != nil && f.last {
			n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: f.pkt,
				Router: int32(r), Kind: obs.TraceEject, Arg: n.pkts[f.pkt].dst})
		}
		if n.chk != nil {
			n.chk.noteForward(n.now, f, true)
		}
		if f.last {
			n.completePacket(f.pkt)
		}
	}
	if n.chk != nil && n.outCh[o] >= 0 {
		n.chk.noteForward(n.now, f, false)
	}
	if f.last {
		// Tail flit: release the output VC back into the allocator's free
		// mask and return the input VC to idle. If the next packet's head
		// is already buffered behind the tail, the VC owes pipeline work
		// again, so it rejoins the RC/VA scan mask.
		n.outFreeVC[o] |= uint64(1) << n.vcOutVC[gv]
		n.vcStatus[gv] = vcIdle
		n.vcOutPort[gv], n.vcOutVC[gv] = -1, -1
		if left > 0 {
			n.inState[inPort].pipe |= uint64(1) << (winnerVC - inPort*n.V)
			p := inPort - r*n.maxP
			n.portPipeM[r*n.pw+p>>6] |= uint64(1) << (p & 63)
		}
	}
	if left == 0 || f.last {
		// The VC stopped being ready for switch allocation (it emptied,
		// or its next packet's head now owes RC/VA): drop the port from
		// the ready mask unless another of its VCs is still ready.
		if ps := &n.inState[inPort]; ps.busy&^ps.pipe == 0 {
			p := inPort - r*n.maxP
			n.portReadyM[r*n.pw+p>>6] &^= uint64(1) << (p & 63)
		}
	}
}

// postFlit ORs the packed flit event w into ring slot j and flags the
// slot in the flit occupancy bitmap. OR, not assign: the slot word may
// already carry this cycle's returning credit for the same channel.
func (n *Network) postFlit(j int32, w uint64) {
	n.ringSlab[j] |= w
	n.ringFlitM[j>>6] |= uint64(1) << (j & 63)
}

// postCred sets the credit bit of ring slot j and flags the slot in the
// credit occupancy bitmap.
func (n *Network) postCred(j int32) {
	n.ringSlab[j] |= evCred
	n.ringCredM[j>>6] |= uint64(1) << (j & 63)
}

// inWindow reports whether cycle c lies in the measurement window. A
// packet is measured when it is born there, and counts from birth:
// source-queue time is part of its latency, and a saturated network
// whose backlog never injects must not report a clean drain. The window
// is fixed for a whole Run, so inWindow(born) is the flag the packet
// had at birth, and neither the source queue nor the packet table
// stores it.
func (n *Network) inWindow(c int64) bool { return c >= n.measStart && c < n.measEnd }

// completePacket records the packet's latency (including the egress
// pipeline and host link it still has to traverse) and frees its table
// entry.
func (n *Network) completePacket(pkt int32) {
	pi := &n.pkts[pkt]
	lat := float64(n.now + int64(n.cfg.PipeDelay+n.cfg.TermDelay) - pi.born)
	if n.at != nil {
		n.atComplete(pkt, pi, lat)
	}
	measured := n.inWindow(pi.born)
	if measured {
		n.latHist.Observe(lat)
		n.completed++
	}
	if n.tline != nil {
		// The timeline is time-domain instrumentation: every retired
		// packet counts, measured or not, so warmup and drain windows
		// show real latencies too.
		n.tline.NoteRetire(lat)
	}
	if n.chk != nil {
		n.chk.noteComplete(pkt, pi, n.now)
	}
	if n.deliveries != nil {
		n.deliveries = append(n.deliveries, Delivery{
			Src: pi.src, Dst: pi.dst, Size: pi.size,
			Born: pi.born, Done: n.now, Measured: measured,
		})
	}
	n.freePkts = append(n.freePkts, pkt)
}

// inject generates new packets, then pushes source flits into the
// terminal channels, one flit per terminal per cycle, credit
// permitting. Running all births before all sends is exact: a birth
// touches only its terminal's RNG stream, source queue and injector
// state, a send only the packet table, rings and counters, and each
// pass runs in ascending terminal order — so RNG streams, packet ids and
// trace events are those of one loop doing both per terminal.
func (n *Network) inject(inj Injector) {
	n.births(inj)
	n.sends()
}

// births gives every terminal its injection trial for this cycle, or
// defers it. A terminal whose source queue holds a packet cannot send a
// packet born now before the packets queued ahead of it leave, so it
// draws nothing while its queue is non-empty: srcLagM flags it, and
// genAt[t] is its first undrawn cycle. When the queue runs dry,
// lateBirths draws the deferred trials in cycle order, each with its own
// cycle, and stops at the first birth, which becomes the head that same
// cycle, so the send pass finds it when it would have found it had every
// trial been drawn on time. A terminal's trials read only its own stream
// and injector state, and each is drawn once, in cycle order, so every
// stream, birth cycle and packet is unchanged (DESIGN §12.8).
//
// Deferral must not change which trials the cap skips. A terminal defers
// the current cycle's trial only while its queue plus the trials it
// deferred before, an upper bound on the queue it would hold now with
// every trial drawn, stays below maxPendingPerTerm, so the cap cannot
// bind at a deferred cycle; at the bound it draws until the bound holds
// again, and the current cycle's trial runs under the cap as always.
// Readers of exact birth counts call catchUp first.
func (n *Network) births(inj Injector) {
	tr := newTrials(inj)
	for t := 0; t < n.T; t++ {
		if (n.srcPendM[t>>6]|n.srcLagM[t>>6])>>(t&63)&1 != 0 {
			n.lateBirths(&tr, t)
		} else if !tr.inline {
			tr.draw(n, t, n.now)
		} else if bernoulli(&n.termSrc[t], tr.p) {
			// tr.draw written out: below the knee almost every trial is
			// an idle terminal's, and draw is too large to inline.
			n.enqueue(t, tr.rate.Pattern.Dest(t, n.termRng[t]), tr.rate.PacketFlits, n.now)
		}
	}
}

// lateBirths runs births for terminal t, which has a queued packet or
// deferred trials: it draws t's trials in cycle order from its first
// undrawn one through the current cycle's, and defers the rest as soon
// as the queue holds a packet within the bound (see births).
func (n *Network) lateBirths(tr *trials, t int) {
	now := n.now
	w, bit := t>>6, uint64(1)<<(t&63)
	c := now
	if n.srcLagM[w]&bit != 0 {
		c = n.genAt[t]
	}
	for ; c <= now; c++ {
		q := int64(len(n.srcQ[t]) - int(n.srcQHead[t]))
		if q > 0 && q+now-c < maxPendingPerTerm {
			n.genAt[t] = c
			n.srcLagM[w] |= bit
			return
		}
		// Only the current cycle's trial can meet the cap. A deferred
		// one was below the bound when deferred, and the queue now holds
		// only packets born before it that were also queued then.
		if q < maxPendingPerTerm {
			tr.draw(n, t, c)
		}
	}
	n.srcLagM[w] &^= bit
}

// catchUp draws every deferred trial through cycle last, the last cycle
// whose births pass ran, and queues the packets they yield: afterwards
// the source queues and measuredBorn are those of drawing every trial
// on time. No deferred trial meets the cap (see lateBirths).
func (n *Network) catchUp(inj Injector, last int64) {
	tr := newTrials(inj)
	for wi, m := range n.srcLagM {
		for ; m != 0; m &= m - 1 {
			t := wi<<6 | bits.TrailingZeros64(m)
			for c := n.genAt[t]; c <= last; c++ {
				tr.draw(n, t, c)
			}
		}
		n.srcLagM[wi] = 0
	}
}

// trials draws injection trials. RateInjector's Bernoulli trial is drawn
// inline from the terminal's stream (see bernoulli), which saves an
// interface call per trial; any other injector gets its Generate call.
type trials struct {
	inj    Injector
	rate   RateInjector
	inline bool
	p      float64 // the rate injector's birth probability per trial
}

func newTrials(inj Injector) trials {
	ri, inline := inj.(RateInjector)
	return trials{inj: inj, rate: ri, inline: inline, p: ri.Load / float64(ri.PacketFlits)}
}

// draw draws terminal t's trial for cycle c and queues the packet it
// yields, born at c.
func (tr *trials) draw(n *Network, t int, c int64) {
	if tr.inline {
		if bernoulli(&n.termSrc[t], tr.p) {
			n.enqueue(t, tr.rate.Pattern.Dest(t, n.termRng[t]), tr.rate.PacketFlits, c)
		}
	} else if dst, flits, ok := tr.inj.Generate(t, c, n.termRng[t]); ok {
		n.enqueue(t, dst, flits, c)
	}
}

// bernoulli reports whether the next rand.Float64 drawn from src falls
// below p, consuming src exactly as rand.New(src).Float64 does —
// float64(Int63()) / 2^63, drawn again while that rounds to 1 — so an
// inline RateInjector trial leaves the stream where Generate would.
func bernoulli(src *splitmix64, p float64) bool {
	for {
		if f := float64(src.Int63()) / (1 << 63); f != 1 {
			// Generate skips the packet when the draw is >= p, so a NaN p
			// never skips: the negation, not f < p, is the exact mirror.
			return !(f >= p)
		}
	}
}

// enqueue appends a packet born at cycle born to terminal t's source
// queue and marks the terminal pending. A backlog that never fully
// drains (any run at or past saturation) keeps its head moving without
// ever hitting the reset-to-empty in sends, so append alone would grow
// the queue without bound: a full queue at least half dead is compacted
// first — each copy frees cap/2 appends' worth of room, keeping the
// amortized cost O(1) per packet while bounding capacity at ~2x the
// pending cap.
func (n *Network) enqueue(t, dst, flits int, born int64) {
	q := n.srcQ[t]
	if head := int(n.srcQHead[t]); len(q) == cap(q) && head >= cap(q)/2 {
		q = q[:copy(q, q[head:])]
		n.srcQHead[t] = 0
	}
	if n.inWindow(born) {
		n.measuredBorn++
	}
	n.srcQ[t] = append(q, pendingPkt{dst: int32(dst), size: int32(flits), born: born})
	n.srcPendM[t>>6] |= uint64(1) << (t & 63)
}

// sends injects one flit of the front packet of every pending terminal
// whose injection channel has a credit, in ascending terminal order.
func (n *Network) sends() {
	srcQ := n.srcQ
	for wi := range n.srcPendM {
		for m := n.srcPendM[wi]; m != 0; m &= m - 1 {
			t := wi<<6 | bits.TrailingZeros64(m)
			if n.srcCredit[t] <= 0 {
				continue
			}
			q := srcQ[t]
			head := n.srcQHead[t]
			pp := &q[head]
			sent := n.srcSent[t]
			if sent == 0 {
				n.curPkt[t] = n.allocPacket(t, pp)
				n.curVC[t] = int32(int(n.pktSalt[n.curPkt[t]]) % n.V)
			}
			pkt := n.curPkt[t]
			lp := n.termLP[t]
			last := sent+1 == pp.size
			n.postFlit(n.classSlotBase[lp&0x7fffffff]+int32(lp>>31), packEv(pkt, last, n.curVC[t]))
			if n.probe != nil {
				n.probe.Injected++
				n.probe.Channels[n.termChIn[t]].Flits++
			}
			if n.tr != nil && sent == 0 {
				n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: pkt,
					Router: -1, Kind: obs.TraceInject, Arg: int32(t)})
			}
			if n.chk != nil {
				n.chk.noteInject(n.now)
			}
			n.srcCredit[t]--
			n.srcSent[t]++
			if last {
				n.srcSent[t] = 0
				if int(head)+1 == len(q) {
					srcQ[t] = q[:0]
					n.srcQHead[t] = 0
					n.srcPendM[wi] &^= uint64(1) << (t & 63)
				} else {
					n.srcQHead[t] = head + 1
				}
			}
		}
	}
}

// allocPacket creates a packet-table entry for the packet about to be
// injected by terminal t.
func (n *Network) allocPacket(t int, pp *pendingPkt) int32 {
	var pkt int32
	if l := len(n.freePkts); l > 0 {
		pkt = n.freePkts[l-1]
		n.freePkts = n.freePkts[:l-1]
	} else {
		n.pkts = append(n.pkts, packetInfo{})
		n.pktRoute = append(n.pktRoute, 0)
		n.pktSalt = append(n.pktSalt, 0)
		pkt = int32(len(n.pkts) - 1)
	}
	n.pkts[pkt] = packetInfo{src: int32(t), dst: pp.dst, size: pp.size, born: pp.born}
	n.pktRoute[pkt] = n.destRouter[pp.dst] | n.egressPort[pp.dst]<<16
	n.pktSalt[pkt] = PacketSalt(int32(t), n.termSeq[t])
	n.termSeq[t]++
	if n.chk != nil {
		n.chk.noteAlloc(pkt, n.now)
	}
	if n.at != nil {
		n.atAlloc(t, pkt, pp.born)
	}
	return pkt
}
