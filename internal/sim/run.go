package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"waferswitch/internal/obs"
	"waferswitch/internal/traffic"
)

// Injector produces terminal traffic. Generate is called once per
// terminal per cycle and may return at most one new packet.
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

// maxPendingPerTerm bounds the source queue so deeply saturated runs do
// not exhaust memory; hitting the cap only happens past saturation, where
// the run is already classified unstable.
const maxPendingPerTerm = 4096

// Run simulates warmup + measurement, then drains measured packets. A
// Network runs once per build or Reset: call Reset (or build a fresh
// one) before running it again.
func (n *Network) Run(inj Injector, offered float64) Stats {
	cfg := n.cfg
	n.measStart = int64(cfg.WarmupCycles)
	n.measEnd = int64(cfg.WarmupCycles + cfg.MeasureCycles)
	drain := int64(cfg.DrainCycles)
	if drain <= 0 {
		drain = 10 * int64(cfg.MeasureCycles)
	}
	if n.logger != nil {
		n.logger.Info("sim.run",
			"routers", n.R, "terminals", n.T, "channels", len(n.channels),
			"offered", offered, "warmup", cfg.WarmupCycles,
			"measure", cfg.MeasureCycles, "probe", n.probe != nil)
	}
	window := n.measEnd / 4
	if window < 1 {
		window = 1
	}
	for n.now = 0; n.now < n.measEnd; n.now++ {
		n.step(inj)
		if n.logger != nil && (n.now+1)%window == 0 {
			n.logger.Debug("sim.progress",
				"cycle", n.now+1, "of", n.measEnd,
				"born", n.measuredBorn, "completed", n.completed,
				"ejected_flits", n.ejectedFlits)
		}
		// Divergence detection runs on a fixed cycle cadence relative to
		// the measurement start, so its decisions are pure functions of
		// the seed.
		if n.ab != nil && n.now >= n.measStart && (n.now-n.measStart+1)%abortEvery == 0 {
			n.ab.measureCheck(n, offered)
		}
	}
	deadline := n.measEnd + drain
	aborted := false
	if n.ab != nil && n.ab.armed && n.completed < n.measuredBorn {
		// Saturation became certain during measurement: the whole drain
		// budget would only confirm Drained=false. Skip it.
		aborted = true
	} else {
		if n.ab != nil {
			n.ab.startDrain(n.completed)
		}
		for n.completed < n.measuredBorn && n.now < deadline {
			n.step(inj)
			n.now++
			if n.ab != nil && (n.now-n.measEnd)%abortEvery == 0 &&
				n.ab.drainCheck(n, deadline) {
				aborted = true
				break
			}
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
	if n.at != nil {
		n.foldStageSums()
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
		// Canonical latency sum: the ascending-router fold of latSumR,
		// not the histogram's completion-order running sum. The reference
		// simulator folds in the same order, so the two agree bitwise.
		sum := n.foldLatSum()
		n.latHist.SetSum(sum)
		st.AvgLatency = sum / float64(n.completed)
		st.P50Latency = n.latHist.Percentile(0.50)
		st.P99Latency = n.latHist.Percentile(0.99)
		st.P999Latency = n.latHist.Percentile(0.999)
	}
	if n.chk != nil && n.logger != nil && len(n.chk.violations) > 0 {
		n.logger.Error("sim.check_failed",
			"violations", len(n.chk.violations)+n.chk.dropped,
			"first", n.chk.violations[0])
	}
	if n.logger != nil {
		if st.Drained {
			n.logger.Info("sim.drained",
				"offered", offered, "accepted", st.Accepted,
				"avg_latency", st.AvgLatency, "p99_latency", st.P99Latency,
				"drain_cycles", n.now-n.measEnd, "completed", st.Completed)
		} else {
			n.logger.Warn("sim.saturated",
				"offered", offered, "accepted", st.Accepted,
				"completed", st.Completed, "born", n.measuredBorn,
				"stranded", n.measuredBorn-st.Completed, "cycles", st.Cycles,
				"aborted", st.Aborted)
		}
	}
	return st
}

// foldLatSum folds the per-router latency sums in ascending router
// order — the canonical float-addition order the reference simulator
// mirrors.
func (n *Network) foldLatSum() float64 {
	var sum float64
	for r := 0; r < n.R; r++ {
		sum += n.latSumR[r]
	}
	return sum
}

// percentile returns the p-quantile of sorted values using nearest-rank
// (index ceil(p*n)-1). The histogram in internal/obs follows the same
// convention so Stats percentiles agree with an exact recomputation to
// within one histogram bucket.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
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
	if n.tline != nil {
		n.tickTimeline()
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

// markBusy flags VC gv as newly non-empty in its port's masks: the VC
// turns busy, and either owes pipeline work, flagged in both the port's
// VC mask and router r's port summary mask, or — mid-packet (vcActive,
// receiving body flits) — is ready for switch allocation, flagged in
// r's ready-port mask (a shift by port p >= 64 is zero in Go, so wide
// routers — which scan every port — are left alone).
func (n *Network) markBusy(in, gv, r, p int32) {
	bit := uint64(1) << (gv - in*int32(n.V))
	ps := &n.inState[in]
	ps.busy |= bit
	if n.vcStatus[gv] != vcActive {
		ps.pipe |= bit
		n.portPipeM[r] |= uint64(1) << uint32(p)
	} else {
		n.portReadyM[r] |= uint64(1) << uint32(p)
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
						n.creditM[sr] |= uint64(1) << uint32(rec.srcP)
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
// packet of every input VC of router r owing pipeline work. The pipeM
// scan visits exactly the VCs the dense loop would have advanced
// (non-empty, not yet vcActive) in the same ascending order; VCs
// streaming body flits are skipped wholesale, which is most of them
// past the saturation knee.
func (n *Network) routerRCVA(r int) {
	V := int32(n.V)
	base := int32(r) * int32(n.maxP)
	if int(n.numPorts[r]) > 64 {
		n.routerRCVAWide(r)
		return
	}
	// Local headers for the same re-load reason as routerSA.
	vcStatus := n.vcStatus
	vcRCLeft := n.vcRCLeft
	vcOutPort := n.vcOutPort
	outFreeVC := n.outFreeVC
	// Ports owing pipeline work, from the router-level summary mask: at
	// saturation most ports only stream body flits (vcActive, not in any
	// pipe mask), so the scan touches just the ports with a head packet
	// mid-RC/VA instead of loading every port's VC mask.
	for pm := n.portPipeM[r]; pm != 0; pm &= pm - 1 {
		p := int32(bits.TrailingZeros64(pm))
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
						n.portPipeM[r] &^= uint64(1) << uint32(p)
					} else {
						ps.pipe = pmNew
					}
					n.portReadyM[r] |= uint64(1) << uint32(p)
					if n.at != nil {
						n.atVADone(n.frontVC(in, gv).pkt, r)
						n.vcAttribHead[gv] = true
					}
					if n.tr != nil {
						n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: n.frontVC(in, gv).pkt,
							Router: int32(r), Kind: obs.TraceVA, Arg: ov})
						n.vcTraceHead[gv] = true
					}
				} else if n.probe != nil {
					n.probe.Routers[r].VAStalls++
				}
			}
			vcStatus[gv] = st
		}
	}
}

// routerRCVAWide is routerRCVA for routers with more than 64 ports,
// where the port summary does not fit a register mask: every port's VC
// pipe mask is loaded and tested, with identical decisions in identical
// order.
func (n *Network) routerRCVAWide(r int) {
	V := int32(n.V)
	base := int32(r) * int32(n.maxP)
	nP := int32(n.numPorts[r])
	vcStatus := n.vcStatus
	vcRCLeft := n.vcRCLeft
	vcOutPort := n.vcOutPort
	outFreeVC := n.outFreeVC
	for p := int32(0); p < nP; p++ {
		in := base + p
		m := n.inState[in].pipe
		if m == 0 {
			continue
		}
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
					n.inState[in].pipe &^= uint64(1) << v
					if n.at != nil {
						n.atVADone(n.frontVC(in, gv).pkt, r)
						n.vcAttribHead[gv] = true
					}
					if n.tr != nil {
						n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: n.frontVC(in, gv).pkt,
							Router: int32(r), Kind: obs.TraceVA, Arg: ov})
						n.vcTraceHead[gv] = true
					}
				} else if n.probe != nil {
					n.probe.Routers[r].VAStalls++
				}
			}
			vcStatus[gv] = st
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
// forwards the winning flits. Routers with at most 64 ports (all
// practical radixes after deradixing) track output availability in two
// registers: openM holds the outputs still grantable this cycle
// (credits available, not yet granted), grantM the outputs granted.
// Snapshotting credits into openM up front is exact — the grant phase
// never mutates outCredits (forwards run after it) — and forwarding
// grantM's set bits in ascending order reproduces the stamp-scan order
// bit for bit.
func (n *Network) routerSA(r int) {
	V := n.V
	base := r * n.maxP
	nP := int(n.numPorts[r])
	if nP > 64 {
		n.routerSAWide(r)
		return
	}
	// Local slice headers and instrumentation flags: the candidate loop
	// is the simulator's hottest code, and stores through slice elements
	// force re-loading n's fields every iteration unless they live in
	// locals.
	vcOutPort := n.vcOutPort
	inState := n.inState
	winner := n.saWinner
	winnerIn := n.saWinnerIn
	slow := n.probe != nil || n.at != nil
	// Grantable outputs: the maintained credit mask, exactly the bits
	// the per-port credit scan used to assemble.
	openM := n.creditM[r]
	var grantM uint64
	// Rotating input priority. The dense loop kept a per-router
	// counter incremented exactly once per cycle, so its value was
	// always the cycle number; deriving the start port from the clock
	// (now % nP, computed once per cycle per distinct port count) keeps
	// the arbitration sequence bit-identical while letting idle routers
	// be skipped without desynchronizing the rotation. The ready-port
	// mask holds bits below nP <= 64 only, so rotating it right by start
	// puts ports start..nP-1 at the bottom and the wrapped ports
	// 0..start-1 at the top: one ascending bit scan visits exactly the
	// ports with a grantable VC, in the dense loop's order.
	start := int(n.npRot[n.npIdx[r]])
	for pm := bits.RotateLeft64(n.portReadyM[r], -start); pm != 0; pm &= pm - 1 {
		in := base + (bits.TrailingZeros64(pm)+start)&63
		// Request mask: non-empty VCs in vcActive. Scanned in the
		// round-robin order the dense loop used — bits at or after the
		// rotating pointer first, then the wrapped remainder — so the
		// grant sequence is bit-identical.
		ps := &inState[in]
		ready := ps.busy &^ ps.pipe
		rr := ps.rr
		gvBase := int32(in * V)
		// Rotating ready right by rr makes one ascending bit scan visit
		// VCs in round-robin order — bits at or after the pointer first,
		// then the wrapped remainder — replacing the dense loop's
		// two-pass hi/lo split with the identical grant sequence.
		for m := bits.RotateLeft64(ready, -int(rr)); m != 0; m &= m - 1 {
			v := (int32(bits.TrailingZeros64(m)) + rr) & 63
			gv := gvBase + v
			out := int(vcOutPort[gv])
			if openM>>out&1 == 0 {
				// Blocked: by an earlier grant (grantM set, an output
				// that was grantable cannot have been credit-less) or
				// by exhausted credits, mirroring the stamp-then-
				// credit test order of the wide path.
				if slow {
					if grantM>>out&1 != 0 {
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
			openM &^= uint64(1) << out
			grantM |= uint64(1) << out
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
	for ; grantM != 0; grantM &= grantM - 1 {
		out := bits.TrailingZeros64(grantM)
		n.forward(r, out, int(winner[out]), int(winnerIn[out]))
	}
}

// routerSAWide is routerSA for routers with more than 64 ports, where
// the output masks do not fit a register: per-output grant stamps
// replace openM/grantM, with identical grant decisions and forwarding
// order.
func (n *Network) routerSAWide(r int) {
	V := n.V
	base := r * n.maxP
	nP := int(n.numPorts[r])
	n.saClock++
	start := int(n.npRot[n.npIdx[r]])
	granted := 0
	for i := 0; i < nP; i++ {
		p := start + i
		if p >= nP {
			p -= nP
		}
		in := base + p
		ps := &n.inState[in]
		ready := ps.busy &^ ps.pipe
		if ready == 0 {
			continue
		}
		rr := ps.rr
		hi := ready &^ (uint64(1)<<rr - 1)
		lo := ready ^ hi
		for k := 0; k < 2; k++ {
			m := hi
			if k == 1 {
				m = lo
			}
			for ; m != 0; m &= m - 1 {
				v := int32(bits.TrailingZeros64(m))
				gv := int32(in*V) + v
				out := int(n.vcOutPort[gv])
				if n.saStamp[out] == n.saClock {
					if n.probe != nil {
						n.probe.Routers[r].SAStalls++
					}
					continue // output already granted this cycle
				}
				if n.outCredits[base+out] <= 0 {
					if n.probe != nil {
						n.probe.Routers[r].CreditStalls++
					}
					if n.at != nil {
						n.atCreditStall(int32(in), gv, r, base+out)
					}
					continue
				}
				n.saStamp[out] = n.saClock
				n.saWinner[out] = gv
				n.saWinnerIn[out] = int32(in)
				if rr := v + 1; int(rr) == V {
					ps.rr = 0
				} else {
					ps.rr = rr
				}
				granted++
				k = 2 // one grant per input port per cycle
				break
			}
		}
	}
	for out := 0; granted > 0; out++ {
		if n.saStamp[out] != n.saClock {
			continue
		}
		granted--
		n.forward(r, out, int(n.saWinner[out]), int(n.saWinnerIn[out]))
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
	if n.tr != nil && n.vcTraceHead[gv] {
		n.vcTraceHead[gv] = false
		n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: f.pkt,
			Router: int32(r), Kind: obs.TraceST, Arg: int32(out)})
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
	o := r*n.maxP + out
	if n.at != nil && n.vcAttribHead[gv] {
		n.vcAttribHead[gv] = false
		n.atHeadForward(f.pkt, r, o)
	}
	if lp := n.outLP[o]; lp >= 0 {
		n.postFlit(n.classSlotBase[lp&0x7fffffff]+int32(lp>>31), packEv(f.pkt, f.last, n.vcOutVC[gv]))
		c := n.outCredits[o] - 1
		n.outCredits[o] = c
		if c == 0 {
			n.creditM[r] &^= uint64(1) << uint32(out)
		}
		if n.probe != nil {
			n.probe.Channels[n.outCh[o]].Flits++
		}
		if n.tline != nil {
			n.tlChanFlits[n.outCh[o]]++
		}
	} else {
		// Terminal ejection: the flit leaves through the egress pipeline
		// and the host link.
		if n.now >= n.measStart && n.now < n.measEnd {
			n.ejectedFlits++
		}
		if n.probe != nil {
			n.probe.Ejected++
		}
		if n.tline != nil {
			n.tline.NoteEject()
		}
		if n.tr != nil && f.last {
			n.tr.Record(obs.TraceEvent{Cycle: n.now, Packet: f.pkt,
				Router: int32(r), Kind: obs.TraceEject, Arg: n.pkts[f.pkt].dst})
		}
		if n.chk != nil {
			n.chk.noteForward(n.now, f, true)
		}
		if f.last {
			n.completePacket(f.pkt, r)
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
			n.portPipeM[r] |= uint64(1) << uint32(inPort-r*n.maxP)
		}
	}
	if left == 0 || f.last {
		// The VC stopped being ready for switch allocation (it emptied,
		// or its next packet's head now owes RC/VA): drop the port from
		// the ready mask unless another of its VCs is still ready.
		if ps := &n.inState[inPort]; ps.busy&^ps.pipe == 0 {
			n.portReadyM[r] &^= uint64(1) << uint32(inPort-r*n.maxP)
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

// completePacket records the packet's latency (including the egress
// pipeline and host link it still has to traverse) and frees its table
// entry. r is the ejecting router, which keys the per-router latency
// sum (see latSumR).
func (n *Network) completePacket(pkt int32, r int) {
	pi := &n.pkts[pkt]
	lat := float64(n.now + int64(n.cfg.PipeDelay+n.cfg.TermDelay) - pi.born)
	if n.at != nil {
		n.atComplete(pkt, pi, lat, r)
	}
	if pi.measured {
		n.latSumR[r] += lat
		n.latHist.Observe(lat)
		n.completed++
	}
	if n.tline != nil {
		// The timeline is time-domain instrumentation: every retired
		// packet counts, measured or not, so warmup and drain windows
		// show real latencies too.
		n.tline.NoteRetire(lat)
		n.tlLatSumR[r] += lat
	}
	if n.chk != nil {
		n.chk.noteComplete(pkt, pi, n.now)
	}
	if n.recordDeliv {
		n.deliveries = append(n.deliveries, Delivery{
			Src: pi.src, Dst: pi.dst, Size: pi.size,
			Born: pi.born, Done: n.now, Measured: pi.measured,
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

// births gives every terminal below maxPendingPerTerm its chance of a
// new packet. RateInjector's Bernoulli trial is drawn inline from the
// terminal's stream (see bernoulli), which saves an interface call per
// terminal-cycle; any other injector gets its Generate call. Packets
// born in the measurement window count as measured immediately —
// source-queue time is part of their latency, and a saturated network
// whose backlog never injects must not report a clean drain.
func (n *Network) births(inj Injector) {
	measured := n.now >= n.measStart && n.now < n.measEnd
	ri, inline := inj.(RateInjector)
	p := ri.Load / float64(ri.PacketFlits)
	for t := 0; t < n.T; t++ {
		// Only a pending terminal can have reached the cap.
		if n.srcPendM[t>>6]>>(t&63)&1 != 0 && len(n.srcQ[t])-int(n.srcQHead[t]) >= maxPendingPerTerm {
			continue
		}
		if inline {
			if bernoulli(&n.termSrc[t], p) {
				n.enqueue(t, ri.Pattern.Dest(t, n.termRng[t]), ri.PacketFlits, measured)
			}
		} else if dst, flits, ok := inj.Generate(t, n.now, n.termRng[t]); ok {
			n.enqueue(t, dst, flits, measured)
		}
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

// enqueue appends a new packet to terminal t's source queue and marks
// the terminal pending. A backlog that never fully drains (any run at or
// past saturation) keeps its head moving without ever hitting the
// reset-to-empty in sends, so append alone would grow the queue without
// bound: a full queue at least half dead is compacted first — each copy
// frees cap/2 appends' worth of room, keeping the amortized cost O(1)
// per packet while bounding capacity at ~2x the pending cap.
func (n *Network) enqueue(t, dst, flits int, measured bool) {
	q := n.srcQ[t]
	if head := int(n.srcQHead[t]); len(q) == cap(q) && head >= cap(q)/2 {
		q = q[:copy(q, q[head:])]
		n.srcQHead[t] = 0
	}
	if measured {
		n.measuredBorn++
	}
	n.srcQ[t] = append(q, pendingPkt{
		dst: int32(dst), size: int32(flits), born: n.now, measured: measured,
	})
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
			if n.tline != nil {
				n.tline.NoteInject()
				n.tlChanFlits[n.termChIn[t]]++
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
	n.pkts[pkt] = packetInfo{
		src: int32(t), dst: pp.dst, size: pp.size,
		born: pp.born, measured: pp.measured,
	}
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
