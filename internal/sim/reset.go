package sim

import "waferswitch/internal/obs"

// Network reuse: a Run used to be strictly single-use —
// every sweep point paid a full Build. Reset rewinds every piece of
// mutable simulation state to exactly what Build produces, without
// freeing a single backing array, so a warm network evaluates the next
// point allocation-free. The split is:
//
//   - Immutable per topology structure: route tables (nextPorts /
//     nextFlat), shared process-wide through the content-hash keyed
//     route cache (see routesFor).
//   - Immutable per network: the channel list, ring layout constants
//     (latVals/classOff/classCnt/classHot, packed producer offsets),
//     port wiring (feedCh/outCh, rcOfIn) and terminal wiring — none of
//     it changes across runs.
//   - Resettable: everything a cycle can write — VC queues and status,
//     the input ports' slot-pool allocators, port masks, credits,
//     channel ring slab, occupancy bitmaps, source queues, the packet
//     table, RNG states, counters and observer attachments. Reset
//     rewinds all of it by truncating slices to zero length and zeroing
//     arrays in place.
//
// Equivalence argument (gated by TestResetEquivalence and the refsim
// fuzz oracle): after Reset, every array a fresh Build would allocate
// zeroed is zeroed; every derived value (credits, free-VC masks, the
// credit mask, source credits) is re-derived by the same expressions
// Build uses; truncated slices replay identical append sequences within
// retained capacity, and Go's append semantics make capacity invisible
// to behavior. Stale bytes survive only where no read can reach them:
// the input-buffer pool slots are not cleared, because clearing alloc
// rewinds every port's pool to "no slot handed out yet", and a slot is
// written whole when it is handed out, before anything reads it, so
// rewinding the input buffers costs O(ports), not O(slots).

// Reset rewinds the network to the pristine just-built state, reseeded
// with seed, reusing every backing array. All observers (probe,
// timeline, tracer, attribution, checker, abort detector, delivery
// recording) are detached, as on a fresh Build — reattach what the
// next run needs.
func (n *Network) Reset(seed int64) {
	clear(n.vcQ)
	clear(n.alloc)
	clear(n.vcStatus)
	clear(n.vcRCLeft)
	clear(n.vcOutPort)
	clear(n.vcOutVC)
	clear(n.vcTraceHead)
	clear(n.vcAttribHead)
	clear(n.inState)
	clear(n.portPipeM)
	clear(n.portReadyM)
	clear(n.routerOcc)
	clear(n.ringSlab)
	clear(n.ringFlitM)
	clear(n.ringCredM)
	clear(n.classSlotBase)
	clear(n.npRot)
	clear(n.outRRVA)

	// Credits and output-VC masks, re-derived exactly as Build assigns
	// them: inter-router outputs get the per-port buffer window and a
	// full VC mask, terminal sinks an effectively infinite credit line,
	// unused (padded) ports nothing.
	clear(n.outCredits)
	clear(n.outFreeVC)
	full := fullVCMask(n.V)
	for i, ch := range n.outCh {
		if ch >= 0 {
			n.outCredits[i] = int32(n.cfg.BufPerPort)
			n.outFreeVC[i] = full
		}
	}
	for t := 0; t < n.T; t++ {
		out := int(n.destRouter[t])*n.maxP + int(n.egressPort[t])
		n.outCredits[out] = 1 << 30
		n.outFreeVC[out] = full
	}
	clear(n.creditM)
	for r := 0; r < n.R; r++ {
		for o := 0; o < n.maxP && o < 64; o++ {
			if n.outCredits[r*n.maxP+o] > 0 {
				n.creditM[r] |= uint64(1) << o
			}
		}
	}

	// Terminal sources.
	for t := range n.srcQ {
		n.srcQ[t] = n.srcQ[t][:0]
	}
	clear(n.srcPendM)
	clear(n.srcQHead)
	clear(n.srcSent)
	clear(n.curPkt)
	clear(n.curVC)
	for t := range n.srcCredit {
		n.srcCredit[t] = int32(n.cfg.BufPerPort)
	}

	// Packet table: truncation replays the fresh build's append sequence
	// inside the retained capacity.
	n.pkts = n.pkts[:0]
	n.pktRoute = n.pktRoute[:0]
	n.pktSalt = n.pktSalt[:0]
	n.freePkts = n.freePkts[:0]

	// Switch-allocation scratch.
	clear(n.saWinner)
	clear(n.saWinnerIn)
	clear(n.saStamp)
	n.saClock = 0

	// Clock and statistics.
	n.now = 0
	n.measStart, n.measEnd = 0, 0
	clear(n.latSumR)
	n.latHist = obs.Histogram{}
	n.completed = 0
	n.measuredBorn = 0
	n.ejectedFlits = 0

	// Observers: detached, like a fresh Build. The timeline's backing
	// arrays are kept (zeroed) so reattaching allocates nothing — the
	// timeline is detached with the other observers rather than through
	// AttachTimeline(nil), which would free them.
	n.observers = observers{}
	clear(n.tlChanFlits)
	clear(n.tlLatSumR)

	// Random streams, reseeded in place (see initTermRng).
	n.cfg.Seed = seed
	n.initTermRng(seed)
	clear(n.termSeq)
}

// ReusableBuilder wraps build into a Builder that constructs one
// network on first call and Resets it back to the built state on every
// later call — the drop-in upgrade for serial evaluation loops that
// call their Builder once per point (ZeroLoadLatency + LatencyVsLoad
// pairs, bisection searches). The returned Builder hands out the same
// *Network every time, so it must only be used where evaluations are
// strictly sequential; parallel sweeps manage per-worker networks
// themselves (see Sweep).
func ReusableBuilder(build Builder) Builder {
	var n *Network
	var base int64
	return func() (*Network, error) {
		if n == nil {
			nn, err := build()
			if err != nil {
				return nil, err
			}
			n, base = nn, nn.BaseSeed()
			return n, nil
		}
		n.Reset(base)
		return n, nil
	}
}
