package sim

import "waferswitch/internal/obs"

// Network reuse: a Run used to be strictly single-use —
// every sweep point paid a full Build. Reset rewinds every piece of
// mutable simulation state to exactly what Build produces, without
// freeing a single backing array, so a warm network evaluates the next
// point allocation-free. The split is:
//
//   - Immutable per topology structure: the flat route table
//     (nextFlat), shared process-wide through the content-hash keyed
//     route cache (see routesFor).
//   - Immutable per network: the channel list, ring layout constants
//     (latVals/classOff/classCnt/classHot/chanPos), port wiring (outCh,
//     the packed producer slots feedLP/outLP/termLP, rcOfIn) and
//     terminal wiring — none of it changes across runs.
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
// credit mask, source credits) is re-derived by initCredits, the helper
// Build calls; truncated slices replay identical append sequences within
// retained capacity, and Go's append semantics make capacity invisible
// to behavior. Stale bytes survive only where no read can reach them:
// the input-buffer pool slots are not cleared, because clearing alloc
// rewinds every port's pool to "no slot handed out yet", and a slot is
// written whole when it is handed out, before anything reads it, so
// rewinding the input buffers costs O(ports), not O(slots).

// Reset rewinds the network to the pristine just-built state, reseeded
// with seed, reusing every backing array; BaseSeed still returns the
// seed the network was built with. All observers (probe,
// timeline, tracer, attribution, checker, abort detector, delivery
// recording) are detached, as on a fresh Build — reattach what the
// next run needs. It is the only way to detach an instrument.
func (n *Network) Reset(seed int64) {
	clear(n.vcQ)
	clear(n.alloc)
	clear(n.vcStatus)
	clear(n.vcRCLeft)
	clear(n.vcOutPort)
	clear(n.vcOutVC)
	clear(n.vcHead)
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
	n.initCredits()

	// Terminal sources.
	for t := range n.srcQ {
		n.srcQ[t] = n.srcQ[t][:0]
	}
	clear(n.srcPendM)
	clear(n.srcLagM)
	clear(n.genAt)
	clear(n.srcQHead)
	clear(n.srcSent)
	clear(n.curPkt)
	clear(n.curVC)

	// Packet table: truncation replays the fresh build's append sequence
	// inside the retained capacity.
	n.pkts = n.pkts[:0]
	n.pktRoute = n.pktRoute[:0]
	n.pktSalt = n.pktSalt[:0]
	n.freePkts = n.freePkts[:0]

	// Switch-allocation scratch.
	clear(n.saWinner)
	clear(n.saWinnerIn)
	clear(n.saOpen)

	// Clock and statistics.
	n.now = 0
	n.measStart, n.measEnd = 0, 0
	n.latHist = obs.Histogram{}
	n.completed = 0
	n.measuredBorn = 0
	n.ejectedFlits = 0

	// Observers: detached, like a fresh Build.
	n.observers = observers{}

	// Random streams, reseeded in place (see initTermRng).
	n.initTermRng(seed)
	clear(n.termSeq)
}
