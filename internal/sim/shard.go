package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"waferswitch/internal/obs"
)

// Sharded single-sim execution: one simulation partitioned spatially
// across goroutines, bit-identical to the serial Run (see DESIGN §13).
//
// The partitioner (partition.go) assigns each shard a contiguous
// router range and the matching terminal range, so every shard runs
// the unmodified serial cycle loop (step/arrivals/routers/inject) over
// narrowed bounds. Almost all simulator state is written by exactly
// one shard (VC queues, port state, credits, source queues are all
// router- or terminal-indexed), so the per-shard Network copies share
// those backing arrays. Only channel events cross a cut, and channel
// latency gives conservative lookahead: an event produced at cycle t
// on a latency-L channel is consumed at t+L, so shards can run E =
// min(boundary L) cycles between barriers without ever needing a
// remote event mid-epoch.
//
// A boundary channel's serial ring would be written by two shards (the
// source writes flits, the destination writes returning credits), so
// it is split: the destination shard owns a flit ring, the source
// shard owns a credit ring — the serial layout's flit/credit word
// sharing was only a storage optimization. Producers reach local rings
// through the usual packed feedLP/outLP offsets; boundary producers
// get a sentinel offset (lp <= -2) that indexes a bndRef, which
// buffers the event — with its final ring-slab index precomputed from
// the consumer shard's layout constants — into an outbox. At each
// barrier the coordinator drains every outbox into the owning shard's
// ring slab in fixed (consumer, producer, production order), giving a
// deterministic boundary commit order; determinism of everything else
// follows from arrivals' documented commutativity (each channel feeds
// exactly one port) and the per-terminal RNG / packet-salt refactor
// (rng.go) that makes traffic and routing independent of global scan
// and allocation order.

// mbEntry is one boundary event: the packed channel-event word and its
// precomputed index into the consumer shard's ring slab.
type mbEntry struct {
	idx int32
	w   uint64
}

// outbox buffers one producer shard's boundary events for one consumer
// shard between barriers. The slice is reset, not freed, each epoch —
// after warmup its capacity stabilizes and the steady state allocates
// nothing.
type outbox struct {
	ents []mbEntry
}

// bndRef is a producer-side boundary redirect: the consumer shard's
// ring layout constants for one boundary channel, plus the outbox the
// event goes to. forward() reaches it through a sentinel lp <= -2
// (boundary ref index -(lp+2)).
type bndRef struct {
	off, cnt, pos int32
	lat           int32
	box           *outbox
}

// bndPush buffers a boundary channel event produced this cycle. The
// slot index mirrors the serial producer expression classOff +
// (now%lat)*cnt + pos: the event matures when the consumer's arrivals
// scan next reaches that slot, exactly lat cycles from now.
func (n *Network) bndPush(lp int64, w uint64) {
	b := &n.bnd[-(lp + 2)]
	idx := b.off + int32(n.now%int64(b.lat))*b.cnt + b.pos
	b.box.ents = append(b.box.ents, mbEntry{idx: idx, w: w})
}

// pktPool is the shared packet-id reserve for sharded runs. The packet
// table is preallocated to the live-packet bound (every live packet
// holds at least one flit in some ring or VC buffer, so live packets
// never exceed total flit capacity); shards draw ids in batches from
// the pool and spill surplus back, so the shared table never grows and
// the steady state takes the mutex once per ~poolBatch packets.
type pktPool struct {
	mu   sync.Mutex
	free []int32
}

const poolBatch = 256

// poolSpillAt bounds a shard's local freelist; above it a batch goes
// back to the pool. The pool's slack is sized so that even with every
// shard's freelist full the pool can always satisfy a refill.
const poolSpillAt = 3 * poolBatch

func (p *pktPool) refill(dst []int32) []int32 {
	p.mu.Lock()
	take := poolBatch
	if take > len(p.free) {
		take = len(p.free)
	}
	if take == 0 {
		p.mu.Unlock()
		// Unreachable by construction: the table is sized to the live
		// bound plus every shard's maximum local holding. Failing loudly
		// beats racing on a shared append.
		panic("sim: sharded packet pool exhausted (live-packet bound violated)")
	}
	dst = append(dst, p.free[len(p.free)-take:]...)
	p.free = p.free[:len(p.free)-take]
	p.mu.Unlock()
	return dst
}

func (p *pktPool) spill(src []int32) []int32 {
	cut := len(src) - poolBatch
	p.mu.Lock()
	p.free = append(p.free, src[cut:]...)
	p.mu.Unlock()
	return src[:cut]
}

// ringRef locates one ring during sharded layout construction: the
// owning shard, its latency class there, and its stripe position.
type ringRef struct {
	shard, k, pos int32
}

// shardLocal holds one shard copy's private backing arrays and loop
// bounds across runs. The per-run re-sync (*sh = *n) overwrites every
// field of the shard's Network, so the reusable slice headers live here
// and are restored (and zeroed where a fresh allocation would be zero)
// after it.
type shardLocal struct {
	rLo, rHi, tLo, tHi int
	latVals            []int32
	classOff           []int32
	classCnt           []int32
	classHot           [][]chanHot
	classSlotBase      []int32
	ringSlab           []uint64
	ringFlitM          []uint64
	ringCredM          []uint64
	srcPendM           []uint64
	npRot              []int32
	saWinner           []int32
	saWinnerIn         []int32
	saStamp            []int64
	feedLP             []int64
	outLP              []int64
	termLP             []int64
	bnd                []bndRef
	freePkts           []int32
}

// shardPlan caches everything RunSharded derives from the network's
// immutable structure and a shard count: the partition, the per-shard
// ring layouts, the boundary refs with their outbox matrix, the packet
// pool, and the S shard Network copies with their backing arrays. The
// plan contains no per-run state, so it survives Network.Reset and
// every later sharded run at the same shard count reuses it — the
// several-MB/op per-shard setup cost is paid once per network.
type shardPlan struct {
	S         int
	cuts      []int
	ts        []int
	offS      [][]int32
	cntS      [][]int32
	flitRef   []ringRef
	credRef   []ringRef
	nBoundary int
	// epochBnd is the conservative-lookahead epoch: the minimum boundary-
	// channel latency, or 0 when no channel crosses a cut (the run then
	// syncs only at stop events).
	epochBnd int64
	// flitCap is the network-wide flit capacity bound (ring slots plus
	// credit-bounded VC buffers) the packet table is sized from.
	flitCap int
	boxes   [][]outbox
	pool    *pktPool
	nets    []*Network
	locals  []shardLocal
}

// buildShardPlan computes the sharded execution layout for S shards:
// the router/terminal partition, ring placement, boundary redirects and
// per-shard producer offsets. Everything here is a pure function of the
// built network's structure — nothing depends on the seed, the load, or
// any prior run.
func (n *Network) buildShardPlan(S int) *shardPlan {
	p := &shardPlan{S: S, pool: &pktPool{}}
	p.cuts = n.partitionRouters(S)
	p.ts = n.termStarts()
	shardOf := make([]int32, n.R)
	for s := 0; s < S; s++ {
		for r := p.cuts[s]; r < p.cuts[s+1]; r++ {
			shardOf[r] = int32(s)
		}
	}

	// Ring placement: every channel gets a flit ring in its destination
	// shard; boundary channels additionally get a credit ring in their
	// source shard (interior channels keep the serial flit/credit word
	// sharing). Channels are visited in index order, so stripe positions
	// — and with them the whole layout — are deterministic.
	nc := len(n.channels)
	latValsS := make([][]int32, S)
	hotS := make([][][]chanHot, S)
	addRing := func(s int32, lat int32, h chanHot) ringRef {
		k := int32(-1)
		for i, lv := range latValsS[s] {
			if lv == lat {
				k = int32(i)
				break
			}
		}
		if k < 0 {
			k = int32(len(latValsS[s]))
			latValsS[s] = append(latValsS[s], lat)
			hotS[s] = append(hotS[s], nil)
		}
		hotS[s][k] = append(hotS[s][k], h)
		return ringRef{shard: s, k: k, pos: int32(len(hotS[s][k]) - 1)}
	}
	p.flitRef = make([]ringRef, nc)
	p.credRef = make([]ringRef, nc)
	for ci := range n.channels {
		c := &n.channels[ci]
		ds := shardOf[c.dstRouter]
		ss := ds
		if c.srcRouter >= 0 {
			ss = shardOf[c.srcRouter]
		}
		srcR := c.srcRouter
		if c.srcTerm >= 0 {
			srcR = -(c.srcTerm + 1)
		}
		h := chanHot{dstR: c.dstRouter, dstP: c.dstPort, srcR: srcR, srcP: c.srcPort}
		p.flitRef[ci] = addRing(ds, c.lat, h)
		if ss == ds {
			p.credRef[ci] = ringRef{shard: -1}
			continue
		}
		p.credRef[ci] = addRing(ss, c.lat, h)
		p.nBoundary++
		if p.epochBnd == 0 || int64(c.lat) < p.epochBnd {
			p.epochBnd = int64(c.lat)
		}
	}
	// Per-shard slot-major layout, mirroring Build's slab pass.
	p.offS = make([][]int32, S)
	p.cntS = make([][]int32, S)
	slabLen := make([]int32, S)
	for s := 0; s < S; s++ {
		p.offS[s] = make([]int32, len(latValsS[s]))
		p.cntS[s] = make([]int32, len(latValsS[s]))
		total := int32(0)
		for k, lv := range latValsS[s] {
			p.offS[s][k] = total
			p.cntS[s][k] = int32(len(hotS[s][k]))
			total += lv * p.cntS[s][k]
		}
		slabLen[s] = total
	}
	p.flitCap = 0
	for i := range n.channels {
		p.flitCap += int(n.channels[i].lat)
	}
	p.flitCap += n.R * n.maxP * int(n.bufPP)

	p.boxes = make([][]outbox, S)
	for s := range p.boxes {
		p.boxes[s] = make([]outbox, S)
	}
	p.nets = make([]*Network, S)
	p.locals = make([]shardLocal, S)
	for s := 0; s < S; s++ {
		loc := &p.locals[s]
		loc.rLo, loc.rHi = p.cuts[s], p.cuts[s+1]
		loc.tLo, loc.tHi = p.ts[p.cuts[s]], p.ts[p.cuts[s+1]]
		loc.latVals = latValsS[s]
		loc.classCnt = p.cntS[s]
		loc.classOff = p.offS[s]
		loc.classHot = hotS[s]
		loc.classSlotBase = make([]int32, len(latValsS[s]))
		loc.ringSlab = make([]uint64, slabLen[s])
		loc.ringFlitM = make([]uint64, bitWords(int(slabLen[s])))
		loc.ringCredM = make([]uint64, bitWords(int(slabLen[s])))
		// A private pending bitmap per shard, indexed like the master's:
		// a shard's terminal range can start or end mid-word, and two
		// shards must never write the same word.
		loc.srcPendM = make([]uint64, len(n.srcPendM))
		loc.npRot = make([]int32, len(n.npVals))
		loc.saWinner = make([]int32, n.maxP)
		loc.saWinnerIn = make([]int32, n.maxP)
		loc.saStamp = make([]int64, n.maxP)
		loc.freePkts = make([]int32, 0, poolSpillAt+poolBatch)
		// Producer offsets against the shard-local layout, with boundary
		// producers redirected to outboxes (lp <= -2, see bndPush).
		lpLocal := func(ref ringRef) int64 {
			return int64(ref.pos)<<31 | int64(ref.k)
		}
		addBnd := func(ref ringRef, lat int32) int64 {
			loc.bnd = append(loc.bnd, bndRef{
				off: p.offS[ref.shard][ref.k], cnt: p.cntS[ref.shard][ref.k],
				pos: ref.pos, lat: lat, box: &p.boxes[s][ref.shard],
			})
			return -2 - int64(len(loc.bnd)-1)
		}
		loc.feedLP = make([]int64, len(n.feedLP))
		loc.outLP = make([]int64, len(n.outLP))
		for i := range loc.feedLP {
			loc.feedLP[i], loc.outLP[i] = -1, -1
		}
		for r := loc.rLo; r < loc.rHi; r++ {
			for pt := 0; pt < n.maxP; pt++ {
				i := r*n.maxP + pt
				if ci := n.feedCh[i]; ci >= 0 {
					if cr := p.credRef[ci]; cr.shard < 0 {
						loc.feedLP[i] = lpLocal(p.flitRef[ci]) // interior: credit shares the flit ring word
					} else {
						loc.feedLP[i] = addBnd(cr, n.channels[ci].lat)
					}
				}
				if ci := n.outCh[i]; ci >= 0 {
					if fr := p.flitRef[ci]; int(fr.shard) == s {
						loc.outLP[i] = lpLocal(fr)
					} else {
						loc.outLP[i] = addBnd(p.flitRef[ci], n.channels[ci].lat)
					}
				}
			}
		}
		loc.termLP = make([]int64, len(n.termLP))
		for t := loc.tLo; t < loc.tHi; t++ {
			loc.termLP[t] = lpLocal(p.flitRef[n.termChIn[t]]) // terminal channels are always shard-interior
		}
		p.nets[s] = new(Network)
	}
	return p
}

// RunSharded is Run partitioned across shards goroutines, bit-identical
// to the serial Run for any shard count: same Stats, same latency
// histogram (including the float sum), same delivery log — and, when
// attached, the same timeline series, the same attribution collector and
// the same invariant-checker verdicts. Shard counts <= 1 (after clamping
// to the router count) delegate to Run.
//
// The aggregate observers run shard-aware: the timeline sampler closes
// its windows at barrier-aligned boundaries from per-shard accumulators,
// congestion attribution records into per-shard collectors merged in
// ascending shard order (cross-shard credit-stall blame routes through
// the private collectors), and the invariant checker splits into
// shard-local event checks plus coordinator-run structural scans and a
// global no-progress watchdog at barriers (see DESIGN §14). Only the
// flight recorder (a strictly-ordered global event ring) and
// convergence-bounded measurement (a sequential stopping rule on the
// global cycle stream) remain serial-only and return an error naming
// the serial path.
func (n *Network) RunSharded(inj Injector, offered float64, shards int) (Stats, error) {
	switch {
	case n.tr != nil:
		return Stats{}, fmt.Errorf("sim: sharded run does not support the flight recorder; run serial (shards=1)")
	case n.cfg.ConvergeRelErr > 0:
		return Stats{}, fmt.Errorf("sim: sharded run does not support convergence-bounded measurement; run serial (shards=1)")
	}
	if shards > n.R {
		shards = n.R // every shard needs at least one router
	}
	if shards <= 1 {
		return n.Run(inj, offered), nil
	}
	S := shards
	cfg := n.cfg
	n.measStart = int64(cfg.WarmupCycles)
	n.measEnd = int64(cfg.WarmupCycles + cfg.MeasureCycles)
	drain := int64(cfg.DrainCycles)
	if drain <= 0 {
		drain = 10 * int64(cfg.MeasureCycles)
	}

	// Immutable sharding layout: computed once per (network, shard
	// count) and reused across runs — Network.Reset leaves it in place,
	// so warm sweep workers pay the layout cost on their first point
	// only.
	if n.plan == nil || n.plan.S != S {
		n.plan = n.buildShardPlan(S)
	}
	p := n.plan
	flitRef, credRef := p.flitRef, p.credRef
	offS, cntS := p.offS, p.cntS
	boxes, nets := p.boxes, p.nets
	nBoundary := p.nBoundary
	nc := len(n.channels)
	epoch := p.epochBnd
	if epoch == 0 {
		epoch = n.measEnd // no boundary channels: sync only at stop events
	}
	if epoch < 1 {
		epoch = 1
	}

	// Shared preallocated packet table sized to the live-packet bound:
	// total flit capacity (ring slots plus credit-bounded VC buffers)
	// plus every shard's maximum local freelist holding. A reused
	// network retains the table's capacity, so the growth loop and the
	// pool fill below allocate nothing after the first run.
	origLen := len(n.pkts)
	capTotal := origLen + p.flitCap + S*(poolSpillAt+poolBatch) + 64
	for len(n.pkts) < capTotal {
		n.pkts = append(n.pkts, packetInfo{})
		n.pktRoute = append(n.pktRoute, 0)
		n.pktSalt = append(n.pktSalt, 0)
	}
	// Packet-id-indexed observer state mirrors the packet table: growing
	// it to the same preallocated bound up front means the shards' shared
	// slices never grow mid-run (an append would race). A packet id is
	// touched by one shard at a time — handoff goes through the pool
	// mutex (free-id recycling) or an epoch barrier (flits crossing a
	// cut), both of which order the accesses.
	if n.at != nil {
		for len(n.at.pkts) < capTotal {
			n.at.pkts = append(n.at.pkts, pktAttrib{})
		}
	}
	if n.chk != nil {
		for len(n.chk.live) < capTotal {
			n.chk.live = append(n.chk.live, false)
			n.chk.ejected = append(n.chk.ejected, 0)
		}
	}
	pool := p.pool
	pool.free = append(pool.free[:0], n.freePkts...)
	for id := capTotal - 1; id >= origLen; id-- {
		pool.free = append(pool.free, int32(id))
	}
	n.freePkts = nil

	// Per-shard Network copies, re-synced from the master each run:
	// shared backing for all router/terminal-indexed state (disjoint
	// writes by ownership), the plan's cached ring layout and scratch —
	// zeroed in place where a fresh allocation would be zero — and fresh
	// per-run observers and counters.
	for s := 0; s < S; s++ {
		sh := nets[s]
		loc := &p.locals[s]
		*sh = *n
		sh.rLo, sh.rHi = loc.rLo, loc.rHi
		sh.tLo, sh.tHi = loc.tLo, loc.tHi
		sh.latVals = loc.latVals
		sh.classCnt = loc.classCnt
		sh.classOff = loc.classOff
		sh.classHot = loc.classHot
		sh.classSlotBase = loc.classSlotBase
		clear(sh.classSlotBase)
		sh.ringSlab = loc.ringSlab
		clear(sh.ringSlab)
		sh.ringFlitM = loc.ringFlitM
		clear(sh.ringFlitM)
		sh.ringCredM = loc.ringCredM
		clear(sh.ringCredM)
		sh.srcPendM = loc.srcPendM
		copy(sh.srcPendM, n.srcPendM)
		sh.npRot = loc.npRot
		clear(sh.npRot)
		sh.saWinner = loc.saWinner
		clear(sh.saWinner)
		sh.saWinnerIn = loc.saWinnerIn
		clear(sh.saWinnerIn)
		sh.saStamp = loc.saStamp
		clear(sh.saStamp)
		sh.saClock = 0
		sh.now = 0
		sh.latHist = obs.Histogram{}
		sh.latencySum = 0
		sh.completed, sh.measuredBorn = 0, 0
		sh.ejectedFlits, sh.lastDone = 0, 0
		sh.deliveries = nil
		sh.freePkts = loc.freePkts[:0]
		sh.pool = pool
		sh.logger = nil
		sh.ab = nil
		sh.plan = nil
		if n.probe != nil {
			sh.probe = n.NewProbe()
		}
		if n.tline != nil {
			// Shard-local window accumulator: Tick integrates this shard's
			// router occupancy and never reports a window boundary — the
			// coordinator drains the accumulators at the master sampler's
			// window boundaries, which are always barrier-aligned. The
			// per-channel utilization counters and per-router latency sums
			// stay shared: every channel and every router has exactly one
			// writer shard.
			sh.tline = obs.NewTimelineAccumulator()
		}
		if n.at != nil {
			// Private full-size collector per shard: a credit stall blames
			// the downstream router, which may live in another shard, so
			// blame counters cannot share one array without racing. Every
			// counter is an integer, so the ascending-shard merge at the
			// end is exact. The per-packet accumulators and per-router
			// stage sums are shared (packet-id handoff is ordered by the
			// pool mutex or a barrier; stage sums have one writer per
			// router).
			sh.at = &attribState{a: n.NewAttribution(), pkts: n.at.pkts, stageSumR: n.at.stageSumR}
		}
		if n.chk != nil {
			// Event-driven checks (loss/duplication, progress, counters)
			// run shard-locally; eventsOnly defers the structural scans and
			// the watchdog to the coordinator, which runs them at barriers
			// where global state is settled.
			sh.chk = &checker{opt: n.chk.opt, eventsOnly: true, live: n.chk.live, ejected: n.chk.ejected}
		}
		sh.feedLP = loc.feedLP
		sh.outLP = loc.outLP
		sh.termLP = loc.termLP
		sh.bnd = loc.bnd
	}

	if n.logger != nil {
		n.logger.Info("sim.run_sharded",
			"routers", n.R, "terminals", n.T, "channels", nc,
			"offered", offered, "shards", S, "epoch", epoch,
			"boundary_channels", nBoundary, "probe", n.probe != nil)
	}

	// Persistent workers driven by per-segment channel sends; the
	// send/Wait pair is the two-phase barrier (workers quiesce, then the
	// coordinator owns all state until the next send).
	type segment struct{ from, to int64 }
	starts := make([]chan segment, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		starts[s] = make(chan segment, 1)
		go func(s int) {
			pprof.Do(context.Background(), pprof.Labels("sim_shard", strconv.Itoa(s)), func(context.Context) {
				sh := nets[s]
				for seg := range starts[s] {
					for sh.now = seg.from; sh.now < seg.to; sh.now++ {
						sh.step(inj)
					}
					wg.Done()
				}
			})
		}(s)
	}
	defer func() {
		for s := range starts {
			close(starts[s])
		}
	}()
	runSeg := func(from, to int64) {
		wg.Add(S)
		for s := 0; s < S; s++ {
			starts[s] <- segment{from, to}
		}
		wg.Wait()
		// Boundary commit: drain every outbox into the owning shard's
		// ring slab in fixed (consumer, producer, production) order.
		// Each entry lands in a distinct slot (one event per channel per
		// cycle, epoch <= every boundary latency), and the slot is
		// provably zero — the consumer drained it at least a full lap
		// ago — so the OR is exact. A boundary event is a lone flit or a
		// lone credit, posted like a local producer's.
		for ds := 0; ds < S; ds++ {
			sh := nets[ds]
			for ss := 0; ss < S; ss++ {
				box := &boxes[ss][ds]
				for _, e := range box.ents {
					if e.w&evValid != 0 {
						sh.postFlit(e.idx, e.w)
					} else {
						sh.postCred(e.idx)
					}
				}
				box.ents = box.ents[:0]
			}
		}
	}
	sumCounts := func() (comp, born int, eject int64) {
		for s := 0; s < S; s++ {
			comp += nets[s].completed
			born += nets[s].measuredBorn
			eject += nets[s].ejectedFlits
		}
		return
	}

	// Observer coordination. A barrier at cycle b exposes the serial
	// end-of-cycle b-1 state: workers are quiescent and the boundary
	// commit has run, so the shared arrays plus the shard ring slabs read
	// exactly as the serial simulator's state at the end of cycle b-1.
	// Every cycle where the serial run touches global observer state — a
	// timeline window close, a checker structural scan, the no-progress
	// watchdog's fire cycle, the abort detector's cadence — therefore
	// maps to a barrier at that cycle plus one, and the scheduler below
	// clamps segment ends so each of those barriers is hit exactly.
	chkEvery := int64(0)
	if n.chk != nil {
		chkEvery = int64(n.chk.opt.Every)
	}
	// wdBase is the watchdog's idle-reset floor: the serial checker sets
	// lastProgress to the current cycle when the watchdog expires over an
	// idle network, which no shard-local counter records.
	wdBase := int64(0)
	// wClose is the next window-close barrier; windows are master.Interval
	// cycles long, re-read after every close because compaction doubles
	// the interval.
	wClose := int64(0)
	if n.tline != nil {
		wClose = n.tline.Interval()
	}
	// globalProgress reconstructs the serial checker's lastProgress: the
	// latest cycle any shard injected or forwarded a flit, clamped below
	// by the idle-reset floor. Coordinator-only (workers quiescent).
	globalProgress := func() int64 {
		glp := wdBase
		for s := 0; s < S; s++ {
			if lp := nets[s].chk.lastProgress; lp > glp {
				glp = lp
			}
		}
		return glp
	}
	// closeWindow closes one timeline window the way the serial
	// EndIntervalSum does, from counts merged across the shard
	// accumulators in ascending shard order: bucket counts, min/max and
	// total merge exactly in the scratch histogram (Percentile reads only
	// those), the latency sum is the canonical ascending-router fold of
	// the shared accumulator, and utilization comes from the shared
	// per-channel counters — bit-identical to the serial window.
	closeWindow := func() {
		var win obs.TimelineSample
		var h obs.Histogram
		for s := 0; s < S; s++ {
			ws, wh := nets[s].tline.TakeWindow()
			if s == 0 {
				win.Cycles = ws.Cycles // every shard stepped the same cycles
			}
			win.Injected += ws.Injected
			win.Ejected += ws.Ejected
			win.OccSum += ws.OccSum
			h.Merge(&wh)
		}
		if win.Cycles == 0 {
			return
		}
		win.Retired = h.Count()
		win.LatSum = n.takeWindowLatSum()
		if win.Retired > 0 {
			win.P99 = h.Percentile(0.99)
		}
		win.TopUtil = float64(n.takeWindowMaxFlits()) / float64(win.Cycles)
		n.tline.AppendWindow(win)
	}
	// checkCreditsSharded is the checker's per-channel credit scan with
	// the ring words located in the owning shards' layouts: the flit ring
	// lives in the destination shard, and a boundary channel's credit
	// ring in the source shard (interior channels keep the serial
	// flit/credit word sharing).
	checkCreditsSharded := func() {
		for ci := range n.channels {
			lat := n.channels[ci].lat
			var onRing, credInFlight int64
			fr := flitRef[ci]
			slab := nets[fr.shard].ringSlab
			off, cnt := offS[fr.shard][fr.k], cntS[fr.shard][fr.k]
			for s := int32(0); s < lat; s++ {
				w := slab[off+s*cnt+fr.pos]
				if w&evValid != 0 {
					onRing++
				}
				if w&evCred != 0 {
					credInFlight++
				}
			}
			if cr := credRef[ci]; cr.shard >= 0 {
				slab := nets[cr.shard].ringSlab
				off, cnt := offS[cr.shard][cr.k], cntS[cr.shard][cr.k]
				for s := int32(0); s < lat; s++ {
					if slab[off+s*cnt+cr.pos]&evCred != 0 {
						credInFlight++
					}
				}
			}
			if n.chk.checkCreditChannel(n, ci, onRing, credInFlight) {
				return // one report per scan, like the serial path
			}
		}
	}
	// nextBarrier picks the next segment end after cur: at most one epoch
	// out, clamped to the earliest pending observer barrier and to limit.
	nextBarrier := func(cur, limit int64) int64 {
		next := cur + epoch
		if n.ab != nil {
			k := int64(1)
			if cur > n.measStart {
				k = (cur-n.measStart)/n.ab.every + 1
			}
			if a := n.measStart + k*n.ab.every; a > cur && a < next {
				next = a
			}
		}
		if wClose > cur && wClose < next {
			next = wClose
		}
		if chkEvery > 0 {
			// Structural scans run at the end of every cycle t with
			// t%Every == 0, i.e. at barrier t+1.
			if b := (cur+chkEvery-1)/chkEvery*chkEvery + 1; b < next {
				next = b
			}
			if n.chk.opt.Watchdog >= 0 && !n.chk.deadlocked {
				// The serial watchdog first trips at lastProgress+W+1 (the
				// end-of-cycle check), i.e. barrier lastProgress+W+2. Any
				// progress before then pushes the fire cycle out, so
				// rescheduling from the current global progress at every
				// barrier hits the serial fire cycle exactly.
				if wd := globalProgress() + int64(n.chk.opt.Watchdog) + 2; wd > cur && wd < next {
					next = wd
				}
			}
		}
		if next > limit {
			next = limit
		}
		return next
	}
	// atBarrier runs the serial end-of-cycle observer work for cycle b-1,
	// in the serial step's order: the timeline tick (window close)
	// precedes the checker's end-of-cycle scans.
	atBarrier := func(b int64) {
		if n.tline != nil && b == wClose {
			closeWindow()
			wClose = b + n.tline.Interval()
		}
		if n.chk == nil {
			return
		}
		n.now = b - 1 // scans and dumps stamp the serial cycle number
		if (b-1)%chkEvery == 0 {
			var injected, delivered int64
			for s := 0; s < S; s++ {
				injected += nets[s].chk.injected
				delivered += nets[s].chk.delivered
			}
			n.chk.checkConservationAt(b-1, injected, delivered, shardedBufferedFlits(n, nets))
			checkCreditsSharded()
			n.chk.checkPools(n)
			n.chk.checkMasks(n)
			for _, sh := range nets {
				n.chk.checkOccupancy(b-1, sh)
			}
		}
		if n.chk.opt.Watchdog >= 0 && !n.chk.deadlocked {
			glp := globalProgress()
			if (b-1)-glp > int64(n.chk.opt.Watchdog) {
				var buffered int64
				for r := 0; r < n.R; r++ {
					buffered += int64(n.routerOcc[r])
				}
				if buffered == 0 {
					wdBase = b - 1 // idle network, nothing owed
				} else {
					n.chk.deadlocked = true
					n.chk.violatef("cycle %d: no progress for %d cycles with %d flits buffered: deadlock\n%s",
						b-1, (b-1)-glp, buffered, n.chk.deadlockDump(n))
				}
			}
		}
	}

	// Warmup + measurement: epoch barriers clamped to the observer
	// barriers and the abort detector's fixed check cadence (so its
	// decisions see globally merged counters at exactly the serial check
	// cycles).
	cur := int64(0)
	for cur < n.measEnd {
		next := nextBarrier(cur, n.measEnd)
		runSeg(cur, next)
		cur = next
		atBarrier(cur)
		if n.ab != nil && cur > n.measStart && (cur-n.measStart)%n.ab.every == 0 {
			_, _, n.ejectedFlits = sumCounts()
			n.ab.measureCheck(n, offered)
		}
	}

	// Drain, replicating the serial loop's stop conditions at barrier
	// granularity. With any per-cycle observer attached (probe, timeline,
	// attribution, checker) the drain runs cycle-by-cycle so it stops on
	// exactly the serial cycle — overshoot would keep injecting and
	// retiring packets the serial run never simulated, perturbing their
	// counters; without observers, overshoot past the last completion is
	// invisible — every statistic below is either frozen at measEnd or
	// reconstructed exactly (lastDone, delivery filter).
	gComp, gBorn, _ := sumCounts()
	deadline := n.measEnd + drain
	aborted := false
	if n.ab != nil && n.ab.armed && gComp < gBorn {
		aborted = true
	} else {
		if n.ab != nil {
			n.ab.startDrain(gComp)
		}
		ds := epoch
		if n.probe != nil || n.tline != nil || n.at != nil || n.chk != nil {
			ds = 1
		}
		for cur = n.measEnd; gComp < gBorn && cur < deadline; {
			next := cur + ds
			if n.ab != nil {
				if c := n.measEnd + ((cur-n.measEnd)/n.ab.every+1)*n.ab.every; c < next {
					next = c
				}
			}
			if next > deadline {
				next = deadline
			}
			runSeg(cur, next)
			cur = next
			atBarrier(cur)
			var gEject int64
			gComp, gBorn, gEject = sumCounts()
			if n.ab != nil && (cur-n.measEnd)%n.ab.every == 0 && gComp < gBorn {
				n.now, n.completed, n.measuredBorn = cur, gComp, gBorn
				n.ejectedFlits = gEject
				if n.ab.drainCheck(n, deadline) {
					aborted = true
					break
				}
			}
		}
	}

	// Keep any freelist growth for the next run on this plan (the local
	// freelists are bounded by poolSpillAt + one refill batch, but a
	// grown backing array is worth retaining either way).
	for s := 0; s < S; s++ {
		p.locals[s].freePkts = nets[s].freePkts
	}

	// Reconstruct the serial stop cycle and fold the shard results back
	// into this Network so Stats, Snapshot and Deliveries read exactly
	// as after a serial Run.
	var cycles int64
	switch {
	case aborted:
		// Skip-drain abort leaves cur at measEnd; a drain-phase abort
		// leaves it at the (barrier-exact) check cycle — both are the
		// serial stop cycle.
		cycles = cur
	case gComp >= gBorn:
		last := int64(0)
		for s := 0; s < S; s++ {
			if nets[s].lastDone > last {
				last = nets[s].lastDone
			}
		}
		cycles = last + 1
		if cycles < n.measEnd {
			cycles = n.measEnd
		}
	default:
		cycles = deadline
	}
	gComp, gBorn, gEject := sumCounts()
	n.completed, n.measuredBorn, n.ejectedFlits = gComp, gBorn, gEject
	n.now = cycles
	var hist obs.Histogram
	for s := 0; s < S; s++ {
		hist.Merge(&nets[s].latHist)
	}
	n.latHist = hist
	if n.recordDeliv {
		n.deliveries = mergeDeliveries(nets, cycles)
	}
	if n.probe != nil {
		for s := 0; s < S; s++ {
			if err := n.probe.Merge(nets[s].probe); err != nil {
				return Stats{}, err
			}
		}
		// Every shard counts every stepped cycle; the merged probe must
		// count each cycle once, like the serial run.
		n.probe.Cycles /= int64(S)
	}
	if n.tline != nil {
		closeWindow() // flush the partial final window, like the serial epilogue
		if aborted {
			n.tline.MarkTruncated()
		}
	}
	if n.at != nil {
		// Ascending-shard merge of the private collectors: every counter
		// is an integer, so the merge is exact; the stage histograms'
		// float sums are then replaced by the canonical ascending-router
		// fold, the same bits the serial run installs.
		for s := 0; s < S; s++ {
			if err := n.at.a.Merge(nets[s].at.a); err != nil {
				return Stats{}, err
			}
			n.at.sumErrs += nets[s].at.sumErrs
		}
		if n.completed < n.measuredBorn {
			// Saturated (or deadlocked): capture the backpressure
			// root-cause walk at the final cycle for the post-mortem. The
			// walk reads only shared router/terminal-indexed state, so it
			// crosses shard boundaries for free.
			n.at.lastBP = n.AnalyzeBackpressure()
		}
		n.foldStageSums()
	}
	if n.chk != nil {
		// Fold the shard-local event checkers into the coordinator's:
		// summed counters, the global progress cycle, and the per-shard
		// violation lists appended in ascending shard order after the
		// coordinator's own barrier-time findings.
		for s := 0; s < S; s++ {
			c := nets[s].chk
			n.chk.injected += c.injected
			n.chk.delivered += c.delivered
			if c.lastProgress > n.chk.lastProgress {
				n.chk.lastProgress = c.lastProgress
			}
			for _, v := range c.violations {
				n.chk.violatef("%s", v)
			}
			n.chk.dropped += c.dropped
		}
		if n.logger != nil && len(n.chk.violations) > 0 {
			n.logger.Error("sim.check_failed",
				"violations", len(n.chk.violations)+n.chk.dropped,
				"first", n.chk.violations[0])
		}
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
		sum := n.foldLatSum()
		n.latencySum = sum
		n.latHist.SetSum(sum)
		st.AvgLatency = sum / float64(n.completed)
		st.P50Latency = n.latHist.Percentile(0.50)
		st.P99Latency = n.latHist.Percentile(0.99)
		st.P999Latency = n.latHist.Percentile(0.999)
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
	return st, nil
}

// shardedBufferedFlits recounts the global in-flight flits at a barrier:
// input-VC occupancy from the shared vcQ array plus channel-ring
// occupancy from every shard's ring slab (the master's serial slab is
// stale in sharded mode; after the boundary commit the shard slabs hold
// exactly the serial ring state).
func shardedBufferedFlits(n *Network, nets []*Network) int64 {
	var total int64
	for _, q := range n.vcQ {
		total += int64(q & 0xffff)
	}
	for _, sh := range nets {
		for _, ev := range sh.ringSlab {
			if ev&evValid != 0 {
				total++
			}
		}
	}
	return total
}

// mergeDeliveries k-way merges the per-shard delivery logs by
// (completion cycle, shard index). Within a cycle the serial run
// records deliveries in ascending router order, shards cover ascending
// router ranges and each preserves its local order, so the merge
// reproduces the serial log exactly. Deliveries at or past the
// reconstructed stop cycle come from barrier-granularity drain
// overshoot — cycles the serial run never simulated — and are dropped;
// cycle-prefix determinism makes that filter exact.
func mergeDeliveries(nets []*Network, cycles int64) []Delivery {
	total := 0
	for _, sh := range nets {
		total += len(sh.deliveries)
	}
	out := make([]Delivery, 0, total)
	idx := make([]int, len(nets))
	for {
		best := -1
		var bd int64
		for s := range nets {
			if idx[s] >= len(nets[s].deliveries) {
				continue
			}
			if d := nets[s].deliveries[idx[s]].Done; best < 0 || d < bd {
				best, bd = s, d
			}
		}
		if best < 0 {
			return out
		}
		dv := nets[best].deliveries[idx[best]]
		idx[best]++
		if dv.Done < cycles {
			out = append(out, dv)
		}
	}
}
