package sim

import (
	"fmt"
	"math/bits"
	"strings"
)

// CheckOptions configures the runtime invariant checker enabled by
// Network.Check. The zero value is ready to use: every invariant is
// verified every cycle and a 5000-cycle no-progress watchdog guards
// against deadlock.
type CheckOptions struct {
	// Every is the checking cadence in cycles (default 1). The structural
	// scans (conservation, credits, VC interleaving) cost O(network) per
	// check; raising Every amortizes them on large fabrics. Event-driven
	// checks (packet loss/duplication, progress tracking) always run.
	Every int
	// Watchdog is the number of cycles the network may hold buffered
	// flits without forwarding, ejecting or injecting a single flit
	// before the checker declares deadlock and dumps the stuck routers.
	// 0 means the 5000-cycle default; negative disables the watchdog
	// (useful for topologies routed without deadlock freedom, where a
	// wormhole cycle is a property of the configuration, not a simulator
	// bug).
	Watchdog int
	// MaxViolations caps the recorded violation messages (default 8);
	// checking continues but further messages are counted, not stored.
	MaxViolations int
}

const (
	defaultWatchdog      = 5000
	defaultMaxViolations = 8
)

// checker holds the runtime invariant state. All hot-path hooks hide
// behind a single nil check on Network.chk, so a run without checking
// pays one predicted branch per event site — the same contract as the
// probe — and the steady-state loop stays at 0 allocs/op.
type checker struct {
	opt CheckOptions

	injected  int64 // flits placed on terminal injection channels
	delivered int64 // flits ejected through terminal sinks

	lastProgress int64 // last cycle any flit was injected or forwarded
	deadlocked   bool  // watchdog already fired (report once)

	// Per-packet-table-entry accounting for loss/duplication: live marks
	// ids between allocPacket and completePacket, ejected counts tail
	// ejections per id.
	live    []bool
	ejected []int32

	violations []string
	dropped    int // violations beyond MaxViolations

	// slotSeen is checkPools' per-port scratch bitset of the pool slots
	// the scan has already found queued or free, for slots 64 and up
	// (see markSlot).
	slotSeen []uint64
}

// Check enables the runtime invariant checker for this network's run.
// Call it before Run. The checker asserts, per cycle (at the configured
// cadence):
//
//   - flit conservation: flits injected == flits delivered + flits
//     in-flight (buffered in input VCs or on channel rings);
//   - credit conservation: for every channel, upstream credits + flits
//     on the ring + downstream buffered flits + credits in flight ==
//     BufPerPort;
//   - per-VC packet integrity: flits of distinct packets never
//     interleave inside an input VC FIFO (tail before next head);
//   - slot-pool conservation: for every input port, free slots plus
//     the queue lengths of its VCs == BufPerPort, and no slot is both
//     free and queued (or queued twice);
//   - summary integrity: every summary the kernel scans instead of the
//     state it summarises agrees with that state — the per-router
//     pipe, ready-port and credit masks, the ring occupancy bitmaps and
//     the pending-source bitmap;
//   - deferred births: for a terminal with deferred injection trials,
//     its queued packets plus the trials deferred before the current
//     cycle stay below the source-queue cap, so no deferred trial is one
//     the cap would have skipped;
//   - no packet loss or duplication: every packet-table entry ejects
//     exactly Size flits between allocation and completion, and no
//     freed entry ejects flits;
//   - progress: if flits stay buffered with no movement for Watchdog
//     cycles, the checker records a deadlock with a dump of the stuck
//     routers and VCs.
//
// Violations do not stop the run (checking is observational, so a
// checked run produces bit-identical Stats); read them afterwards with
// CheckErr or CheckViolations.
func (n *Network) Check(opt CheckOptions) error {
	if opt.Every < 0 {
		return fmt.Errorf("sim: CheckOptions.Every = %d", opt.Every)
	}
	if opt.Every == 0 {
		opt.Every = 1
	}
	if opt.Watchdog == 0 {
		opt.Watchdog = defaultWatchdog
	}
	if opt.MaxViolations <= 0 {
		opt.MaxViolations = defaultMaxViolations
	}
	n.chk = &checker{opt: opt, lastProgress: n.now}
	return nil
}

// CheckViolations returns the invariant violations recorded so far (nil
// when the checker is disabled or the run is clean).
func (n *Network) CheckViolations() []string {
	if n.chk == nil {
		return nil
	}
	return n.chk.violations
}

// CheckErr returns nil when no invariant was violated, or an error
// aggregating the recorded violations.
func (n *Network) CheckErr() error {
	if n.chk == nil || len(n.chk.violations) == 0 {
		return nil
	}
	total := len(n.chk.violations) + n.chk.dropped
	return fmt.Errorf("sim: %d invariant violation(s):\n%s",
		total, strings.Join(n.chk.violations, "\n"))
}

func (c *checker) violatef(format string, args ...any) {
	if len(c.violations) >= c.opt.MaxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// noteAlloc tracks a packet-table allocation. Growth mirrors the packet
// table, so ids map one-to-one.
func (c *checker) noteAlloc(pkt int32, now int64) {
	for int(pkt) >= len(c.live) {
		c.live = append(c.live, false)
		c.ejected = append(c.ejected, 0)
	}
	if c.live[pkt] {
		c.violatef("cycle %d: packet table corruption: id %d reallocated while live", now, pkt)
	}
	c.live[pkt] = true
	c.ejected[pkt] = 0
}

// noteInject records one flit entering a terminal injection channel.
func (c *checker) noteInject(now int64) {
	c.injected++
	c.lastProgress = now
}

// noteForward records one flit leaving an input VC: progress always,
// plus delivery accounting when the flit ejects at a terminal sink.
func (c *checker) noteForward(now int64, f flit, ejected bool) {
	c.lastProgress = now
	if !ejected {
		return
	}
	c.delivered++
	if int(f.pkt) >= len(c.live) || !c.live[f.pkt] {
		c.violatef("cycle %d: flit of dead packet id %d ejected (loss/duplication)", now, f.pkt)
		return
	}
	c.ejected[f.pkt]++
}

// noteComplete verifies the completing packet ejected exactly its size
// in flits, then retires its id.
func (c *checker) noteComplete(pkt int32, pi *packetInfo, now int64) {
	if int(pkt) >= len(c.live) || !c.live[pkt] {
		return // already reported by noteForward
	}
	if c.ejected[pkt] != pi.size {
		c.violatef("cycle %d: packet %d (src %d dst %d) completed after ejecting %d of %d flits",
			now, pkt, pi.src, pi.dst, c.ejected[pkt], pi.size)
	}
	c.live[pkt] = false
}

// endCycle runs the structural scans at the configured cadence. It runs
// at the end of step, a cycle boundary where every conservation sum is
// settled.
func (c *checker) endCycle(n *Network) {
	if n.now%int64(c.opt.Every) == 0 {
		c.checkConservation(n)
		c.checkCredits(n)
		c.checkPools(n)
		c.checkMasks(n)
		c.checkOccupancy(n)
	}
	c.checkProgress(n)
}

// checkConservation asserts injected == delivered + in-flight. The
// in-flight count is recomputed from scratch (input-VC occupancy plus
// channel-ring occupancy), so a drifted counter anywhere shows up here.
func (c *checker) checkConservation(n *Network) {
	if inFlight := n.BufferedFlits(); c.injected != c.delivered+inFlight {
		c.violatef("cycle %d: flit conservation broken: injected %d != delivered %d + in-flight %d",
			n.now, c.injected, c.delivered, inFlight)
	}
}

// checkCredits asserts, per channel, that upstream credits plus flits on
// the ring plus downstream buffered flits plus credits in flight equal
// the downstream port's buffer depth. Terminal sinks (infinite-credit
// ejection ports) have no channel and are exempt by construction.
func (c *checker) checkCredits(n *Network) {
	depth := int64(n.cfg.BufPerPort)
	for ci := range n.channels {
		ch := &n.channels[ci]
		var onRing, credInFlight int64
		k := ch.latIdx
		for s := int32(0); s < ch.lat; s++ {
			w := n.ringSlab[n.classOff[k]+s*n.classCnt[k]+n.chanPos[ci]]
			if w&evValid != 0 {
				onRing++
			}
			if w&evCred != 0 {
				credInFlight++
			}
		}
		var upstream int64
		if ch.srcTerm >= 0 {
			upstream = int64(n.srcCredit[ch.srcTerm])
		} else {
			upstream = int64(n.outCredits[int(ch.srcRouter)*n.maxP+int(ch.srcPort)])
		}
		in := int32(ch.dstRouter)*int32(n.maxP) + int32(ch.dstPort)
		var buffered int64
		for v := int32(0); v < int32(n.V); v++ {
			buffered += int64(n.vcQ[in*int32(n.V)+v] & 0xffff)
		}
		if got := upstream + onRing + buffered + credInFlight; got != depth {
			c.violatef("cycle %d: credit conservation broken on channel %d (->r%d.p%d): credits %d + ring %d + buffered %d + cred-in-flight %d = %d, want %d",
				n.now, ci, ch.dstRouter, ch.dstPort, upstream, onRing, buffered, credInFlight, got, depth)
			return // one report per scan; the rest are usually the same fault
		}
	}
}

// checkPools walks every input port's slot pool. Along each VC FIFO's
// slot chain it asserts wormhole packet integrity: once a packet's head
// flit occupies a VC, every following flit up to the tail belongs to
// the same packet (per-VC in-order delivery is then FIFO order by
// construction). Over the whole pool it asserts slot conservation: the
// free slots (never handed out, or on the free stack) plus the VCs'
// queue lengths make exactly BufPerPort, and no slot is reached twice —
// free and queued, or queued in two places. Reports at most one
// violation per scan.
func (c *checker) checkPools(n *Network) {
	buf := n.bufPP
	V := int32(n.V)
	if len(c.slotSeen) < int(buf+63)/64 {
		c.slotSeen = make([]uint64, (buf+63)/64)
	}
	seen := c.slotSeen
	for in := int32(0); in < int32(len(n.alloc)); in++ {
		a := n.alloc[in]
		base := in * buf
		used := int32(a.bump)
		if used > buf {
			c.violatef("cycle %d: slot pool overflow on port %d: %d slots handed out, pool holds %d",
				n.now, in, used, buf)
			return
		}
		if used > 64 {
			clear(seen[1 : (used+63)/64])
		}
		var lo uint64 // marks of slots 0..63 (see markSlot)
		var ok bool
		queued := int32(0)
		for gv := in * V; gv < (in+1)*V; gv++ {
			q := n.vcQ[gv]
			ln := int32(q & 0xffff)
			queued += ln
			s := int32(q >> 32)
			inPkt := int32(-1)
			for i := int32(0); i < ln; i++ {
				if lo, ok = markSlot(lo, seen, s, used); !ok {
					c.slotFault(n, in, s, used, "queued")
					return
				}
				w := n.slots[base+s]
				f := unpackFlit(uint32(w))
				if inPkt >= 0 && f.pkt != inPkt {
					c.violatef("cycle %d: VC %d interleaves packets %d and %d", n.now, gv, inPkt, f.pkt)
					return
				}
				if f.last {
					inPkt = -1
				} else {
					inPkt = f.pkt
				}
				s = int32(w >> 32)
			}
		}
		nFree := int32(a.free)
		if nFree > used {
			c.violatef("cycle %d: slot pool overflow on port %d: %d free slots, %d handed out",
				n.now, in, nFree, used)
			return
		}
		for _, s16 := range n.freeSlots[base : base+nFree] {
			if lo, ok = markSlot(lo, seen, int32(s16), used); !ok {
				c.slotFault(n, in, int32(s16), used, "free")
				return
			}
		}
		if free := buf - used + nFree; free+queued != buf {
			c.violatef("cycle %d: slot pool conservation broken on port %d: free %d + queued %d != %d",
				n.now, in, free, queued, buf)
			return
		}
	}
}

// markSlot marks pool slot s as reached by the checkPools walk and
// reports whether the mark is new and s lies among the used slots handed
// out so far. Marks of slots 0..63 travel in lo, which the caller keeps
// in a register: every pool of up to 64 slots is scanned without a
// store-to-load round trip per slot. Higher slots are marked in hi.
func markSlot(lo uint64, hi []uint64, s, used int32) (uint64, bool) {
	if s >= used {
		return lo, false
	}
	if s < 64 {
		b := uint64(1) << s
		return lo | b, lo&b == 0
	}
	w, b := hi[s>>6], uint64(1)<<(s&63)
	hi[s>>6] = w | b
	return lo, w&b == 0
}

// slotFault reports the checkPools walk reaching slot s of input port
// in's pool (as a queued or free slot) when s lies outside the used
// slots handed out so far, or was already reached.
func (c *checker) slotFault(n *Network, in, s, used int32, what string) {
	if s >= used {
		c.violatef("cycle %d: port %d: %s slot %d was never handed out (%d of %d used)",
			n.now, in, what, s, used, n.bufPP)
		return
	}
	c.violatef("cycle %d: port %d: %s slot %d is both free and queued, or queued twice",
		n.now, in, what, s)
}

// checkMasks asserts that the router-level summaries agree, word by
// word on every router, with the per-port state they summarise:
// creditM with the output credit counts, portPipeM with the ports'
// pipe masks and portReadyM with their ready VCs (busy &^ pipe).
// Reports at most one violation per scan.
func (c *checker) checkMasks(n *Network) {
	for r := 0; r < n.R; r++ {
		for w := 0; w < n.pw; w++ {
			var pipe, ready, credit uint64
			for p := w << 6; p < min(w<<6+64, n.maxP); p++ {
				in, bit := r*n.maxP+p, uint64(1)<<(p&63)
				ps := n.inState[in]
				if ps.pipe != 0 {
					pipe |= bit
				}
				if ps.busy&^ps.pipe != 0 {
					ready |= bit
				}
				if n.outCredits[in] > 0 {
					credit |= bit
				}
			}
			i := r*n.pw + w
			if n.creditM[i] != credit {
				c.violatef("cycle %d: router %d: credit mask word %d = %#x, want %#x", n.now, r, w, n.creditM[i], credit)
				return
			}
			if n.portPipeM[i] != pipe {
				c.violatef("cycle %d: router %d: pipe-port mask word %d = %#x, want %#x", n.now, r, w, n.portPipeM[i], pipe)
				return
			}
			if n.portReadyM[i] != ready {
				c.violatef("cycle %d: router %d: ready-port mask word %d = %#x, want %#x", n.now, r, w, n.portReadyM[i], ready)
				return
			}
		}
	}
}

// checkOccupancy asserts that the occupancy bitmaps agree with the
// state they flag: a ring slot's flit (credit) bit is set exactly when
// its word holds a flit (credit), and a terminal's pending bit exactly
// when its source queue holds a packet; and that every terminal with
// deferred trials is within the deferral bound. Reports at most one
// violation per scan.
func (c *checker) checkOccupancy(n *Network) {
	slab := n.ringSlab
	for wi := range n.ringFlitM {
		// Rebuild bitmap word wi from its 64 slot words; bits past the
		// slab's end must stay clear.
		var flit, cred uint64
		lo := wi << 6
		for b, w := range slab[lo:min(lo+64, len(slab))] {
			flit |= (w & evValid) << b
			cred |= ((w & evCred) >> 2) << b
		}
		if diff := (flit ^ n.ringFlitM[wi]) | (cred ^ n.ringCredM[wi]); diff != 0 {
			b := bits.TrailingZeros64(diff)
			var w uint64
			if lo+b < len(slab) {
				w = slab[lo+b]
			}
			c.violatef("cycle %d: ring slot %d: occupancy bits flit=%t credit=%t disagree with slot word %#x",
				n.now, lo+b, n.ringFlitM[wi]>>b&1 != 0, n.ringCredM[wi]>>b&1 != 0, w)
			return
		}
	}
	for t := 0; t < n.T; t++ {
		queued := len(n.srcQ[t]) - int(n.srcQHead[t])
		if pend := n.srcPendM[t>>6]>>(t&63)&1 != 0; pend != (queued > 0) {
			c.violatef("cycle %d: terminal %d: pending bit %t with %d queued packets", n.now, t, pend, queued)
			return
		}
		// A deferred trial must be one the cap could not have skipped
		// (see births): the queue plus the trials deferred before the
		// current cycle stays below the cap.
		if n.srcLagM[t>>6]>>(t&63)&1 != 0 {
			if g := n.genAt[t]; g > n.now || int64(queued)+n.now-g >= maxPendingPerTerm {
				c.violatef("cycle %d: terminal %d: deferred trials from cycle %d with %d queued packets break the deferral bound (queued + deferred < %d)",
					n.now, t, g, queued, maxPendingPerTerm)
				return
			}
		}
	}
}

// checkProgress fires the no-progress watchdog: buffered flits with no
// flit movement for Watchdog cycles means the network can no longer
// drain (deadlock, or a starvation bug in allocation).
func (c *checker) checkProgress(n *Network) {
	if c.opt.Watchdog < 0 || c.deadlocked {
		return
	}
	if n.now-c.lastProgress <= int64(c.opt.Watchdog) {
		return
	}
	var buffered int64
	for r := 0; r < n.R; r++ {
		buffered += int64(n.routerOcc[r])
	}
	if buffered == 0 {
		c.lastProgress = n.now // idle network, nothing owed
		return
	}
	c.deadlocked = true
	c.violatef("cycle %d: no progress for %d cycles with %d flits buffered: deadlock\n%s",
		n.now, n.now-c.lastProgress, buffered, c.deadlockDump(n))
}

// deadlockDump renders the stuck state: for each router still holding
// flits, the non-empty VCs with their pipeline state and the credit
// level of their requested output. With a flight recorder attached the
// dump quotes each stuck router's last few lifecycle events, so the
// post-mortem shows what the router was doing when progress stopped.
func (c *checker) deadlockDump(n *Network) string {
	var b strings.Builder
	const maxRouters = 8
	const maxTraceEvents = 8
	dumped := 0
	stateName := [...]string{"idle", "routing", "vcalloc", "active"}
	for r := 0; r < n.R && dumped < maxRouters; r++ {
		if n.routerOcc[r] == 0 {
			continue
		}
		dumped++
		fmt.Fprintf(&b, "  router %d (%d flits buffered):\n", r, n.routerOcc[r])
		base := r * n.maxP
		for p := 0; p < int(n.numPorts[r]); p++ {
			for v := 0; v < n.V; v++ {
				gv := int32((base+p)*n.V + v)
				if n.vcQ[gv]&0xffff == 0 {
					continue
				}
				st := n.vcStatus[gv]
				line := fmt.Sprintf("    port %d vc %d: %d flits, state %s",
					p, v, n.vcQ[gv]&0xffff, stateName[st])
				if st == vcActive || st == vcVCAlloc {
					line += fmt.Sprintf(", out port %d", n.vcOutPort[gv])
					if st == vcActive {
						line += fmt.Sprintf(" vc %d (credits %d)",
							n.vcOutVC[gv], n.outCredits[base+int(n.vcOutPort[gv])])
					}
				}
				b.WriteString(line + "\n")
			}
		}
		if n.tr != nil {
			for _, ev := range n.tr.LastByRouter(int32(r), maxTraceEvents) {
				fmt.Fprintf(&b, "    trace: %s\n", ev)
			}
		}
	}
	if dumped == maxRouters {
		b.WriteString("  ... (more routers stuck)\n")
	}
	// The backpressure root-cause walk turns the raw stuck-VC dump into a
	// diagnosis: which routers the credit-stall chains terminate at, and
	// whether the chains form a cycle (wormhole deadlock) rather than a
	// tree rooted at a congested-but-live router.
	if rep := n.AnalyzeBackpressure(); rep.BlockedVCs > 0 {
		for _, line := range strings.Split(rep.Render(), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// Delivery records one delivered packet: the differential-testing unit
// the reference simulator is compared against. Two simulators agree when
// their delivery multisets are identical.
type Delivery struct {
	Src, Dst int32
	Size     int32
	Born     int64 // cycle the packet was generated
	Done     int64 // cycle the tail flit ejected
	Measured bool
}

// RecordDeliveries makes the network append a Delivery per completed
// packet (measured or not). Call before Run; read with Deliveries.
// Recording allocates, so it is for verification runs, not benchmarks.
func (n *Network) RecordDeliveries() {
	if n.deliveries == nil {
		n.deliveries = make([]Delivery, 0, 1024)
	}
}

// Deliveries returns the packets delivered so far, in completion order.
func (n *Network) Deliveries() []Delivery { return n.deliveries }
