package sim

import (
	"fmt"
	"sort"
	"strings"

	"waferswitch/internal/obs"
)

// pktAttrib is the per-packet stage accumulator behind congestion
// attribution. The decomposition is event-driven and telescoping: lastTs
// is the cycle of the packet's previous lifecycle event, and each event
// charges the elapsed cycles since then to exactly one stage, so the
// stages sum to the end-to-end latency cycle for cycle.
type pktAttrib struct {
	lastTs int64
	// Accumulated stage components (see obs.Stage*).
	srcQ, queue, rc, va, sa, credit, wire int64
	// credHop counts credit-stall cycles of the current hop's head; the
	// head-forward event converts the remaining (elapsed - credHop)
	// cycles into SA stall and resets it.
	credHop int64
	// pendWire is the channel flight time the in-flight head flit will
	// spend reaching the next router, subtracted from the next hop's
	// queue wait and charged to traversal instead.
	pendWire int64
}

// attribState is the Network-side attribution state: the collector plus
// the per-packet accumulators (indexed like the packet table, grown in
// step with it and recycled through the same freelist).
type attribState struct {
	a    *obs.Attribution
	pkts []pktAttrib
	// sumErrs counts packets whose stage components failed to sum to
	// their measured latency — always zero unless the decomposition has
	// a bug; the refsim differential tests pin it.
	sumErrs int64
	// lastBP is the backpressure root-cause report Run captures when a
	// run fails to drain (saturation or deadlock).
	lastBP *obs.BackpressureReport
}

// AttachAttribution builds an attribution collector sized for this
// network, starts decomposing every packet's latency into per-stage
// components and per-router/per-channel blame counters reported into
// it, and returns it. Reset detaches it. Like the probe, all recording
// sites hide behind one nil check, so a run without attribution pays
// one predicted branch per event site and stays at 0 allocs/op;
// attribution is observational and never perturbs simulation results.
func (n *Network) AttachAttribution() *obs.Attribution {
	a := obs.NewAttribution(n.R, len(n.channels))
	n.at = &attribState{
		a:    a,
		pkts: make([]pktAttrib, len(n.pkts), len(n.pkts)+1024),
	}
	return a
}

// Backpressure returns the root-cause report Run captured for a
// non-drained run (nil for drained runs or without attribution); call
// AnalyzeBackpressure for an on-demand walk at the current cycle.
func (n *Network) Backpressure() *obs.BackpressureReport {
	if n.at == nil {
		return nil
	}
	return n.at.lastBP
}

// AttribSumMismatches returns the number of completed packets whose
// stage components failed to sum to their latency — the decomposition's
// exactness invariant, pinned at zero by the differential tests.
func (n *Network) AttribSumMismatches() int64 {
	if n.at == nil {
		return 0
	}
	return n.at.sumErrs
}

// atAlloc starts a packet's decomposition at head-flit injection: the
// cycles since birth are its source-queue wait, and the terminal
// channel's flight time is pre-charged as pending wire.
func (n *Network) atAlloc(t int, pkt int32, born int64) {
	at := n.at
	for int(pkt) >= len(at.pkts) {
		at.pkts = append(at.pkts, pktAttrib{})
	}
	at.pkts[pkt] = pktAttrib{
		lastTs:   n.now,
		srcQ:     n.now - born,
		pendWire: int64(n.channels[n.termChIn[t]].lat),
	}
}

// atRCStart charges the cycles between the head's upstream departure and
// route computation starting: the channel flight goes to traversal, the
// rest is queue wait behind predecessor packets in the input VC.
func (n *Network) atRCStart(pkt int32, r int) {
	p := &n.at.pkts[pkt]
	d := n.now - p.lastTs - p.pendWire
	p.queue += d
	p.wire += p.pendWire
	p.pendWire = 0
	p.lastTs = n.now
	n.at.a.Routers[r].QueueWait += d
}

// atRCDone charges the route-computation stall (RC delay beyond the
// pipelined minimum).
func (n *Network) atRCDone(pkt int32, r int) {
	p := &n.at.pkts[pkt]
	d := n.now - p.lastTs
	p.rc += d
	p.lastTs = n.now
	n.at.a.Routers[r].RouteComp += d
}

// atVADone charges the VC-allocation stall.
func (n *Network) atVADone(pkt int32, r int) {
	p := &n.at.pkts[pkt]
	d := n.now - p.lastTs
	p.va += d
	p.lastTs = n.now
	n.at.a.Routers[r].VCAlloc += d
}

// atCreditStall records one cycle of credit (backpressure) stall at the
// stalled VC's router, blames the downstream router withholding the
// credits and the channel toward it, and — when the stalled flit is a
// freshly allocated head being decomposed — charges the cycle to the
// packet's credit-stall component. The SA loop visits a stalled VC at
// most once per cycle, so per-packet credit stall never exceeds the
// elapsed hop time. gv is the stalled input VC on input port in, out
// the global index of its requested output port (always channel-backed:
// terminal sinks never run out of credits).
func (n *Network) atCreditStall(in, gv int32, r, out int) {
	at := n.at
	ch := n.outCh[out]
	at.a.Routers[r].CreditStall++
	at.a.Routers[n.channels[ch].dstRouter].Blamed++
	at.a.ChanBlame[ch]++
	if n.vcHead[gv] {
		at.pkts[n.frontVC(in, gv).pkt].credHop++
	}
}

// atHeadForward closes the hop at switch traversal: of the cycles since
// VA, the credit-stalled ones (counted at the stall site) go to the
// credit component and the remainder to SA contention; the outgoing
// channel's flight time becomes the next hop's pending wire (zero at the
// terminal sink — the egress pipeline is charged at completion).
func (n *Network) atHeadForward(pkt int32, r, out int) {
	p := &n.at.pkts[pkt]
	d := n.now - p.lastTs
	sa := d - p.credHop
	p.credit += p.credHop
	p.sa += sa
	p.credHop = 0
	p.lastTs = n.now
	if ch := n.outCh[out]; ch >= 0 {
		p.pendWire = int64(n.channels[ch].lat)
	} else {
		p.pendWire = 0
	}
	n.at.a.Routers[r].SAStall += sa
}

// atComplete finishes the decomposition at tail ejection: the cycles
// since the head ejected are serialization (the wormhole body draining),
// the egress pipeline and host link join traversal, and — for measured
// packets — every component is observed into its stage histogram. The
// components are integers, so each stage histogram's running sum is
// exact in any completion order (see Run's AvgLatency). They must sum
// to the packet's recorded latency exactly; a mismatch bumps sumErrs
// (and the invariant checker when attached).
func (n *Network) atComplete(pkt int32, pi *packetInfo, lat float64) {
	at := n.at
	p := &at.pkts[pkt]
	ser := n.now - p.lastTs
	egress := int64(n.cfg.PipeDelay + n.cfg.TermDelay)
	wire := p.wire + egress
	total := p.srcQ + p.queue + p.rc + p.va + p.sa + p.credit + wire + ser
	if float64(total) != lat {
		at.sumErrs++
		if n.chk != nil {
			n.chk.violatef("cycle %d: attribution stages sum to %d but packet %d latency is %g",
				n.now, total, pkt, lat)
		}
	}
	if !n.inWindow(pi.born) {
		return
	}
	a := at.a
	a.Packets++
	a.Stages[obs.StageSrcQueue].Observe(float64(p.srcQ))
	a.Stages[obs.StageQueueWait].Observe(float64(p.queue))
	a.Stages[obs.StageRouteComp].Observe(float64(p.rc))
	a.Stages[obs.StageVCAlloc].Observe(float64(p.va))
	a.Stages[obs.StageSAStall].Observe(float64(p.sa))
	a.Stages[obs.StageCreditStall].Observe(float64(p.credit))
	a.Stages[obs.StageTraversal].Observe(float64(wire))
	a.Stages[obs.StageSerialization].Observe(float64(ser))
}

// maxCongestionTrees bounds the trees a report carries (largest first);
// real congestion concentrates on a few roots, so the cap only trims
// pathological fan-out.
const maxCongestionTrees = 64

// AnalyzeBackpressure walks the instantaneous credit-stall wait-for
// graph and identifies the root cause of each congestion tree: it
// collects every head-of-VC blocked on exhausted downstream credits as a
// wait-for edge (victim router -> withholding router), takes routers
// that are waited on but not themselves blocked as congestion roots, and
// BFSes upstream from each root to measure its tree's depth, width and
// victim count. Blocked routers whose chains never reach a root are in
// or behind a wait-for cycle — the wormhole-deadlock signature. The walk
// is on demand (it allocates and scans the whole network) and read-only;
// the deadlock watchdog and the saturation path of Run invoke it
// automatically. It does not require an attached Attribution.
func (n *Network) AnalyzeBackpressure() *obs.BackpressureReport {
	rep := &obs.BackpressureReport{Cycle: n.now}
	waitsOn := make([][]int32, n.R) // dedup'd downstream routers per victim
	blockedVCs := make([]int, n.R)
	for r := 0; r < n.R; r++ {
		if n.routerOcc[r] == 0 {
			continue
		}
		base := r * n.maxP
		for p := 0; p < int(n.numPorts[r]); p++ {
			for v := 0; v < n.V; v++ {
				gv := int32((base+p)*n.V + v)
				if n.vcStatus[gv] != vcActive || n.vcQ[gv]&0xffff == 0 {
					continue
				}
				o := base + int(n.vcOutPort[gv])
				if n.outCh[o] < 0 || n.outCredits[o] > 0 {
					continue
				}
				rep.BlockedVCs++
				blockedVCs[r]++
				d := n.channels[n.outCh[o]].dstRouter
				dup := false
				for _, e := range waitsOn[r] {
					if e == d {
						dup = true
						break
					}
				}
				if !dup {
					waitsOn[r] = append(waitsOn[r], d)
				}
			}
		}
	}
	blocked := make([]bool, n.R)
	rev := make([][]int32, n.R) // rev[d]: victims waiting on d, ascending
	for r := 0; r < n.R; r++ {
		if len(waitsOn[r]) > 0 {
			blocked[r] = true
			rep.BlockedRouters++
		}
		for _, d := range waitsOn[r] {
			rev[d] = append(rev[d], int32(r))
		}
	}
	reached := make([]bool, n.R)
	stamp := make([]int, n.R) // per-root visit marks (root index + 1)
	for root := 0; root < n.R; root++ {
		if len(rev[root]) == 0 || blocked[root] {
			continue
		}
		tree := obs.CongestionTree{Root: root, StalledFlits: int64(n.routerOcc[root])}
		stamp[root] = root + 1
		frontier := []int32{int32(root)}
		for len(frontier) > 0 {
			var next []int32
			for _, u := range frontier {
				for _, up := range rev[u] {
					if stamp[up] == root+1 {
						continue
					}
					stamp[up] = root + 1
					reached[up] = true
					next = append(next, up)
					tree.Victims++
					tree.BlockedVCs += blockedVCs[up]
					tree.StalledFlits += int64(n.routerOcc[up])
				}
			}
			if len(next) > 0 {
				tree.Depth++
				if len(next) > tree.Width {
					tree.Width = len(next)
				}
			}
			frontier = next
		}
		rep.Trees = append(rep.Trees, tree)
	}
	for r := 0; r < n.R; r++ {
		if blocked[r] && !reached[r] {
			rep.CyclicRouters++
		}
	}
	sort.Slice(rep.Trees, func(i, j int) bool {
		if rep.Trees[i].Victims != rep.Trees[j].Victims {
			return rep.Trees[i].Victims > rep.Trees[j].Victims
		}
		return rep.Trees[i].Root < rep.Trees[j].Root
	})
	if len(rep.Trees) > maxCongestionTrees {
		rep.Trees = rep.Trees[:maxCongestionTrees]
	}
	return rep
}

// SaturationPostMortem renders a human-readable diagnosis of a run that
// failed to drain: where the stranded packets' cycles went (stage
// shares), which routers are most blamed for backpressure, and the
// congestion trees of the final cycle's root-cause walk. Returns "" for
// drained runs or when no attribution was attached.
func (n *Network) SaturationPostMortem(st Stats) string {
	if n.at == nil || st.Drained {
		return ""
	}
	a := n.at.a
	var b strings.Builder
	fmt.Fprintf(&b, "saturation post-mortem: offered %.3g accepted %.3g, %d of %d measured packets stranded after %d cycles",
		st.Offered, st.Accepted, n.measuredBorn-st.Completed, n.measuredBorn, st.Cycles)
	if st.Aborted {
		b.WriteString(" (drain aborted early)")
	}
	if total := a.TotalCycles(); total > 0 {
		b.WriteString("\nlatency by stage:")
		for i := range a.Stages {
			if sum := a.Stages[i].Sum(); sum > 0 {
				fmt.Fprintf(&b, " %s %.1f%%", obs.StageNames[i], sum/total*100)
			}
		}
	}
	snap := a.Snapshot(3)
	if len(snap.TopBlamed) > 0 {
		b.WriteString("\nmost blamed routers:")
		for _, tb := range snap.TopBlamed {
			fmt.Fprintf(&b, " r%d (%d stall-cycles caused)", tb.Router, tb.Blamed)
		}
	}
	if n.at.lastBP != nil {
		b.WriteString("\n" + n.at.lastBP.Render())
	}
	return b.String()
}
