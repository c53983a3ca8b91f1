package sim

import "waferswitch/internal/obs"

// Probe is the collector a Network reports per-router and per-channel
// events into. The simulator checks a single nil pointer on each event
// site, so the steady-state loop stays allocation-free and within a few
// percent of uninstrumented throughput; with no probe attached the cost
// is one predicted branch.
//
// Counter semantics (per run):
//   - Routers[r].Flits: flits forwarded through router r's crossbar.
//   - Routers[r].VAStalls: head-of-VC cycles waiting for an output VC.
//   - Routers[r].SAStalls: ready VCs that lost switch allocation.
//   - Routers[r].CreditStalls: ready VCs blocked on downstream credits.
//   - Routers[r].OccSum/OccPeak: buffered-flit occupancy integral/peak.
//   - Channels[c].Flits: flits placed on channel c (≤1/cycle, so
//     Flits/Cycles is the channel's utilization).
//   - Injected/Ejected: flits entering from and leaving to terminals.
type Probe = obs.Collector

// AttachProbe builds a collector sized for this network, with channel
// metadata (endpoint routers, injecting terminal) filled in, starts
// reporting events into it and returns it. An attached timeline reads
// its windows off this collector, whichever of the two attached first.
// Call before Run; Reset detaches it.
func (n *Network) AttachProbe() *Probe {
	p := obs.NewCollector(n.R, len(n.channels))
	for ci := range n.channels {
		ch := &n.channels[ci]
		p.Meta[ci] = obs.ChannelMeta{SrcRouter: ch.srcRouter, DstRouter: ch.dstRouter, Terminal: ch.srcTerm}
	}
	n.probe = p
	return p
}

// Snapshot returns the run's observability data in JSON-ready form: the
// latency histogram always, plus per-router counters and channel
// utilization when a collector was attached, by AttachProbe or by
// AttachTimeline. Call it after Run.
func (n *Network) Snapshot() *obs.Snapshot {
	var s *obs.Snapshot
	if n.probe != nil {
		s = n.probe.Snapshot(8)
	} else {
		s = &obs.Snapshot{Cycles: n.now}
	}
	s.Latency = n.latHist.Snapshot()
	return s
}

// LatencyHistogram returns a copy of the run's packet-latency histogram
// (a fixed-size value, so this is a flat copy). The sweep engine merges
// these across points into the aggregate latency distribution.
func (n *Network) LatencyHistogram() obs.Histogram { return n.latHist }

// BufferedFlits counts flits currently held in input-VC buffers plus
// flits in flight on channel rings — the residual that closes the
// conservation equation Injected == Ejected + BufferedFlits at any cycle
// boundary.
func (n *Network) BufferedFlits() int64 {
	var total int64
	for _, q := range n.vcQ {
		total += int64(q & 0xffff)
	}
	for _, ev := range n.ringSlab {
		if ev&evValid != 0 {
			total++
		}
	}
	return total
}
