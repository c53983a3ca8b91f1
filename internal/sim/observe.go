package sim

import "waferswitch/internal/obs"

// AttachTimeline starts time-resolved sampling into t: every Tick
// interval the network closes a window holding the interval's injected
// and accepted flits, the mean and P99 latency of packets retired in
// the window, the busiest channel's utilization and the mean buffered
// occupancy. The timeline is a windowed view of the network's
// collector, which it attaches when no probe has: a window's flit and
// occupancy counts are the change in the collector's running counters
// since the last close, so no event is counted twice. The probe and the
// timeline attach in either order, and neither allocates on the cycle
// path. Call before Run; Reset detaches it.
func (n *Network) AttachTimeline(t *obs.Timeline) {
	if n.probe == nil {
		n.AttachProbe()
	}
	n.tline = t
	n.tlMark = timelineMark{chanFlits: make([]int64, len(n.channels))}
}

// timelineMark holds the collector's running counters as they stood at
// the timeline's last window close.
type timelineMark struct {
	injected, ejected, occSum int64
	chanFlits                 []int64
}

// closeTimelineWindow ends the open sampling window with the change in
// the collector's counters since the last close: injected and ejected
// flits, the occupancy integral summed over routers, and the busiest
// channel's flit count. The window's latency sum comes from the
// timeline's window histogram; latencies are integers, so it is exact
// whatever order the packets retired in (see Run's AvgLatency).
func (n *Network) closeTimelineWindow() {
	p, m := n.probe, &n.tlMark
	var occSum, maxFlits int64
	for r := range p.Routers {
		occSum += p.Routers[r].OccSum
	}
	for c, prev := range m.chanFlits {
		f := p.Channels[c].Flits
		maxFlits = max(maxFlits, f-prev)
		m.chanFlits[c] = f
	}
	n.tline.EndInterval(p.Injected-m.injected, p.Ejected-m.ejected, occSum-m.occSum, maxFlits)
	m.injected, m.ejected, m.occSum = p.Injected, p.Ejected, occSum
}

// Trace starts recording packet-lifecycle events into rec: head-of-
// packet inject, per-router RC/VA/ST pipeline entries, and tail eject.
// The recorder is a bounded ring (a flight recorder), so tracing never
// allocates on the cycle path and arbitrarily long runs keep the most
// recent events — the deadlock watchdog dump quotes the last few per
// stuck router. Same nil-check contract as the probe: disabled tracing
// costs one predicted branch per event site. Call before Run; Reset
// detaches it. Render the retained events with obs.WriteChromeTrace.
func (n *Network) Trace(rec *obs.FlightRecorder) { n.tr = rec }
