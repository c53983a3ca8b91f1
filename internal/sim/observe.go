package sim

import "waferswitch/internal/obs"

// AttachTimeline starts time-resolved sampling into t: every Tick
// interval the network closes a window holding the interval's injected
// and accepted flits, the mean and P99 latency of packets retired in
// the window, the busiest channel's utilization and the mean buffered
// occupancy. Like the probe and the checker, the timeline hides behind
// one nil check per event site, so a run without it pays only predicted
// branches and the steady-state loop stays at 0 allocs/op; with it
// attached the loop stays allocation-free too (the sampler's memory is
// fixed at construction). Call before Run; Reset detaches it.
func (n *Network) AttachTimeline(t *obs.Timeline) {
	n.tline = t
	if n.tlChanFlits == nil {
		n.tlChanFlits = make([]int32, len(n.channels))
	}
}

// tickTimeline advances the sampler by one cycle and closes the window
// at interval boundaries. Runs only with a timeline attached.
func (n *Network) tickTimeline() {
	var occ int64
	for _, o := range n.routerOcc {
		occ += int64(o)
	}
	if n.tline.Tick(occ) {
		n.closeTimelineWindow()
	}
}

// closeTimelineWindow ends the open sampling window: the busiest
// channel's flit count feeds the window's top utilization, and the
// per-channel counters reset. The window's latency sum comes from the
// timeline's window histogram; latencies are integers, so it is exact
// whatever order the packets retired in (see Run's AvgLatency).
func (n *Network) closeTimelineWindow() {
	var maxFlits int32
	for i, f := range n.tlChanFlits {
		if f > maxFlits {
			maxFlits = f
		}
		n.tlChanFlits[i] = 0
	}
	n.tline.EndInterval(int64(maxFlits))
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
