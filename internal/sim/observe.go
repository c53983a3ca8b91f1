package sim

import (
	"fmt"
	"io"

	"waferswitch/internal/obs"
)

// AttachTimeline starts time-resolved sampling into t: every Tick
// interval the network closes a window holding the interval's injected
// and accepted flits, the mean and P99 latency of packets retired in
// the window, the busiest channel's utilization and the mean buffered
// occupancy. Like the probe and the checker, the timeline hides behind
// one nil check per event site, so a run without it pays only predicted
// branches and the steady-state loop stays at 0 allocs/op; with it
// attached the loop stays allocation-free too (the sampler's memory is
// fixed at construction). Attaching nil detaches. Call before Run.
func (n *Network) AttachTimeline(t *obs.Timeline) {
	n.tline = t
	if t == nil {
		n.tlChanFlits = nil
		n.tlLatSumR = nil
		return
	}
	if n.tlChanFlits == nil {
		n.tlChanFlits = make([]int32, len(n.channels))
	}
	if n.tlLatSumR == nil {
		n.tlLatSumR = make([]float64, n.R)
	}
}

// Timeline returns the attached sampler (nil when detached).
func (n *Network) Timeline() *obs.Timeline { return n.tline }

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
// channel's flit count feeds the window's top utilization, the window's
// latency sum is the ascending-router fold of tlLatSumR (the latSumR
// pattern; latencies are integers, so the fold is exact in float64 and
// independent of the order packets retired in), and both per-window
// counters reset.
func (n *Network) closeTimelineWindow() {
	var maxFlits int32
	for i, f := range n.tlChanFlits {
		if f > maxFlits {
			maxFlits = f
		}
		n.tlChanFlits[i] = 0
	}
	var sum float64
	for r, l := range n.tlLatSumR {
		sum += l
		n.tlLatSumR[r] = 0
	}
	n.tline.EndIntervalSum(int64(maxFlits), sum)
}

// Trace starts recording packet-lifecycle events into rec: head-of-
// packet inject, per-router RC/VA/ST pipeline entries, and tail eject.
// The recorder is a bounded ring (a flight recorder), so tracing never
// allocates on the cycle path and arbitrarily long runs keep the most
// recent events — the deadlock watchdog dump quotes the last few per
// stuck router. Same nil-check contract as the probe: disabled tracing
// costs one predicted branch per event site. Attaching nil detaches.
// Call before Run.
func (n *Network) Trace(rec *obs.FlightRecorder) { n.tr = rec }

// Recorder returns the attached flight recorder (nil when detached).
func (n *Network) Recorder() *obs.FlightRecorder { return n.tr }

// WriteTrace renders the flight recorder's retained events as Chrome
// trace-event JSON (Perfetto-compatible). It errors when no recorder is
// attached.
func (n *Network) WriteTrace(w io.Writer) error {
	if n.tr == nil {
		return fmt.Errorf("sim: WriteTrace without an attached flight recorder (see Network.Trace)")
	}
	return obs.WriteChromeTrace(w, n.tr.Events())
}
