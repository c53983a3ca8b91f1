package sim

// The early-abort saturation detector is an online divergence test that
// stops a run as soon as saturation is certain instead of burning the
// full drain budget to report the same Drained=false.
//
// The detector runs on a fixed cycle cadence (abortEvery) from state
// that is a pure function of the seed, so an aborted run is
// deterministic and bit-identical up to the abort point for any worker
// count. It watches two signals during the measurement window — the gap
// between accepted and offered flits, and monotone growth of the
// terminal source-queue backlog — and, during the drain phase, whether
// the measured-packet completion rate can still retire the stranded
// backlog before the deadline. The measurement window always runs to
// completion, so Offered and Accepted (and therefore
// SaturationThroughput) are exactly those of a full run; only the drain
// budget — 3-10x the measurement window in the stock configurations,
// and the most expensive cycles of all since every buffer is full — is
// cut short. Both phases can misjudge a point near the knee whose
// queues would still empty within the budget; it then reports
// Drained=false, which moves FirstSaturatedLoad (DESIGN.md §10.1).
const (
	// abortEvery is the detector cadence in cycles. Checks are
	// O(terminals), so the amortized cost is negligible; the cadence is
	// fixed per run, which keeps aborted runs deterministic per seed.
	abortEvery = 128
	// abortWindows is the number of consecutive diverging windows
	// required before the run is declared saturated. Higher values trade
	// later aborts for more certainty.
	abortWindows = 3
	// abortGapFactor classifies a measurement window as diverging when
	// its accepted flits fall below abortGapFactor times the offered
	// flits. Below saturation the per-window acceptance tracks the
	// offered load to within a few percent, so this leaves a wide noise
	// margin.
	abortGapFactor = 0.85
)

// abortState is the detector's runtime state, attached to a Network by
// ArmAbort and consulted by Run on the check cadence. All fields are
// owned by the simulating goroutine.
type abortState struct {
	streak        int
	armed         bool
	lastEjected   int64
	lastCompleted int
	lastBacklog   int64
}

// ArmAbort arms the early-abort saturation detector for the next Run;
// Reset disarms it. Like the probe and the timeline, the detector hides
// behind one nil check per cycle, so a run without it pays only a
// predicted branch and the steady-state loop stays at 0 allocs/op.
func (n *Network) ArmAbort() { n.ab = &abortState{} }

// sourceBacklog counts the packets waiting in terminal source queues,
// the backlog that keeps growing past saturation. Deferred birth
// trials are not in the queues, so Run draws them (catchUp) before each
// check. One O(terminals) walk per check beats maintaining a counter on
// the per-flit hot path.
func (n *Network) sourceBacklog() int64 {
	var b int64
	for t := 0; t < n.T; t++ {
		b += int64(len(n.srcQ[t]) - int(n.srcQHead[t]))
	}
	return b
}

// measureCheck evaluates one divergence window during measurement: the
// window counts as diverging when accepted flits fall short of the
// offered volume by more than the gap factor while the source backlog
// grew. Enough consecutive diverging windows arm the detector — the
// drain budget is then skipped entirely when measurement ends.
func (a *abortState) measureCheck(n *Network, offered float64) {
	ejected := n.ejectedFlits
	window := ejected - a.lastEjected
	a.lastEjected = ejected
	backlog := n.sourceBacklog()
	expect := offered * float64(n.T) * abortEvery
	if float64(window) < abortGapFactor*expect && backlog > a.lastBacklog {
		a.streak++
		if a.streak >= abortWindows {
			a.armed = true
		}
	} else {
		a.streak = 0
	}
	a.lastBacklog = backlog
}

// startDrain resets the per-phase state when the drain loop begins.
func (a *abortState) startDrain(completed int) {
	a.streak = 0
	a.lastCompleted = completed
}

// drainCheck evaluates one window of the drain phase and reports
// whether the run should abort: either the stranded backlog provably
// exceeds the remaining ejection capacity (at most one packet tail per
// terminal per cycle), or the completion rate has extrapolated short of
// the deadline for enough consecutive windows.
func (a *abortState) drainCheck(n *Network, deadline int64) bool {
	remaining := int64(n.measuredBorn - n.completed)
	if remaining <= 0 {
		return false
	}
	left := deadline - n.now
	if remaining > left*int64(n.T) {
		return true // provably cannot drain in the budget left
	}
	window := int64(n.completed - a.lastCompleted)
	a.lastCompleted = n.completed
	checksLeft := (left + abortEvery - 1) / abortEvery
	if window*checksLeft < remaining {
		a.streak++
	} else {
		a.streak = 0
	}
	return a.streak >= abortWindows
}
