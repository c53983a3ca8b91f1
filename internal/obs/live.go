package obs

import (
	"sort"
	"sync"
	"time"
)

// Live is the one feed a running experiment suite reports into for the
// live introspection server (wsswitch -http). The worker pool
// (sim.Pool) announces each fan-out's point total, publishes what each
// worker is running and ticks points off as they finish. The sweep
// engine attaches each point's timeline sampler before the point runs
// and folds in each completed point's attribution. The server's
// handlers read it all back. Every method is safe for concurrent use,
// and none is on the simulator's cycle path. It is a live view only:
// attributions merge in completion order, not point order, so no
// reported result comes from here.
type Live struct {
	mu      sync.Mutex
	start   time.Time
	total   int64
	done    int64
	workers map[string]string
	tls     map[string]*Timeline
	attr    *Attribution
	reports map[string]*BackpressureReport
}

// AddTotal announces n upcoming points (a sweep's loads, a grid's
// cells). The first call starts the ETA clock.
func (l *Live) AddTotal(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.start.IsZero() {
		l.start = time.Now()
	}
	l.total += int64(n)
}

// SetWorker publishes what the named worker is currently running; an
// empty what clears the entry (the worker went idle).
func (l *Live) SetWorker(worker, what string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if what == "" {
		delete(l.workers, worker)
		return
	}
	if l.workers == nil {
		l.workers = make(map[string]string)
	}
	l.workers[worker] = what
}

// PointDone ticks one point off.
func (l *Live) PointDone() {
	l.mu.Lock()
	l.done++
	l.mu.Unlock()
}

// AttachTimeline registers (or replaces) the sampler of a point about
// to run under a caller-chosen name such as
// "fig21/buf=32/lat=1/load=0.8", so its series can be served while the
// point still executes.
func (l *Live) AttachTimeline(name string, t *Timeline) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tls == nil {
		l.tls = make(map[string]*Timeline)
	}
	l.tls[name] = t
}

// AddAttribution folds a completed point's non-nil attribution into
// the live aggregate and, when bp is non-nil, records the point's
// backpressure report under name. A point from a network sized unlike
// the aggregate starts a new aggregate, so the live view never adds up
// the counters of two different fabrics.
func (l *Live) AddAttribution(name string, a *Attribution, bp *BackpressureReport) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.attr == nil || len(l.attr.Routers) != len(a.Routers) || len(l.attr.ChanBlame) != len(a.ChanBlame) {
		l.attr = NewAttribution(len(a.Routers), len(a.ChanBlame))
	}
	_ = l.attr.Merge(a) // sized alike, so it cannot fail
	if bp != nil {
		if l.reports == nil {
			l.reports = make(map[string]*BackpressureReport)
		}
		l.reports[name] = bp
	}
}

// WorkerState is one worker's current assignment.
type WorkerState struct {
	Worker  string `json:"worker"`
	Running string `json:"running"`
}

// ProgressSnapshot is the JSON-ready view of the point ledger.
type ProgressSnapshot struct {
	Total int64 `json:"points_total"`
	Done  int64 `json:"points_done"`
	// ElapsedSeconds is the wall time since the first AddTotal;
	// ETASeconds extrapolates the remaining points at the observed
	// completion rate (0 until at least one point finished).
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	ETASeconds     float64       `json:"eta_seconds"`
	Workers        []WorkerState `json:"workers,omitempty"`
}

// Progress returns a consistent copy of the point ledger, workers
// sorted by name.
func (l *Live) Progress() ProgressSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := ProgressSnapshot{Total: l.total, Done: l.done}
	if !l.start.IsZero() {
		s.ElapsedSeconds = time.Since(l.start).Seconds()
	}
	if l.done > 0 && l.total > l.done {
		s.ETASeconds = s.ElapsedSeconds / float64(l.done) * float64(l.total-l.done)
	}
	for w, r := range l.workers {
		s.Workers = append(s.Workers, WorkerState{Worker: w, Running: r})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	return s
}

// TimelineNames returns the attached timelines' names, sorted.
func (l *Live) TimelineNames() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.tls))
	for n := range l.tls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Timelines materializes every attached timeline, keyed by name.
// Timeline.Snapshot tolerates the simulating goroutine writing, so
// serving never perturbs results.
func (l *Live) Timelines() map[string]*TimelineSnapshot {
	l.mu.Lock()
	tls := make(map[string]*Timeline, len(l.tls))
	for n, t := range l.tls {
		tls[n] = t
	}
	l.mu.Unlock()
	out := make(map[string]*TimelineSnapshot, len(tls))
	for n, t := range tls {
		out[n] = t.Snapshot()
	}
	return out
}

// Timeline materializes the one timeline attached under name, and
// reports whether there is one.
func (l *Live) Timeline(name string) (*TimelineSnapshot, bool) {
	l.mu.Lock()
	t, ok := l.tls[name]
	l.mu.Unlock()
	if !ok {
		return nil, false
	}
	return t.Snapshot(), true
}

// Attribution materializes the live aggregate, keeping the topN
// most-blamed routers and channels (nil before the first
// AddAttribution).
func (l *Live) Attribution(topN int) *AttributionSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.attr == nil {
		return nil
	}
	return l.attr.Snapshot(topN)
}

// Reports returns a copy of the recorded backpressure reports, keyed by
// point name.
func (l *Live) Reports() map[string]*BackpressureReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]*BackpressureReport, len(l.reports))
	for k, v := range l.reports {
		out[k] = v
	}
	return out
}
