package obs

import (
	"sort"
	"sync"
	"time"
)

// Progress is the shared completion ledger a running experiment suite
// reports into: the worker pool (sim.Pool) adds each sweep's and grid's
// point total up front and ticks points off as they finish, and each
// worker publishes what it is currently running. The live introspection server
// reads it for /metrics and expvar. All methods are safe for concurrent
// use; none are on the simulator's cycle path.
type Progress struct {
	mu      sync.Mutex
	start   time.Time
	total   int64
	done    int64
	workers map[string]string
}

// AddTotal announces n upcoming points (a sweep's loads, a grid's
// cells). The first call starts the ETA clock.
func (p *Progress) AddTotal(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.total += int64(n)
}

// PointDone ticks one point off.
func (p *Progress) PointDone() {
	p.mu.Lock()
	p.done++
	p.mu.Unlock()
}

// SetWorker publishes what the named worker is currently running; an
// empty what clears the entry (the worker went idle).
func (p *Progress) SetWorker(worker, what string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.workers == nil {
		p.workers = make(map[string]string)
	}
	if what == "" {
		delete(p.workers, worker)
		return
	}
	p.workers[worker] = what
}

// WorkerState is one worker's current assignment.
type WorkerState struct {
	Worker  string `json:"worker"`
	Running string `json:"running"`
}

// ProgressSnapshot is the JSON-ready view of a Progress.
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

// Snapshot returns a consistent copy for serving.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{Total: p.total, Done: p.done}
	if !p.start.IsZero() {
		s.ElapsedSeconds = time.Since(p.start).Seconds()
	}
	if p.done > 0 && p.total > p.done {
		s.ETASeconds = s.ElapsedSeconds / float64(p.done) * float64(p.total-p.done)
	}
	for w, r := range p.workers {
		s.Workers = append(s.Workers, WorkerState{Worker: w, Running: r})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	return s
}

// LiveTimelines is a registry of timeline samplers belonging to running
// (and recently finished) simulation points, keyed by a caller-chosen
// name such as "fig21/buf=32/lat=1/load=0.8". The sweep engine attaches
// each point's sampler before running it; the /timeline HTTP handler
// snapshots the registry to stream the series of a simulation that is
// still executing. Attach/Snapshot are concurrency-safe, and
// Timeline.Snapshot itself tolerates a concurrent simulation writer, so
// serving never perturbs results.
type LiveTimelines struct {
	mu sync.Mutex
	m  map[string]*Timeline
}

// Attach registers (or replaces) a named timeline.
func (l *LiveTimelines) Attach(name string, t *Timeline) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[string]*Timeline)
	}
	l.m[name] = t
}

// Detach removes a named timeline.
func (l *LiveTimelines) Detach(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.m, name)
}

// Names returns the registered names, sorted.
func (l *LiveTimelines) Names() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.m))
	for n := range l.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot materializes every registered timeline, keyed by name.
func (l *LiveTimelines) Snapshot() map[string]*TimelineSnapshot {
	l.mu.Lock()
	tls := make(map[string]*Timeline, len(l.m))
	for n, t := range l.m {
		tls[n] = t
	}
	l.mu.Unlock()
	out := make(map[string]*TimelineSnapshot, len(tls))
	for n, t := range tls {
		out[n] = t.Snapshot()
	}
	return out
}
