// Package expt is the experiment harness: one runner per table and figure
// of the paper's evaluation, each returning the rows/series the paper
// reports. The cmd/wsswitch binary and the benchmark suite drive this
// package; EXPERIMENTS.md records paper-vs-measured values per id.
package expt

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
)

// Table is the result of one experiment: the rows of a paper table, or
// the series of a paper figure rendered as rows. It is JSON-tagged for
// the wsswitch -json output; Attachments carries machine-readable extras
// (raw sim.Stats series, probe snapshots, sweep summaries) that the text
// Render omits.
type Table struct {
	ID          string                 `json:"id"`
	Title       string                 `json:"title"`
	Headers     []string               `json:"headers"`
	Rows        [][]string             `json:"rows"`
	Notes       []string               `json:"notes,omitempty"`
	Attachments map[string]interface{} `json:"attachments,omitempty"`
}

// Attach records a machine-readable extra under the given key. The value
// must marshal to JSON; it is ignored by the text renderer.
func (t *Table) Attach(key string, v interface{}) {
	if t.Attachments == nil {
		t.Attachments = make(map[string]interface{})
	}
	t.Attachments[key] = v
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tunes experiment execution. wsswitch -json prints the tagged
// fields of the Options it ran as its options block.
type Options struct {
	// Quick reduces simulation scale and optimizer restarts so the whole
	// suite runs in seconds (used by tests and -short benchmarks).
	Quick bool `json:"quick"`
	// Seed makes every experiment deterministic.
	Seed int64 `json:"seed"`
	// Workers bounds the goroutines experiments fan their independent
	// simulation points across (load sweeps, grids and fabric
	// comparisons, all on sim.Pool): 0 means one per CPU (GOMAXPROCS),
	// 1 runs everything serially. Results are bit-identical for every
	// value — each point derives its own seed and reductions happen in
	// point order after the barrier.
	Workers int `json:"workers"`

	// Adaptive arms early abort on every point of every simulator sweep
	// (wsswitch -adaptive, sim.SweepOptions.Abort): a saturated point
	// stops its drain once divergence is certain. The measurement window
	// always completes, so Offered, Accepted and saturation throughput
	// stay those of a full run. Near the knee a point a full run drains
	// can be aborted, which moves the knee and the drained-point
	// summaries; the latency reported for non-drained points covers only
	// the packets completed before the abort.
	Adaptive bool `json:"adaptive,omitempty"`

	// Attribution attaches congestion-attribution collectors to every
	// simulator sweep point (wsswitch -attribution, implied by -http):
	// the per-stage latency decomposition and per-router blame heatmap
	// attach to result tables as "<series>_attribution", and saturated
	// points add their post-mortem to the table notes.
	Attribution bool `json:"attribution,omitempty"`

	// Logger, when non-nil, receives structured progress events from the
	// experiments and the simulator runs under them (wsswitch -v).
	Logger *slog.Logger `json:"-"`
	// Probe attaches per-router/per-channel collectors to simulator
	// experiments and attaches their snapshots to the result tables
	// (wsswitch -json). Costs a few percent of simulation throughput.
	Probe bool `json:"-"`

	// Live, when non-nil, is the feed behind the live introspection
	// server (wsswitch -http): the worker pools report point totals,
	// ticks and each worker's current assignment, and simulator sweeps
	// register their per-point timeline samplers (named
	// "<series>/load=<load>", with TimelineInterval > 0) and fold in
	// each completed point's attribution (with Attribution). Reporting
	// is off the simulator's cycle path, so results are unchanged.
	Live *obs.Live `json:"-"`
	// TimelineInterval, when positive, attaches a time-resolved sampler
	// (window length in cycles) to every simulator sweep point; the
	// merged series attaches to result tables as "<series>_timeline".
	TimelineInterval int `json:"timeline_interval,omitempty"`

	// ctx carries the experiment's pprof label context, set by Run, so
	// worker goroutines add their worker/point labels to the experiment
	// label instead of replacing it.
	ctx context.Context
}

// each runs fn(0) … fn(n-1) on a sim.Pool of o.Workers workers, under
// the experiment's pprof label and reporting to o.Live, and returns
// the lowest-index error. fn must write only its own index slot (see
// sim.Pool.Each); rows are emitted after each returns, in index order.
func (o Options) each(name string, n int, fn func(i int) error) error {
	pool := sim.Pool{Workers: o.Workers, Ctx: o.ctx, Live: o.Live}
	return pool.Each(name, n, nil, func() func(int) error { return fn })
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) restarts() int {
	if o.Quick {
		return 1
	}
	return 3
}

// Runner executes one experiment.
type Runner func(Options) (*Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("expt: duplicate experiment id " + id)
	}
	registry[id] = r
}

// Run executes the experiment with the given id.
func Run(id string, o Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q (see IDs())", id)
	}
	var start time.Time
	if o.Logger != nil {
		start = time.Now()
		o.Logger.Info("expt.start", "id", id, "quick", o.Quick, "seed", o.seed(),
			"probe", o.Probe, "workers", o.Workers)
	}
	var t *Table
	var err error
	// Label the whole experiment so -cpuprofile output groups samples by
	// experiment id (pool/worker/point labels nest inside; see sim.Pool).
	pprof.Do(context.Background(), pprof.Labels("experiment", id),
		func(ctx context.Context) {
			o.ctx = ctx
			t, err = r(o)
		})
	if err != nil {
		if o.Logger != nil {
			o.Logger.Error("expt.failed", "id", id, "err", err)
		}
		return nil, fmt.Errorf("expt: %s: %w", id, err)
	}
	if o.Logger != nil {
		o.Logger.Info("expt.done", "id", id, "rows", len(t.Rows),
			"attachments", len(t.Attachments), "elapsed", time.Since(start).Round(time.Millisecond))
	}
	return t, nil
}

// IDs lists all registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
