package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Start and End are nanoseconds since the tracer
// started; Parent is the ID of the enclosing span (0 for a root); Tid
// names the goroutine lane (0 the rep's main goroutine, 1.. the traced
// sweep workers). Op marks the spans that are one op of the workload (a
// sweep point or an experiment).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Tid    int    `json:"tid"`
	Op     bool   `json:"op,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the rep ends. A nil tracer records
// nothing, so the untraced reps run the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, tid, parent int, op bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tid: tid, Op: op, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, tid, parent int, fn func()) {
	id := t.begin(name, tid, parent, false)
	fn()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time, keyed by ID: its duration
// minus the part of its interval that its child spans cover. Children
// may overlap one another (the workers of a sweep run side by side), so
// the covered part is the union of their intervals, clipped to the
// parent's.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs within [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// traceGroup is the spans of one traced rep, shown as one process.
type traceGroup struct {
	name  string
	spans []span
}

// writeChromeTrace renders the traced reps as Chrome trace-event JSON,
// which Perfetto (ui.perfetto.dev) and chrome://tracing open: one
// process per workload, one thread per goroutine lane, one complete
// ("X") event per span carrying its self time.
func writeChromeTrace(w io.Writer, groups []traceGroup) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(e event) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	for gi, g := range groups {
		pid := gi + 1
		if err := emit(event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": g.name}}); err != nil {
			return err
		}
		self := selfTimes(g.spans)
		for _, s := range g.spans {
			cat := "call"
			if s.Op {
				cat = "op"
			}
			err := emit(event{
				Name: s.Name, Cat: cat, Ph: "X", Pid: pid, Tid: s.Tid,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Args: map[string]any{"self_us": float64(self[s.ID]) / 1e3},
			})
			if err != nil {
				return err
			}
		}
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
