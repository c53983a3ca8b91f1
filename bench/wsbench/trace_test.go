package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		// Two workers overlap in [20, 40]; their union is [10, 60].
		{ID: 2, Parent: 1, Name: "a", Tid: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Tid: 2, Start: 20, End: 60},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 2, Name: "a.1", Tid: 1, Start: 30, End: 50},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 100},
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 40, 4: 20, 5: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", 0, tr.begin("root", 0, 0, false), func() { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Fatalf("nil tracer: ran=%v spans=%v", ran, tr.snapshot())
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 0, false)
	op := tr.begin("op", 1, root, true)
	tr.do("call", 1, op, func() {})
	tr.end(op)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[1].Parent != root || !spans[1].Op || spans[2].Parent != op {
		t.Errorf("bad nesting: %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	groups := []traceGroup{{name: "w", spans: []span{
		{ID: 1, Name: "run", Start: 0, End: 5000},
		{ID: 2, Parent: 1, Name: "op \"quoted\"", Op: true, Tid: 1, Start: 1000, End: 2000},
	}}}
	if err := writeChromeTrace(&buf, groups); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[2].Dur != 1 {
		t.Errorf("unexpected events: %+v", doc.TraceEvents)
	}
}
