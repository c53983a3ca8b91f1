package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// feedTimeline drives tl through cycles simulated cycles: every cycle
// injects one flit with occupancy occ, ejects one flit, and retires one
// packet at latency lat(cycle); the busiest channel carries one flit a
// window.
func feedTimeline(tl *Timeline, cycles int, occ int64, lat func(cycle int) float64) {
	var w int64 // cycles in the open window
	for c := 0; c < cycles; c++ {
		tl.NoteRetire(lat(c))
		w++
		if tl.Tick() {
			tl.EndInterval(w, w, w*occ, 1)
			w = 0
		}
	}
	tl.EndInterval(w, w, w*occ, 1) // flush the partial final window, as Network.Run does
}

func TestTimelineWindows(t *testing.T) {
	tl := NewTimeline(10, 64)
	feedTimeline(tl, 35, 4, func(int) float64 { return 20 })
	s := tl.Snapshot()
	if s.Interval != 10 {
		t.Errorf("interval = %d, want 10", s.Interval)
	}
	// 35 cycles at interval 10: three full windows plus a 5-cycle tail.
	if len(s.Samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(s.Samples))
	}
	for i, p := range s.Samples[:3] {
		if p.Start != int64(i)*10 || p.Cycles != 10 {
			t.Errorf("sample %d covers [%d, +%d), want [%d, +10)", i, p.Start, p.Cycles, i*10)
		}
		if p.Injected != 10 || p.Ejected != 10 || p.Retired != 10 {
			t.Errorf("sample %d counts %d/%d/%d, want 10/10/10", i, p.Injected, p.Ejected, p.Retired)
		}
		if p.MeanLatency != 20 || p.P99Latency != 20 {
			t.Errorf("sample %d latency mean=%v p99=%v, want 20/20", i, p.MeanLatency, p.P99Latency)
		}
		if p.MeanQueueOcc != 4 {
			t.Errorf("sample %d occupancy %v, want 4", i, p.MeanQueueOcc)
		}
		if p.TopChannelUtil != 0.1 {
			t.Errorf("sample %d top util %v, want 0.1", i, p.TopChannelUtil)
		}
	}
	if tail := s.Samples[3]; tail.Start != 30 || tail.Cycles != 5 || tail.Injected != 5 {
		t.Errorf("tail window wrong: %+v", tail)
	}
}

// The sampler's memory is fixed: running far past maxSamples windows
// must coalesce pairwise and double the interval, never grow the store,
// while the series keeps covering the whole run with nothing lost.
func TestTimelineCompaction(t *testing.T) {
	tl := NewTimeline(2, 8)
	const cycles = 400
	feedTimeline(tl, cycles, 1, func(int) float64 { return 7 })
	s := tl.Snapshot()
	if len(s.Samples) > 8 {
		t.Fatalf("store grew to %d samples, cap 8", len(s.Samples))
	}
	if s.Interval <= 2 {
		t.Errorf("interval stayed %d; compaction should have doubled it", s.Interval)
	}
	var covered, injected int64
	prevEnd := int64(0)
	for i, p := range s.Samples {
		if p.Start != prevEnd {
			t.Errorf("sample %d starts at %d, want contiguous %d", i, p.Start, prevEnd)
		}
		prevEnd = p.Start + p.Cycles
		covered += p.Cycles
		injected += p.Injected
	}
	if covered != cycles || injected != cycles {
		t.Errorf("series covers %d cycles / %d injects, want %d of each", covered, injected, cycles)
	}
}

// Merging per-point series must be independent of how the points were
// grouped: one sampler fed everything vs per-point samplers merged in
// point order must produce identical snapshots (the sweep engine's
// serial-vs-parallel determinism rests on this).
func TestTimelineMergeDeterministic(t *testing.T) {
	lat := func(c int) float64 { return float64(10 + c%13) }
	mk := func(cycles int) *Timeline {
		tl := NewTimeline(5, 16)
		feedTimeline(tl, cycles, 2, lat)
		return tl
	}
	// Unequal lengths force interval coarsening during the merge.
	lengths := []int{40, 200, 90}

	merged := NewTimeline(5, 16)
	for _, l := range lengths {
		if err := merged.Merge(mk(l)); err != nil {
			t.Fatal(err)
		}
	}
	again := NewTimeline(5, 16)
	for _, l := range lengths {
		if err := again.Merge(mk(l)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := merged.Snapshot(), again.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical merges diverge:\n%+v\n%+v", a, b)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("merged snapshots are not byte-identical as JSON")
	}

	var total int64
	for _, p := range a.Samples {
		total += p.Injected
	}
	if want := int64(40 + 200 + 90); total != want {
		t.Errorf("merged series injects %d, want %d", total, want)
	}
}

func TestTimelineMergeEmptyAndNil(t *testing.T) {
	tl := NewTimeline(4, 8)
	if err := tl.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
	if err := tl.Merge(NewTimeline(4, 8)); err != nil {
		t.Errorf("empty merge: %v", err)
	}
	if len(tl.Snapshot().Samples) != 0 {
		t.Error("merging nothing produced samples")
	}
	// Merging into an empty timeline adopts the source series.
	src := NewTimeline(4, 8)
	feedTimeline(src, 20, 1, func(int) float64 { return 3 })
	if err := tl.Merge(src); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl.Snapshot(), src.Snapshot()) {
		t.Error("merge into empty timeline is not the identity")
	}
}

// TimelineSnapshot must round-trip through JSON with the documented
// keys intact.
func TestTimelineSnapshotJSONRoundTrip(t *testing.T) {
	tl := NewTimeline(10, 16)
	feedTimeline(tl, 25, 3, func(c int) float64 { return float64(15 + c) })
	s := tl.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back TimelineSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*s, back) {
		t.Errorf("round trip changed the snapshot:\n%+v\n%+v", *s, back)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["interval"]; !ok {
		t.Error("snapshot JSON missing key \"interval\"")
	}
	var rawSamples struct {
		Samples []map[string]any `json:"samples"`
	}
	if err := json.Unmarshal(b, &rawSamples); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"start_cycle", "cycles", "injected_flits", "ejected_flits",
		"retired_packets", "mean_latency", "p99_latency", "top_channel_util", "mean_queue_occ"} {
		if _, ok := rawSamples.Samples[0][key]; !ok {
			t.Errorf("sample JSON missing key %q", key)
		}
	}
}

// The per-packet and per-cycle paths and the window close must not
// allocate: they run inside the simulator's steady-state loop.
func TestTimelineHooksNoAllocs(t *testing.T) {
	tl := NewTimeline(16, 0)
	// Warm through several compactions first so append never regrows.
	feedTimeline(tl, 16*defaultTimelineSamples*4, 1, func(int) float64 { return 5 })
	if avg := testing.AllocsPerRun(2000, func() {
		tl.NoteRetire(12)
		if tl.Tick() {
			tl.EndInterval(16, 16, 48, 2)
		}
	}); avg != 0 {
		t.Errorf("timeline hooks allocate %v allocs/op, want 0", avg)
	}
}

// A full store compacts in place. Each run closes four windows into an
// 8-sample store holding four, so each run is one compaction and a
// single allocation per compaction reads as 1 alloc/op (in the
// simulator's steady-state step, one compaction per few thousand cycles
// rounds down to 0 allocs/op).
func TestTimelineCompactionNoAllocs(t *testing.T) {
	tl := NewTimeline(1, 8)
	feedTimeline(tl, 8, 1, func(int) float64 { return 5 })
	if avg := testing.AllocsPerRun(10, func() {
		for w := 0; w < 4; w++ {
			for !tl.Tick() {
			}
			tl.EndInterval(1, 1, 1, 1)
		}
	}); avg != 0 {
		t.Errorf("timeline compaction allocates %v times, want 0", avg)
	}
	if got := tl.Snapshot().Interval; got != 1<<12 {
		t.Errorf("interval %d after 12 compactions, want %d", got, 1<<12)
	}
}

// Snapshot must be safe to call while a writer goroutine is feeding the
// timeline — the live /timeline handler does exactly that. Run under
// -race via make check.
func TestTimelineConcurrentSnapshot(t *testing.T) {
	tl := NewTimeline(4, 32)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			tl.NoteRetire(float64(i % 50))
			if tl.Tick() {
				tl.EndInterval(4, 0, 4, 1)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		s := tl.Snapshot()
		for j, p := range s.Samples {
			if p.Cycles == 0 {
				t.Errorf("snapshot %d sample %d has zero cycles (open window leaked)", i, j)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestTimelineTruncated pins the truncation flag's lifecycle: off by
// default (and absent from JSON, keeping pre-existing pinned output
// byte-identical), set by MarkTruncated, and contagious through Merge —
// including from a truncated timeline with no closed samples.
func TestTimelineTruncated(t *testing.T) {
	tl := NewTimeline(10, 64)
	feedTimeline(tl, 25, 1, func(int) float64 { return 5 })
	s := tl.Snapshot()
	if s.Truncated {
		t.Error("fresh timeline reports Truncated")
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "truncated") {
		t.Errorf("untruncated snapshot JSON mentions the flag: %s", raw)
	}

	tl.MarkTruncated()
	if !tl.Snapshot().Truncated {
		t.Error("MarkTruncated did not stick")
	}
	raw, err = json.Marshal(tl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"truncated":true`) {
		t.Errorf("truncated snapshot JSON missing the flag: %s", raw)
	}

	// Merge propagates the flag from the source...
	agg := NewTimeline(10, 64)
	feedTimeline(agg, 25, 1, func(int) float64 { return 5 })
	if err := agg.Merge(tl); err != nil {
		t.Fatal(err)
	}
	if !agg.Snapshot().Truncated {
		t.Error("Merge dropped the source's Truncated flag")
	}
	// ...keeps it once set even when later sources are clean...
	clean := NewTimeline(10, 64)
	feedTimeline(clean, 25, 1, func(int) float64 { return 5 })
	if err := agg.Merge(clean); err != nil {
		t.Fatal(err)
	}
	if !agg.Snapshot().Truncated {
		t.Error("merging a clean timeline cleared Truncated")
	}
	// ...and picks it up even from an empty-but-truncated source (a run
	// aborted before its first window closed).
	agg2 := NewTimeline(10, 64)
	feedTimeline(agg2, 25, 1, func(int) float64 { return 5 })
	empty := NewTimeline(10, 64)
	empty.MarkTruncated()
	if err := agg2.Merge(empty); err != nil {
		t.Fatal(err)
	}
	if !agg2.Snapshot().Truncated {
		t.Error("empty truncated source did not propagate through Merge")
	}
}

// Merging timelines whose intervals are not a power-of-two multiple of
// each other must fail loudly: doubling-based coarsening can never align
// them, and a bare divisibility check (6 % 2 == 0) would silently
// misattribute windows.
func TestTimelineMergeMismatchedIntervals(t *testing.T) {
	lat := func(int) float64 { return 7 }
	a := NewTimeline(2, 8)
	feedTimeline(a, 12, 1, lat)
	b := NewTimeline(6, 8)
	feedTimeline(b, 12, 1, lat)
	err := a.Merge(b)
	if err == nil {
		t.Fatal("merging intervals 2 and 6 succeeded")
	}
	for _, want := range []string{"2", "6", "power of two"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The failed merge must not have corrupted the receiver.
	var total int64
	for _, p := range a.Snapshot().Samples {
		total += p.Injected
	}
	if total != 12 {
		t.Errorf("receiver injects %d after failed merge, want 12", total)
	}
	// Power-of-two ratios (3 vs 6 and 6 vs 3) merge fine, either way
	// around: the coarser interval wins.
	c := NewTimeline(3, 8)
	feedTimeline(c, 12, 1, lat)
	d := NewTimeline(6, 8)
	feedTimeline(d, 12, 1, lat)
	if err := c.Merge(d); err != nil {
		t.Fatalf("merging intervals 3 and 6: %v", err)
	}
	if got := c.Snapshot().Interval; got != 6 {
		t.Errorf("merged interval %d, want the coarser 6", got)
	}
	e := NewTimeline(6, 8)
	feedTimeline(e, 12, 1, lat)
	f := NewTimeline(3, 8)
	feedTimeline(f, 12, 1, lat)
	if err := e.Merge(f); err != nil {
		t.Fatalf("merging intervals 6 and 3: %v", err)
	}
}

// maxSamples=1 rounds up to 2 (compaction halves pairwise); the series
// must stay bounded and conserve its event counts through repeated
// single-window compactions.
func TestTimelineMaxSamplesOne(t *testing.T) {
	tl := NewTimeline(4, 1)
	feedTimeline(tl, 64, 1, func(int) float64 { return 5 })
	s := tl.Snapshot()
	if len(s.Samples) > 2 {
		t.Errorf("maxSamples=1 series holds %d samples", len(s.Samples))
	}
	var injected, cycles int64
	for _, p := range s.Samples {
		injected += p.Injected
		cycles += p.Cycles
	}
	if injected != 64 || cycles != 64 {
		t.Errorf("compacted series covers %d cycles / %d injected, want 64/64", cycles, injected)
	}
	if s.Interval < 4 || s.Interval&(s.Interval-1) != 0 && s.Interval%4 != 0 {
		t.Errorf("interval %d is not a doubling of the base 4", s.Interval)
	}

	// A single closed window merges into an empty receiver and another
	// single-window series without tripping the compaction path.
	one := NewTimeline(4, 1)
	feedTimeline(one, 4, 1, func(int) float64 { return 5 })
	if got := len(one.Snapshot().Samples); got != 1 {
		t.Fatalf("single-window series has %d samples", got)
	}
	dst := NewTimeline(4, 1)
	if err := dst.Merge(one); err != nil {
		t.Fatal(err)
	}
	two := NewTimeline(4, 1)
	feedTimeline(two, 4, 1, func(int) float64 { return 9 })
	if err := dst.Merge(two); err != nil {
		t.Fatal(err)
	}
	s = dst.Snapshot()
	if len(s.Samples) != 1 || s.Samples[0].Injected != 8 || s.Samples[0].Cycles != 8 {
		t.Errorf("merged single windows: %+v", s.Samples)
	}
	if s.Samples[0].P99Latency != 9 {
		t.Errorf("merged P99 %g, want the max 9", s.Samples[0].P99Latency)
	}
}
