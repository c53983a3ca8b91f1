package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fillAttrib populates a with a deterministic pattern derived from seed.
func fillAttrib(a *Attribution, seed int64, packets int) {
	for p := 0; p < packets; p++ {
		a.Packets++
		for s := 0; s < NumStages; s++ {
			a.Stages[s].Observe(float64(seed + int64(p*NumStages+s)))
		}
	}
	for r := range a.Routers {
		c := &a.Routers[r]
		c.QueueWait += seed + int64(r)
		c.RouteComp += seed + int64(2*r)
		c.VCAlloc += seed + int64(3*r)
		c.SAStall += seed + int64(4*r)
		c.CreditStall += seed + int64(5*r)
		c.Blamed += seed * int64(r%3)
	}
	for ci := range a.ChanBlame {
		a.ChanBlame[ci] += seed + int64(ci%4)
	}
}

// Merging two attributions must equal observing both streams into one —
// the property that makes the sweep reduction independent of how points
// were partitioned.
func TestAttributionMergeMatchesUnion(t *testing.T) {
	a := NewAttribution(6, 10)
	b := NewAttribution(6, 10)
	union := NewAttribution(6, 10)
	fillAttrib(a, 3, 40)
	fillAttrib(union, 3, 40)
	fillAttrib(b, 17, 25)
	fillAttrib(union, 17, 25)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Packets != union.Packets {
		t.Errorf("merged packets %d, union %d", a.Packets, union.Packets)
	}
	for s := 0; s < NumStages; s++ {
		if !a.Stages[s].Equal(&union.Stages[s]) {
			t.Errorf("stage %s histogram differs from union", StageNames[s])
		}
	}
	if !reflect.DeepEqual(a.Routers, union.Routers) {
		t.Errorf("merged router counters differ from union")
	}
	if !reflect.DeepEqual(a.ChanBlame, union.ChanBlame) {
		t.Errorf("merged channel blame differs from union")
	}
	aj, _ := json.Marshal(a.Snapshot(4))
	uj, _ := json.Marshal(union.Snapshot(4))
	if string(aj) != string(uj) {
		t.Errorf("merged snapshot differs from union snapshot:\n%s\n%s", aj, uj)
	}
}

func TestAttributionMergeSizeMismatch(t *testing.T) {
	a := NewAttribution(4, 8)
	if err := a.Merge(NewAttribution(5, 8)); err == nil {
		t.Error("merging mismatched router counts succeeded")
	}
	if err := a.Merge(NewAttribution(4, 9)); err == nil {
		t.Error("merging mismatched channel counts succeeded")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("merging nil: %v", err)
	}
}

func TestAttributionSnapshot(t *testing.T) {
	a := NewAttribution(5, 6)
	// Distinct blame per router with a tie between routers 1 and 3.
	a.Routers[0].Blamed = 10
	a.Routers[1].Blamed = 30
	a.Routers[3].Blamed = 30
	a.Routers[4].Blamed = 50
	a.ChanBlame[2] = 7
	a.ChanBlame[5] = 9
	for i := 0; i < 4; i++ {
		a.Packets++
		for s := 0; s < NumStages; s++ {
			a.Stages[s].Observe(float64(1 + s))
		}
	}
	s := a.Snapshot(3)
	if s.Packets != 4 {
		t.Errorf("packets %d", s.Packets)
	}
	var shares float64
	for _, st := range s.Stages {
		shares += st.Share
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("stage shares sum to %g", shares)
	}
	// Blame ranking: 4 (50), then the 30-tie broken by lower index (1
	// before 3), truncated at topN=3.
	want := []int{4, 1, 3}
	if len(s.TopBlamed) != len(want) {
		t.Fatalf("top blamed has %d rows, want %d", len(s.TopBlamed), len(want))
	}
	for i, r := range want {
		if s.TopBlamed[i].Router != r {
			t.Errorf("top blamed[%d] = router %d, want %d", i, s.TopBlamed[i].Router, r)
		}
	}
	if len(s.TopBlamedChannels) != 2 || s.TopBlamedChannels[0].Channel != 5 || s.TopBlamedChannels[1].Channel != 2 {
		t.Errorf("top blamed channels: %+v", s.TopBlamedChannels)
	}
	if s.Heatmap == nil || len(s.Heatmap.Rows) != 5 || len(s.Heatmap.Columns) != 6 {
		t.Fatalf("heatmap shape wrong: %+v", s.Heatmap)
	}
	for r, row := range s.Heatmap.Rows {
		if len(row) != len(s.Heatmap.Columns) {
			t.Errorf("heatmap row %d has %d cells", r, len(row))
		}
	}
	if s.Heatmap.Rows[4][5] != 50 {
		t.Errorf("heatmap blamed cell = %d, want 50", s.Heatmap.Rows[4][5])
	}
	// Snapshots are byte-stable.
	j1, _ := json.Marshal(s)
	j2, _ := json.Marshal(a.Snapshot(3))
	if string(j1) != string(j2) {
		t.Error("repeated snapshots differ")
	}
}

func TestAttributionSnapshotEmpty(t *testing.T) {
	s := NewAttribution(0, 0).Snapshot(8)
	if s.Heatmap != nil || len(s.TopBlamed) != 0 || len(s.TopBlamedChannels) != 0 {
		t.Errorf("empty attribution snapshot not empty: %+v", s)
	}
	if s.TotalCycles != 0 || s.Packets != 0 {
		t.Errorf("empty attribution has data: %+v", s)
	}
	for _, st := range s.Stages {
		if st.Share != 0 {
			t.Errorf("stage %s share %g with no packets", st.Stage, st.Share)
		}
	}
}

func TestBackpressureReportRender(t *testing.T) {
	empty := &BackpressureReport{Cycle: 100}
	if got := empty.Render(); !strings.Contains(got, "no credit-blocked VCs") {
		t.Errorf("empty report renders %q", got)
	}
	r := &BackpressureReport{
		Cycle: 4200, BlockedVCs: 12, BlockedRouters: 5, CyclicRouters: 2,
		Trees: []CongestionTree{
			{Root: 7, Depth: 3, Width: 2, Victims: 4, BlockedVCs: 9, StalledFlits: 33},
		},
	}
	got := r.Render()
	for _, want := range []string{
		"cycle 4200", "12 VCs credit-blocked", "5 routers",
		"2 in or behind a wait-for cycle",
		"rooted at router 7", "4 victims (depth 3, width 2)", "33 flits stalled",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q:\n%s", want, got)
		}
	}
}

func TestLiveAddAttribution(t *testing.T) {
	var l Live
	if s := l.Attribution(4); s != nil {
		t.Errorf("snapshot before any AddAttribution: %+v", s)
	}
	if got := l.Reports(); len(got) != 0 {
		t.Errorf("reports before any AddAttribution: %v", got)
	}
	a := NewAttribution(3, 4)
	fillAttrib(a, 2, 10)
	l.AddAttribution("fig21/load=0.5", a, nil)
	if s := l.Attribution(4); s == nil || s.Packets != 10 {
		t.Fatalf("live snapshot: %+v", s)
	}
	// A resized point (the next experiment's fabric) starts a new
	// aggregate instead of being added to the old fabric's counters;
	// its report is kept by name.
	resized := NewAttribution(4, 4)
	fillAttrib(resized, 1, 3)
	l.AddAttribution("fig22/load=0.5", resized, &BackpressureReport{Cycle: 1})
	if s := l.Attribution(4); s == nil || s.Packets != 3 || s.Heatmap == nil || len(s.Heatmap.Rows) != 4 {
		t.Fatalf("live snapshot after a resized point: %+v", s)
	}
	for _, cycle := range []int64{9, 11} { // the latest report wins
		l.AddAttribution("fig21/load=0.9", NewAttribution(3, 4), &BackpressureReport{Cycle: cycle})
	}
	reps := l.Reports()
	if len(reps) != 2 || reps["fig21/load=0.9"].Cycle != 11 || reps["fig22/load=0.5"].Cycle != 1 {
		t.Errorf("reports: %+v", reps)
	}
	// Mutating the returned copy must not affect the registry.
	delete(reps, "fig21/load=0.9")
	if len(l.Reports()) != 2 {
		t.Error("Reports returned the internal map, not a copy")
	}
}

// The sweep engine's workers add attributions concurrently with HTTP
// snapshot reads; -race coverage for that path.
func TestLiveAddAttributionConcurrent(t *testing.T) {
	var l Live
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := NewAttribution(2, 2)
				fillAttrib(a, int64(w+1), 1)
				l.AddAttribution(string(rune('a'+w)), a, &BackpressureReport{Cycle: int64(i)})
				_ = l.Attribution(2)
				_ = l.Reports()
			}
		}(w)
	}
	wg.Wait()
	if s := l.Attribution(2); s == nil || s.Packets != 200 {
		t.Fatalf("after concurrent adds: %+v", s)
	}
	if got := len(l.Reports()); got != 4 {
		t.Errorf("%d reports after concurrent adds, want 4", got)
	}
}
