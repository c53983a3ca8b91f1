package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestProgressSnapshot(t *testing.T) {
	var p Live
	s := p.Progress()
	if s.Total != 0 || s.Done != 0 || s.ElapsedSeconds != 0 || len(s.Workers) != 0 {
		t.Errorf("zero-value snapshot not empty: %+v", s)
	}
	p.AddTotal(10)
	p.AddTotal(5)
	for i := 0; i < 6; i++ {
		p.PointDone()
	}
	p.SetWorker("fig21/w1", "fig21/point=3")
	p.SetWorker("fig21/w0", "fig21/point=2")
	s = p.Progress()
	if s.Total != 15 || s.Done != 6 {
		t.Errorf("progress %d/%d, want 6/15", s.Done, s.Total)
	}
	if s.ElapsedSeconds < 0 || s.ETASeconds < 0 {
		t.Errorf("negative times: %+v", s)
	}
	// Workers sort by name so snapshots are deterministic.
	if len(s.Workers) != 2 || s.Workers[0].Worker != "fig21/w0" || s.Workers[1].Running != "fig21/point=3" {
		t.Errorf("workers wrong: %+v", s.Workers)
	}
	p.SetWorker("fig21/w0", "") // idle clears the entry
	if s = p.Progress(); len(s.Workers) != 1 {
		t.Errorf("idle worker not cleared: %+v", s.Workers)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot not JSON-marshalable: %v", err)
	}
}

// The point ledger is shared by pool workers and the HTTP handler;
// hammer it from several goroutines under -race.
func TestProgressConcurrent(t *testing.T) {
	var p Live
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			p.AddTotal(100)
			for i := 0; i < 100; i++ {
				p.SetWorker(name, "point")
				p.PointDone()
				p.SetWorker(name, "")
				_ = p.Progress()
			}
		}(w)
	}
	wg.Wait()
	if s := p.Progress(); s.Total != 400 || s.Done != 400 {
		t.Errorf("progress %d/%d after concurrent run, want 400/400", s.Done, s.Total)
	}
}

func TestLiveTimelineRegistry(t *testing.T) {
	var l Live
	if n := l.TimelineNames(); len(n) != 0 {
		t.Errorf("empty registry lists %v", n)
	}
	a, b := NewTimeline(4, 8), NewTimeline(4, 8)
	feedTimeline(a, 12, 1, func(int) float64 { return 5 })
	l.AttachTimeline("fig21/buf=8/lat=1/load=0.5", a)
	l.AttachTimeline("fig21/buf=8/lat=1/load=0.9", b)
	if got := l.TimelineNames(); !reflect.DeepEqual(got, []string{"fig21/buf=8/lat=1/load=0.5", "fig21/buf=8/lat=1/load=0.9"}) {
		t.Errorf("names = %v", got)
	}
	snaps := l.Timelines()
	if len(snaps) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snaps))
	}
	if s := snaps["fig21/buf=8/lat=1/load=0.5"]; len(s.Samples) != 3 {
		t.Errorf("fed series has %d samples, want 3", len(s.Samples))
	}
	if s := snaps["fig21/buf=8/lat=1/load=0.9"]; len(s.Samples) != 0 {
		t.Errorf("unfed series has %d samples, want 0", len(s.Samples))
	}
	if one, ok := l.Timeline("fig21/buf=8/lat=1/load=0.5"); !ok || !reflect.DeepEqual(one, snaps["fig21/buf=8/lat=1/load=0.5"]) {
		t.Errorf("Timeline(name) = %v, %v; want its Timelines entry", one, ok)
	}
	if one, ok := l.Timeline("fig21/buf=8/lat=1/load=0.7"); ok || one != nil {
		t.Errorf("Timeline(unknown) = %v, %v; want nil, false", one, ok)
	}
	l.AttachTimeline("fig21/buf=8/lat=1/load=0.5", b) // the latest attach wins
	if s := l.Timelines()["fig21/buf=8/lat=1/load=0.5"]; len(s.Samples) != 0 {
		t.Errorf("replaced series has %d samples, want 0", len(s.Samples))
	}
}

// Registry reads must tolerate concurrent attaches and snapshots of
// timelines that simulating goroutines are feeding (-race coverage for
// the live serving path).
func TestLiveTimelineConcurrent(t *testing.T) {
	var l Live
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
			tl := NewTimeline(2, 8)
			l.AttachTimeline(string(rune('a'+i%8)), tl)
			if tl.Tick() {
				tl.EndInterval(2, 0, 2, 1)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		_ = l.Timelines()
		_ = l.TimelineNames()
	}
	close(done)
	wg.Wait()
}

// When the pool resizes between experiments (different Workers option),
// labels of retired workers must not linger: each worker clears its
// entry on exit, so a later snapshot lists only the live pool.
func TestProgressWorkerLifecycleAfterResize(t *testing.T) {
	var p Live
	// First experiment: a 4-worker pool.
	for w := 0; w < 4; w++ {
		p.SetWorker(fmt.Sprintf("fig21/w%d", w), fmt.Sprintf("fig21/point=%d", w))
	}
	if got := len(p.Progress().Workers); got != 4 {
		t.Fatalf("4-worker pool publishes %d entries", got)
	}
	// Pool drains: every worker clears its label on exit.
	for w := 0; w < 4; w++ {
		p.SetWorker(fmt.Sprintf("fig21/w%d", w), "")
	}
	if got := p.Progress().Workers; len(got) != 0 {
		t.Fatalf("drained pool leaves stale entries: %+v", got)
	}
	// Second experiment resizes to 2 workers under a different prefix;
	// only those two may appear.
	for w := 0; w < 2; w++ {
		p.SetWorker(fmt.Sprintf("fig22/w%d", w), "fig22/point=0")
	}
	s := p.Progress()
	if len(s.Workers) != 2 {
		t.Fatalf("2-worker pool publishes %d entries: %+v", len(s.Workers), s.Workers)
	}
	for _, ws := range s.Workers {
		if strings.HasPrefix(ws.Worker, "fig21/") {
			t.Errorf("stale fig21 worker %q survived the resize", ws.Worker)
		}
	}
	// Clearing a never-registered worker is a harmless no-op.
	p.SetWorker("fig22/w9", "")
	if got := len(p.Progress().Workers); got != 2 {
		t.Errorf("no-op clear changed the ledger to %d entries", got)
	}
}
