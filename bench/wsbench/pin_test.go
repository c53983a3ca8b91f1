package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func writeTestResults(t *testing.T, dir, name string, r *results) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := writeResults(p, r); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPinBaseline(t *testing.T) {
	dir := t.TempDir()
	mk := func(seed int64, digest string, walls ...float64) *results {
		return &results{Seed: seed, Workloads: []workloadResult{{
			Name: "lowload", Digest: digest, DigestOK: "unpinned", Attempted: len(walls),
			Metrics: map[string]metricResult{"wall_s": {Unit: "s", summary: summarize(walls)}},
		}}}
	}
	a := writeTestResults(t, dir, "a.json", mk(1, "d1", 10, 11, 12))
	b := writeTestResults(t, dir, "b.json", mk(1, "d1", 13, 14, 15))
	// A file at another seed adds its digest but none of its timing.
	c := writeTestResults(t, dir, "c.json", mk(2, "d2", 30))
	base, err := pinBaseline([]string{a, c, b})
	if err != nil {
		t.Fatal(err)
	}
	if base.Files != 2 || base.Digests["lowload"]["1"] != "d1" || base.Digests["lowload"]["2"] != "d2" {
		t.Errorf("files %d digests %v", base.Files, base.Digests)
	}
	wall := base.Workloads[0].Metrics["wall_s"]
	if wall.N != 6 || wall.Median != 12.5 || base.Workloads[0].Attempted != 6 {
		t.Errorf("pooled wall_s: %+v, attempted %d", wall.summary, base.Workloads[0].Attempted)
	}
	// The seed-1 files' medians are 11 and 14.
	if got, want := base.Spread["lowload"]["wall_s"], summarize([]float64{11, 14}).spread(); got != want {
		t.Errorf("spread between runs %v, want %v", got, want)
	}
	if base.Workloads[0].Digest != "d1" {
		t.Errorf("baseline digest %q, want the seed-1 digest", base.Workloads[0].Digest)
	}

	conflict := writeTestResults(t, dir, "x.json", mk(1, "other", 10))
	if _, err := pinBaseline([]string{a, conflict}); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("conflicting digests: err = %v", err)
	}
	smoke := mk(1, "d1", 1)
	smoke.Smoke = true
	if _, err := pinBaseline([]string{writeTestResults(t, dir, "s.json", smoke)}); err == nil {
		t.Error("smoke results were pinned")
	}
}

// The embedded baseline parses, and the pinned digests name only known
// workloads.
func TestEmbeddedBaseline(t *testing.T) {
	b, err := loadBaseline()
	if err != nil {
		t.Fatal(err)
	}
	for name := range b.Digests {
		if _, err := lookupWorkload(name); err != nil {
			t.Error(err)
		}
	}
}
