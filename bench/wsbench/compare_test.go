package main

import (
	"bytes"
	"strings"
	"testing"
)

func steady(median float64) summary {
	return summary{Median: median, Q1: median * 0.99, Q3: median * 1.01, N: 5}
}

func TestVerdict(t *testing.T) {
	noisy := summary{Median: 10, Q1: 8, Q3: 12, N: 5}
	for _, tc := range []struct {
		name         string
		base, head   summary
		bound        float64
		higherBetter bool
		want         string
	}{
		{"unchanged", steady(10), steady(10), 0.10, false, "within"},
		{"inside bound", steady(10), steady(10.9), 0.10, false, "within"},
		{"slower", steady(10), steady(11.5), 0.10, false, "worse"},
		{"faster", steady(10), steady(8.5), 0.10, false, "better"},
		{"higher is better, dropped", steady(10), steady(8.5), 0.10, true, "worse"},
		{"higher is better, rose", steady(10), steady(11.5), 0.10, true, "better"},
		{"noisy base", noisy, steady(20), 0.10, false, "unresolved"},
		{"noisy head", steady(10), noisy, 0.10, false, "unresolved"},
		{"noise inside a looser bound", noisy, steady(10), 0.50, false, "within"},
	} {
		if got := verdict(tc.base, tc.head, tc.bound, tc.higherBetter); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}}}
	mk := func(wall float64, digest string, failFrac float64) *results {
		return &results{Seed: 1, Workloads: []workloadResult{{
			Name: "lowload", Digest: digest,
			Metrics: map[string]metricResult{
				"wall_s":    {Unit: "s", summary: steady(wall)},
				"fail_frac": {Unit: "frac", summary: summarize([]float64{failFrac})},
			},
		}}}
	}
	for _, tc := range []struct {
		name   string
		head   *results
		ok     bool
		output string
	}{
		{"same", mk(10, "d", 0), true, "identical"},
		{"slower", mk(12, "d", 0), false, "worse"},
		{"digest changed", mk(10, "e", 0), false, "MISMATCH"},
		{"more failures", mk(10, "d", 0.5), false, "worse"},
	} {
		var buf bytes.Buffer
		if ok := compareResults(&buf, mk(10, "d", 0), tc.head, spec); ok != tc.ok || !strings.Contains(buf.String(), tc.output) {
			t.Errorf("%s: ok = %v (want %v), output lacks %q:\n%s", tc.name, ok, tc.ok, tc.output, buf.String())
		}
	}
}

// Bounds come from BENCHMARK.json: the same results compare differently
// under a looser bound.
func TestCompareUsesSpecBounds(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		bounds[m.Name] = m.Bound
	}
	// setup_s, the noisiest metric, has the largest bound.
	for name, b := range bounds {
		if b > bounds["setup_s"] {
			t.Errorf("%s bound %v exceeds setup_s bound %v", name, b, bounds["setup_s"])
		}
	}
	wall := bounds["wall_s"]
	base, head := steady(10), steady(10*(1+wall*1.5))
	if v := verdict(base, head, wall, false); v != "worse" {
		t.Errorf("1.5x the wall_s bound: verdict %q, want worse", v)
	}
	if v := verdict(base, head, 2*wall, false); v != "within" {
		t.Errorf("same change under a doubled bound: verdict %q, want within", v)
	}
}
