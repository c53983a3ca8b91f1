package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or the
// nearest parent that has one.
func loadSpec() (*benchSpec, error) {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json", "../../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or its parents")
}

// verdict classes head against base for one metric. The verdict is
// "unresolved" when either side's interquartile spread exceeds the
// bound, since the noise then hides a change of that size; otherwise
// "worse" or "better" when the medians differ by more than the bound
// times base's median, else "within".
func verdict(base, head summary, bound float64, higherBetter bool) string {
	if base.spread() > bound || head.spread() > bound {
		return "unresolved"
	}
	thr := bound * math.Abs(base.Median)
	d := head.Median - base.Median
	if higherBetter {
		d = -d
	}
	switch {
	case d > thr:
		return "worse"
	case d < -thr:
		return "better"
	}
	return "within"
}

// compareResults prints one row per workload and end-to-end metric and
// reports whether nothing got worse: no metric worse beyond its bound,
// no digest mismatch, no rise in fail_frac.
func compareResults(w io.Writer, base, head *results, spec *benchSpec) bool {
	type bounded struct {
		name         string
		bound        float64
		higherBetter bool
	}
	var ms []bounded
	var wallBound float64
	for _, m := range spec.EndToEnd {
		ms = append(ms, bounded{m.Name, m.Bound, m.Better == "higher"})
		if m.Name == "wall_s" {
			wallBound = m.Bound
		}
	}
	// sim_mtcps, which BENCHMARK.json cannot list (see extraDefs), is the
	// sweeps' simulated terminal-cycles over wall_s, so it takes wall_s's
	// bound.
	ms = append(ms, bounded{"sim_mtcps", wallBound, true})

	heads := map[string]workloadResult{}
	for _, wr := range head.Workloads {
		heads[wr.Name] = wr
	}
	ok := true
	fmt.Fprintf(w, "%-11s %-12s %28s %28s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "verdict")
	for _, b := range base.Workloads {
		h, found := heads[b.Name]
		if !found {
			fmt.Fprintf(w, "%-11s missing from head\n", b.Name)
			ok = false
			continue
		}
		for _, m := range ms {
			bm, ok1 := b.Metrics[m.name]
			hm, ok2 := h.Metrics[m.name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(bm.summary, hm.summary, m.bound, m.higherBetter)
			ok = ok && v != "worse"
			delta := 0.0
			if bm.Median != 0 {
				delta = 100 * (hm.Median/bm.Median - 1)
			}
			fmt.Fprintf(w, "%-11s %-12s %28s %28s %+7.1f%%  %s\n", b.Name, m.name, quart(bm.summary), quart(hm.summary), delta, v)
		}
		bf, hf := b.Metrics["fail_frac"].Median, h.Metrics["fail_frac"].Median
		failV := "within"
		if hf > bf {
			failV, ok = "worse", false
		}
		fmt.Fprintf(w, "%-11s %-12s %28.4f %28.4f %8s  %s\n", b.Name, "fail_frac", bf, hf, "", failV)
		switch {
		case base.Seed != head.Seed || base.Smoke != head.Smoke:
			fmt.Fprintf(w, "%-11s digest       not compared: seeds or scale differ\n", b.Name)
		case b.Digest != h.Digest:
			fmt.Fprintf(w, "%-11s digest       MISMATCH %s vs %s\n", b.Name, b.Digest, h.Digest)
			ok = false
		default:
			fmt.Fprintf(w, "%-11s digest       identical\n", b.Name)
		}
	}
	return ok
}

func quart(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
