// Command benchjson converts `go test -bench` output on stdin into
// machine-readable JSON on stdout, so the performance trajectory of the
// guard benchmarks (ns/op, allocs/op, cycles/op) can be diffed across
// commits. `make bench-json` pipes the simulator guard benchmarks
// through it into BENCH_sim.json.
//
// With -diff FILE it additionally gates the fresh numbers against a
// committed baseline (the previous BENCH_sim.json): any benchmark whose
// ns/op regressed more than -diff-tolerance percent, any benchmark that
// gained allocations or grew B/op beyond tolerance on a zero-alloc
// baseline, and any baseline benchmark missing from the fresh run fail
// the diff — violations go to stderr and the exit status is 1, while
// the fresh JSON still goes to stdout so the caller can inspect (or
// intentionally re-pin) it. A one-line geometric-mean ns/op delta over
// the benchmarks common to both runs is printed to stderr either way,
// so improvements are visible in CI logs, not only regressions.
//
// Several results of one benchmark (`go test -count N`) are reduced to
// one: the median of each metric and of the iteration count, so a pin
// or a gated run need not rest on a single noisy sample.
//
// Input lines it understands (all others pass through to the Ignored
// count):
//
//	goos: linux
//	goarch: amd64
//	pkg: waferswitch/internal/sim
//	cpu: ...
//	BenchmarkSimCycle-8   1234   987.6 ns/op   0 B/op   0 allocs/op
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line: the benchmark name (sub-benchmark
// path included, GOMAXPROCS suffix stripped into Procs) and its metrics
// keyed by unit (ns/op, B/op, allocs/op, and any custom b.ReportMetric
// units such as cycles/op).
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Output is the top-level JSON document.
type Output struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Packages   []string    `json:"packages,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseLine parses one line of benchmark output into b. ok reports
// whether the line was a benchmark result.
func parseLine(line string) (b Benchmark, ok bool) {
	fields := strings.Fields(line)
	// Name, iterations, and at least one "value unit" pair.
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return b, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	b.Procs = 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil && procs > 0 {
			b.Name, b.Procs = name[:i], procs
		}
	}
	if b.Name == "" {
		b.Name = name
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	b.Metrics = make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// parse consumes benchmark output and assembles the JSON document, one
// entry per benchmark (see medians).
func parse(lines *bufio.Scanner) (*Output, error) {
	out := &Output{Benchmarks: []Benchmark{}}
	for lines.Scan() {
		line := lines.Text()
		if b, ok := parseLine(line); ok {
			out.Benchmarks = append(out.Benchmarks, b)
			continue
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			out.Packages = append(out.Packages, strings.TrimPrefix(line, "pkg: "))
		}
	}
	out.Benchmarks = medians(out.Benchmarks)
	return out, lines.Err()
}

// medians reduces the results of each benchmark that ran several times
// (same name and procs) to one, at the position of its first result:
// every metric, and the iteration count, becomes the median over the
// results that report it, the mean of the middle two for an even count.
func medians(bs []Benchmark) []Benchmark {
	type key struct {
		name  string
		procs int
	}
	at := make(map[key]int)
	var runs [][]Benchmark
	for _, b := range bs {
		k := key{b.Name, b.Procs}
		i, ok := at[k]
		if !ok {
			i = len(runs)
			at[k] = i
			runs = append(runs, nil)
		}
		runs[i] = append(runs[i], b)
	}
	out := make([]Benchmark, len(runs))
	for i, rs := range runs {
		iters := make([]float64, len(rs))
		vals := make(map[string][]float64)
		for j, r := range rs {
			iters[j] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				vals[unit] = append(vals[unit], v)
			}
		}
		m := Benchmark{Name: rs[0].Name, Procs: rs[0].Procs,
			Iterations: int64(median(iters)), Metrics: make(map[string]float64, len(vals))}
		for unit, vs := range vals {
			m.Metrics[unit] = median(vs)
		}
		out[i] = m
	}
	return out
}

// median returns the median of vs (which it sorts), the mean of the
// middle two for an even count.
func median(vs []float64) float64 {
	slices.Sort(vs)
	h := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[h]
	}
	return (vs[h-1] + vs[h]) / 2
}

// compare gates fresh benchmark results against a committed baseline and
// returns one violation string per regression:
//
//   - ns/op above baseline by more than tolPct percent (wall-clock
//     regression beyond noise);
//   - allocs/op above zero where the baseline pinned zero (the
//     steady-state 0 allocs/op contract is absolute, not percentage);
//   - allocs/op growth beyond tolPct percent plus an absolute slack on a
//     nonzero baseline — this is the gate that keeps the warm sweep
//     engine honest: a sweep benchmark quietly regaining per-point
//     network construction multiplies its allocation count, which ns/op
//     alone can absorb on a fast machine (the slack covers the
//     legitimate scheduling variance of parallel sweeps, where whether a
//     worker warms a network of its own depends on who wins points);
//   - B/op growth beyond tolPct percent plus a 512-byte absolute slack
//     on a zero-alloc baseline — on those benchmarks B/op is the
//     amortized warmup footprint, which allocs/op (rounded to 0) cannot
//     see, so a leak that grows bytes without tipping the alloc count
//     would otherwise slip through (the slack absorbs iteration-count
//     jitter on small footprints);
//   - a baseline benchmark absent from the fresh run (a silently dropped
//     guard is a gate bypass, not an improvement).
//
// New benchmarks absent from the baseline pass freely — that is how a
// guard gets pinned for the first time.
func compare(base, fresh *Output, tolPct float64) []string {
	byName := make(map[string]Benchmark, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		byName[b.Name] = b
	}
	var violations []string
	for _, old := range base.Benchmarks {
		cur, ok := byName[old.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline but missing from this run", old.Name))
			continue
		}
		if oldNs, ok := old.Metrics["ns/op"]; ok && oldNs > 0 {
			if curNs := cur.Metrics["ns/op"]; curNs > oldNs*(1+tolPct/100) {
				violations = append(violations,
					fmt.Sprintf("%s: ns/op regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
						old.Name, (curNs/oldNs-1)*100, oldNs, curNs, tolPct))
			}
		}
		if oldAllocs, ok := old.Metrics["allocs/op"]; ok {
			curAllocs := cur.Metrics["allocs/op"]
			if oldAllocs == 0 {
				if curAllocs > 0 {
					violations = append(violations,
						fmt.Sprintf("%s: allocs/op went from 0 to %g (zero-alloc contract broken)",
							old.Name, curAllocs))
				}
				oldB := old.Metrics["B/op"]
				if curB := cur.Metrics["B/op"]; curB > oldB*(1+tolPct/100)+bopSlack {
					violations = append(violations,
						fmt.Sprintf("%s: B/op grew %.0f -> %.0f on a zero-alloc baseline (limit %.0f)",
							old.Name, oldB, curB, oldB*(1+tolPct/100)+bopSlack))
				}
			} else if limit := oldAllocs*(1+tolPct/100) + allocSlack; curAllocs > limit {
				violations = append(violations,
					fmt.Sprintf("%s: allocs/op grew %.0f -> %.0f (limit %.0f)",
						old.Name, oldAllocs, curAllocs, limit))
			}
		}
	}
	return violations
}

// bopSlack is the absolute B/op headroom granted on top of the
// percentage tolerance when gating zero-alloc benchmarks: their B/op is
// warmup bytes divided by the iteration count, so short runs jitter by
// tens to hundreds of bytes without any code change.
const bopSlack = 512

// allocSlack is the absolute allocs/op headroom granted on top of the
// percentage tolerance when gating nonzero-alloc benchmarks. Parallel
// sweep benchmarks warm one network per worker that wins at least one
// point, so their allocation count legitimately swings by up to a whole
// network build (~1.5k allocations on the pinned 128-port sweep)
// depending on scheduling; the gate exists to catch the order-of-
// magnitude jump of per-point construction creeping back, not that
// jitter.
const allocSlack = 2048

// geomeanDelta returns the geometric-mean ns/op ratio (fresh over
// baseline) across the benchmarks present in both documents, and how
// many benchmarks that covered. A ratio below 1 is an improvement. ok is
// false when no benchmark overlaps.
func geomeanDelta(base, fresh *Output) (ratio float64, count int, ok bool) {
	byName := make(map[string]Benchmark, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		byName[b.Name] = b
	}
	logSum := 0.0
	for _, old := range base.Benchmarks {
		oldNs, okOld := old.Metrics["ns/op"]
		cur, okCur := byName[old.Name]
		if !okOld || !okCur || oldNs <= 0 {
			continue
		}
		curNs := cur.Metrics["ns/op"]
		if curNs <= 0 {
			continue
		}
		logSum += math.Log(curNs / oldNs)
		count++
	}
	if count == 0 {
		return 0, 0, false
	}
	return math.Exp(logSum / float64(count)), count, true
}

// loadBaseline reads a previously emitted benchjson document.
func loadBaseline(path string) (*Output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := &Output{}
	if err := json.Unmarshal(data, base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

func main() {
	diff := flag.String("diff", "", "baseline JSON `file` (a previous benchjson output) to gate against: exit 1 on ns/op regressions beyond -diff-tolerance, any allocations on zero-alloc baselines, or missing benchmarks")
	diffTol := flag.Float64("diff-tolerance", 15, "ns/op regression tolerance in `percent` for -diff")
	flag.Parse()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	out, err := parse(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	var violations []string
	if *diff != "" {
		base, err := loadBaseline(*diff)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			os.Exit(1)
		}
		violations = compare(base, out, *diffTol)
		if ratio, count, ok := geomeanDelta(base, out); ok {
			fmt.Fprintf(os.Stderr, "benchjson: geomean ns/op %+.1f%% vs %s (%d benchmarks)\n",
				(ratio-1)*100, *diff, count)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "benchjson: regression: %s\n", v)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s\n", len(violations), *diff)
		os.Exit(1)
	}
}
