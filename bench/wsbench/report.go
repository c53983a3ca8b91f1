package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric and its unit; BENCHMARK.json gives the
// direction and the bound.
type metricDef struct{ name, unit string }

// endToEndDefs are the end-to-end metrics BENCHMARK.json lists: every
// workload reports each of them, and none is ever 0.
var endToEndDefs = []metricDef{
	{"wall_s", "s"},       // host seconds of the run phase
	{"setup_s", "s"},      // host seconds from exec to the run phase
	{"cpu_s", "s"},        // child user+sys CPU seconds
	{"peak_rss_mb", "MB"}, // child max RSS
	{"alloc_mb", "MB"},    // heap bytes allocated in the run phase
}

// extraDefs are end-to-end metrics BENCHMARK.json cannot list, since a
// listed metric must exist on every workload and never read 0:
// sim_mtcps exists only on the sweeps, and fail_frac is 0 when all is
// well. The report, the results file and -compare carry them.
var extraDefs = []metricDef{
	{"sim_mtcps", "Mtc/s"}, // simulated terminal-cycles (millions) per host second
	{"fail_frac", "frac"},  // failed ops over attempted ops
}

var reportedDefs = append(append([]metricDef(nil), endToEndDefs...), extraDefs...)

// layerDefs are the per-layer metrics of the traced pass. The op, run
// and trace metrics describe the traced workload's own rep; the others
// are layer probes on fixed inputs (see runProbes).
var layerDefs = []metricDef{
	{"op.p50_ms", "ms"},
	{"op.max_ms", "ms"},
	{"op.par_eff", "frac"},
	{"run.cpu_util", "frac"},
	{"trace.overhead_frac", "frac"},
	{"topo.build_ms", "ms"},
	{"sim.build_cold_ms", "ms"},
	{"sim.build_warm_ms", "ms"},
	{"sim.build_alloc_mb", "MB"},
	{"sim.reset_us", "us"},
	{"sim.run_s", "s"},
	{"sim.run_share", "frac"},
	{"sim.ns_per_term_cycle_low", "ns"},
	{"sim.ns_per_term_cycle_sat", "ns"},
	{"sim.ns_per_packet_low", "ns"},
	{"sim.ns_per_packet_sat", "ns"},
	{"sim.cycles_low", "count"},
	{"sim.cycles_sat", "count"},
	{"sim.drain_frac_low", "frac"},
	{"sim.drain_frac_sat", "frac"},
	{"traffic.nersc_ms", "ms"},
	{"mapping.best_8192_ms", "ms"},
	{"mapping.maxload_8192", "count"},
	{"core.max_ports_ms", "ms"},
	{"core.evaluate_8192_ms", "ms"},
	{"obs.overhead_frac", "frac"},
}

// hostShape is the machine a result was measured on.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu,omitempty"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func currentHost() hostShape {
	return hostShape{
		NProc: runtime.NumCPU(), GOMAXPROCS: workers,
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name on Linux, or returns "". Only the
// full run records it: a single-workload run reads nothing outside its
// checkout.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

type metricResult struct {
	Unit string `json:"unit"`
	summary
}

type workloadResult struct {
	Name      string                  `json:"name"`
	Digest    string                  `json:"digest"`
	DigestOK  string                  `json:"digest_ok"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
	Layers    map[string]float64      `json:"layers,omitempty"`
}

// results is what -o writes and -compare reads.
type results struct {
	Host      hostShape        `json:"host"`
	Seed      int64            `json:"seed"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

func collect(sets []*repSet, layers map[string]map[string]float64, pins *baseline, p plan) *results {
	res := &results{Host: currentHost(), Seed: p.seed, Smoke: p.smoke}
	for _, s := range sets {
		wr := workloadResult{Name: s.w.name, Attempted: s.attempted, Failed: s.failed,
			Metrics: map[string]metricResult{}, Layers: layers[s.w.name]}
		wr.Digest, wr.DigestOK = s.digestStatus(pins, p.seed, p.smoke)
		e2e := s.endToEnd()
		for _, d := range reportedDefs {
			if sm, ok := e2e[d.name]; ok {
				wr.Metrics[d.name] = metricResult{Unit: d.unit, summary: sm}
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	return res
}

func writeResults(path string, res *results) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printReport writes the human-readable report: per workload, every
// end-to-end metric with median, quartiles and sample count, the digest
// verdict and failures, then the per-layer metrics and the traced rep's
// self time by span name.
func printReport(w io.Writer, res *results, sets []*repSet) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q %s %s; seed %d\n",
		res.Host.NProc, res.Host.GOMAXPROCS, res.Host.CPU, res.Host.Go, res.Host.Platform, res.Seed)
	for i, wr := range res.Workloads {
		fmt.Fprintf(w, "\n== %s ==\n", wr.Name)
		if len(wr.Metrics["wall_s"].Samples) > 0 {
			fmt.Fprintf(w, "%-13s %-6s %12s %12s %12s %4s %8s\n", "metric", "unit", "median", "q1", "q3", "n", "spread")
			for _, d := range reportedDefs {
				if m, ok := wr.Metrics[d.name]; ok {
					fmt.Fprintf(w, "%-13s %-6s %12.4f %12.4f %12.4f %4d %7.1f%%\n",
						d.name, m.Unit, m.Median, m.Q1, m.Q3, m.N, 100*m.spread())
				}
			}
		}
		fmt.Fprintf(w, "digest %s digest_ok=%s attempted=%d failed=%d\n", wr.Digest, wr.DigestOK, wr.Attempted, wr.Failed)
		for j, pr := range sets[i].problems {
			if j == 5 {
				fmt.Fprintf(w, "  ... %d more\n", len(sets[i].problems)-j)
				break
			}
			fmt.Fprintf(w, "  FAIL %s\n", pr)
		}
		if wr.Layers != nil {
			fmt.Fprintf(w, "per-layer (traced pass):\n")
			for _, d := range layerDefs {
				fmt.Fprintf(w, "  %-27s %-6s %14.4f\n", d.name, d.unit, wr.Layers[d.name])
			}
		}
		if t := sets[i].traced; t != nil {
			printSpans(w, t.Spans)
		}
	}
}

// printSpans writes the traced rep's self time by span name, then every
// op's duration (for experiments, the expt.<id> time).
func printSpans(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type group struct {
		name  string
		n     int
		selfS float64
	}
	groups := map[string]*group{}
	// busy sums every span's self time: the time spent in spans, with
	// the sweep workers' lanes counted side by side.
	var wall, busy float64
	for _, s := range spans {
		key := s.Name
		if s.Op {
			key = "op (own time)"
		} else if s.Parent == 0 {
			wall += float64(s.dur()) / 1e9
		}
		g := groups[key]
		if g == nil {
			g = &group{name: key}
			groups[key] = g
		}
		g.n++
		g.selfS += float64(self[s.ID]) / 1e9
		busy += float64(self[s.ID]) / 1e9
	}
	var gs []*group
	for _, g := range groups {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].selfS > gs[j].selfS })
	fmt.Fprintf(w, "self time by span (traced rep: %.3fs wall, %.3fs in spans):\n", wall, busy)
	for _, g := range gs {
		fmt.Fprintf(w, "  %-24s %4d %10.3fs %6.1f%%\n", g.name, g.n, g.selfS, 100*g.selfS/busy)
	}
	fmt.Fprintf(w, "ops:\n")
	for _, s := range spans {
		if s.Op {
			fmt.Fprintf(w, "  %-24s %10.1f ms\n", s.Name, float64(s.dur())/1e6)
		}
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// lineFor builds the single-workload result: the end-to-end medians, or
// with traced the per-layer metrics.
func lineFor(s *repSet, wr workloadResult, correct, traced bool) resultLine {
	l := resultLine{Correct: correct, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]valueUnit{}}
	if traced {
		for _, d := range layerDefs {
			if v, ok := wr.Layers[d.name]; ok {
				l.Metrics[d.name] = valueUnit{v, d.unit}
			}
		}
		return l
	}
	for _, d := range endToEndDefs {
		if m, ok := wr.Metrics[d.name]; ok && m.N > 0 {
			l.Metrics[d.name] = valueUnit{m.Median, d.unit}
		}
	}
	return l
}
