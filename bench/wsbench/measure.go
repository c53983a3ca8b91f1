package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// plan says how many reps to run.
type plan struct {
	seed  int64
	smoke bool
	// budget stops the rounds once the next would likely end past it. At
	// least one round always runs, and with a zero budget only one.
	budget time.Duration
}

// setupPerRep is the number of children that stop after set-up, run
// before each rep. A rep's setup_s sample is the median of their set-up
// times and its own: one set-up takes a few ms, mostly process start,
// and varies by about a quarter from one process to the next. Taking
// them beside each rep samples set-up across the run, as the reps are,
// since the host's speed drifts over tens of seconds.
const setupPerRep = 4

// repSet is one workload's measurements.
type repSet struct {
	w                 *workload
	reps              []*rep    // untraced reps, the end-to-end samples
	setups            []float64 // setup_s samples, one per rep (see setupPerRep)
	attempted, failed int
	problems          []string // failed ops and failed children
	digests           []string // every rep's digest, traced ones too
	traced            *rep
}

// add records a finished rep; a child that failed fails all its ops.
func (s *repSet) add(r *rep, err error, smoke bool) bool {
	if err != nil {
		n := s.w.spec.ops(smoke)
		s.attempted += n
		s.failed += n
		s.problems = append(s.problems, err.Error())
		return false
	}
	s.attempted += r.Ops
	s.failed += len(r.Failures)
	s.problems = append(s.problems, r.Failures...)
	s.digests = append(s.digests, r.Digest)
	return true
}

// measure runs the untraced reps: round by round across the workloads,
// so host drift spreads over all of them, one child at a time.
func measure(ws []*workload, p plan, log io.Writer) []*repSet {
	sets := make([]*repSet, len(ws))
	for i, w := range ws {
		sets[i] = &repSet{w: w}
	}
	start := time.Now()
	for round := 1; ; round++ {
		t0 := time.Now()
		for _, s := range sets {
			var setups []float64
			for j := 0; j < setupPerRep; j++ {
				r, err := spawn(childArgs{name: s.w.name, seed: p.seed, smoke: p.smoke, setupOnly: true})
				if err != nil {
					s.problems = append(s.problems, err.Error())
					continue
				}
				setups = append(setups, r.setupS)
			}
			r, err := spawn(childArgs{name: s.w.name, seed: p.seed, smoke: p.smoke})
			if s.add(r, err, p.smoke) {
				s.reps = append(s.reps, r)
				setups = append(setups, r.setupS)
				fmt.Fprintf(log, "round %d %-11s wall %.3fs setup %.3fs cpu %.3fs rss %.1fMB failed %d/%d\n",
					round, s.w.name, r.wallS(), r.setupS, r.cpuS, r.rssMB, len(r.Failures), r.Ops)
			} else {
				fmt.Fprintf(log, "round %d %-11s %v\n", round, s.w.name, err)
			}
			if len(setups) > 0 {
				s.setups = append(s.setups, median(setups))
			}
		}
		if time.Since(start)+time.Since(t0) > p.budget {
			break
		}
	}
	return sets
}

// endToEnd summarizes the untraced reps' metrics.
func (s *repSet) endToEnd() map[string]summary {
	var wall, cpu, rss, alloc, mtcps []float64
	for _, r := range s.reps {
		wall = append(wall, r.wallS())
		cpu = append(cpu, r.cpuS)
		rss = append(rss, r.rssMB)
		alloc = append(alloc, float64(r.AllocBytes)/1e6)
		if r.TermCycles > 0 {
			mtcps = append(mtcps, float64(r.TermCycles)/1e6/r.wallS())
		}
	}
	m := map[string]summary{
		"wall_s":      summarize(wall),
		"setup_s":     summarize(s.setups),
		"cpu_s":       summarize(cpu),
		"peak_rss_mb": summarize(rss),
		"alloc_mb":    summarize(alloc),
		"fail_frac":   summarize([]float64{s.failFrac()}),
	}
	if len(mtcps) > 0 {
		m["sim_mtcps"] = summarize(mtcps)
	}
	return m
}

func (s *repSet) failFrac() float64 {
	if s.attempted == 0 {
		return 1
	}
	return float64(s.failed) / float64(s.attempted)
}

// tracedPass makes one traced rep per workload, in a fresh child like
// the untraced reps, and runs the layer probes once in a child of their
// own. It returns each workload's per-layer metrics and the spans for
// the Chrome trace.
func tracedPass(sets []*repSet, p plan, log io.Writer) (map[string]map[string]float64, []traceGroup, error) {
	pr, err := spawn(childArgs{name: probesChild, seed: p.seed, smoke: p.smoke})
	if err != nil {
		return nil, nil, err
	}
	layers := map[string]map[string]float64{}
	var groups []traceGroup
	for _, s := range sets {
		r, err := spawn(childArgs{name: s.w.name, seed: p.seed, smoke: p.smoke, traced: true})
		if !s.add(r, err, p.smoke) {
			fmt.Fprintf(log, "traced %-11s %v\n", s.w.name, err)
			continue
		}
		s.traced = r
		fmt.Fprintf(log, "traced %-11s wall %.3fs spans %d\n", s.w.name, r.wallS(), len(r.Spans))
		if len(s.reps) == 0 {
			continue // no untraced rep to take overhead and utilisation against
		}
		e2e := s.endToEnd()
		l := map[string]float64{}
		for k, v := range pr.Probes {
			l[k] = v
		}
		l["op.p50_ms"], l["op.max_ms"], l["op.par_eff"] = opStats(r.Spans, r.wallS())
		wall := e2e["wall_s"].Median
		l["run.cpu_util"] = e2e["cpu_s"].Median / (wall * workers)
		l["trace.overhead_frac"] = r.wallS()/wall - 1
		layers[s.w.name] = l
		groups = append(groups, traceGroup{name: s.w.name, spans: r.Spans})
	}
	return layers, groups, nil
}

// opStats returns the median and slowest op durations in ms, and the
// parallel efficiency: the ops' summed durations over workers times the
// traced run's wall.
func opStats(spans []span, wallS float64) (p50, maxMs, parEff float64) {
	var durs []float64
	var sum float64
	for _, s := range spans {
		if s.Op {
			d := float64(s.dur()) / 1e6
			durs = append(durs, d)
			sum += d
			maxMs = max(maxMs, d)
		}
	}
	return median(durs), maxMs, sum / 1e3 / (workers * wallS)
}

//go:embed baseline.json
var baselineJSON []byte

// baseline is the pinned measurement of the benchmark (see pinBaseline):
// results pooled over several runs at one seed, so -compare can take it
// as the base, plus the digest of every workload at each seed measured.
type baseline struct {
	results
	// Files is the number of results files pooled: those at Seed.
	Files int `json:"files"`
	// Spread maps workload, then metric, to the interquartile spread of
	// the pooled runs' medians, as a share of their median.
	Spread map[string]map[string]float64 `json:"spread_between_runs"`
	// Digests maps workload, then seed, to the digest of its outputs.
	Digests map[string]map[string]string `json:"digests"`
}

func loadBaseline() (*baseline, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return nil, fmt.Errorf("baseline.json: %w", err)
	}
	return &b, nil
}

// digestStatus compares the reps' digests with one another and with the
// pinned digest for this seed: "ok", "unpinned" (no pin for the seed, or
// a smoke run), "mismatch", "nondeterministic" or "none".
func (s *repSet) digestStatus(pins *baseline, seed int64, smoke bool) (string, string) {
	if len(s.digests) == 0 {
		return "", "none"
	}
	d := s.digests[0]
	for _, o := range s.digests[1:] {
		if o != d {
			return d, "nondeterministic"
		}
	}
	pin, ok := pins.Digests[s.w.name][strconv.FormatInt(seed, 10)]
	switch {
	case smoke || !ok:
		return d, "unpinned"
	case pin != d:
		return d, "mismatch"
	}
	return d, "ok"
}

// correct reports whether every op passed and the digests hold.
func (s *repSet) correct(pins *baseline, seed int64, smoke bool) bool {
	_, st := s.digestStatus(pins, seed, smoke)
	return s.failed == 0 && len(s.problems) == 0 && (st == "ok" || st == "unpinned")
}
