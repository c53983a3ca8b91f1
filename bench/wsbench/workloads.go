package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"waferswitch/internal/expt"
	"waferswitch/internal/sim"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// workers is the worker count of every sweep and experiment, and the
// GOMAXPROCS each child runs with: the 2-core host the benchmark was
// sized on.
const workers = 2

// outcome is what one rep's run phase produced: a pass/fail verdict per
// op (a sweep point or an experiment), a digest over the simulated or
// tabulated results, and the simulated terminal-cycles behind them.
type outcome struct {
	ops        []string // op names, in digest order
	failed     []string // per op: "" or the first reason it failed
	digest     string
	termCycles int64
}

func newOutcome(ops []string) *outcome {
	return &outcome{ops: ops, failed: make([]string, len(ops))}
}

func (o *outcome) fail(op int, format string, args ...any) {
	if o.failed[op] == "" {
		o.failed[op] = fmt.Sprintf(format, args...)
	}
}

// failures lists "op: reason" for every failed op.
func (o *outcome) failures() []string {
	var out []string
	for i, f := range o.failed {
		if f != "" {
			out = append(out, o.ops[i]+": "+f)
		}
	}
	return out
}

// runFunc is a rep's run phase. tr is nil for untraced reps; root is the
// span the run's own spans nest under.
type runFunc func(tr *tracer, root int) *outcome

// workloadSpec is how a workload runs: a sweep over both fabrics
// (sweepSpec) or a list of experiments (exptSpec).
type workloadSpec interface {
	// ops is the number of ops one rep attempts.
	ops(smoke bool) int
	// setup builds the rep's inputs (the setup_s phase) and returns its
	// run phase.
	setup(seed int64, smoke bool) (runFunc, error)
}

// workload is one set of inputs the benchmark runs. Why each was chosen
// is recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	spec workloadSpec
}

var workloads = []*workload{
	{"lowload", lowload},
	{"saturated", saturated},
	{"figs", figs},
	{"designspace", designspace},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fabric is one simulated switch: the waferscale configuration of the
// paper's Section VI (1-cycle on-wafer links) or the discrete
// switch-network baseline (8-cycle rack-scale links, slower RC and pipe).
type fabric struct {
	name string
	link int
	cfg  sim.Config
}

const (
	closPorts   = 1024
	packetFlits = 4
)

// fabrics returns both fabrics with the given measurement windows.
func fabrics(seed int64, warm, measure, drain int) []fabric {
	base := sim.Config{
		NumVCs: 16, BufPerPort: 32, PacketFlits: packetFlits, TermDelay: 8,
		WarmupCycles: warm, MeasureCycles: measure, DrainCycles: drain, Seed: seed,
	}
	ws, disc := base, base
	ws.RCIngress, ws.RCOther, ws.PipeDelay = 2, 2, 9
	disc.RCIngress, disc.RCOther, disc.PipeDelay = 4, 4, 11
	return []fabric{{"waferscale", 1, ws}, {"discrete", 8, disc}}
}

// simClos is the 1024-port Clos of radix-64 sub-switch chiplets that
// the sweep workloads and the simulator probes run on.
func simClos() (*topo.Topology, error) {
	chip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		return nil, err
	}
	return topo.HomogeneousClos(closPorts, chip)
}

// sweepSpec is a sweep workload: both fabrics over one load grid, with
// a band check over the two series.
type sweepSpec struct {
	loads                []float64
	warm, measure, drain int
	// smoke windows replace warm/measure/drain under -smoke.
	smokeWarm, smokeMeasure, smokeDrain int
	check                               func(o *outcome, ws, disc []sim.Stats)
}

// The sweeps' windows keep a rep to about 2-3 s, so that a 30 s run
// takes its median over ten or more reps. Below the knee a packet's
// latency is under 100 cycles, so 500 warmup cycles reach steady state;
// 3000 measured cycles hold about 38000 packets at load 0.05, so the
// accepted-load band of 2% is about 4 standard deviations wide.
var lowload = sweepSpec{
	loads: []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30},
	warm:  500, measure: 3000, drain: 9000,
	smokeWarm: 200, smokeMeasure: 1000, smokeDrain: 3000,
	check: checkLowload,
}

var saturated = sweepSpec{
	loads: []float64{0.80, 0.95},
	warm:  500, measure: 1000, drain: 3000,
	smokeWarm: 200, smokeMeasure: 300, smokeDrain: 900,
	check: checkSaturated,
}

func (s sweepSpec) ops(bool) int { return 2 * len(s.loads) }

func (s sweepSpec) setup(seed int64, smoke bool) (runFunc, error) {
	cl, err := simClos()
	if err != nil {
		return nil, err
	}
	injf := sim.SyntheticInjector(traffic.Uniform(closPorts), packetFlits)
	warm, measure, drain := s.warm, s.measure, s.drain
	if smoke {
		warm, measure, drain = s.smokeWarm, s.smokeMeasure, s.smokeDrain
	}
	fabs := fabrics(seed, warm, measure, drain)
	// The first Build per fabric computes (or, for the second, shares)
	// the route tables: the cold construction a CLI run pays before its
	// first point. The sweeps' workers then build warm.
	for _, f := range fabs {
		if _, err := sim.Build(cl, sim.ConstantLatency(f.link), f.cfg); err != nil {
			return nil, fmt.Errorf("build %s: %w", f.name, err)
		}
	}
	var names []string
	for _, f := range fabs {
		for _, l := range s.loads {
			names = append(names, fmt.Sprintf("%s load=%g", f.name, l))
		}
	}
	return func(tr *tracer, root int) *outcome {
		o := newOutcome(names)
		series := make([][]sim.Stats, len(fabs))
		for fi, f := range fabs {
			build := func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(f.link), f.cfg) }
			stats, err := sweepStats(tr, root, f.name, build, injf, s.loads)
			if err != nil {
				for i := range s.loads {
					o.fail(fi*len(s.loads)+i, "%v", err)
				}
				continue
			}
			series[fi] = stats
			for _, st := range stats {
				o.termCycles += st.Cycles * closPorts
			}
		}
		tr.do("check", 0, root, func() {
			if series[0] != nil && series[1] != nil {
				s.check(o, series[0], series[1])
			}
			o.digest = digestJSON(map[string][]sim.Stats{fabs[0].name: series[0], fabs[1].name: series[1]})
		})
		return o
	}, nil
}

// sweepStats runs one load sweep with workers goroutines. Untraced (tr
// nil) it calls sim.Sweep, as a library user does. Traced, it drives the
// points with its own loop that mirrors sim.Sweep — each worker builds
// once, then Resets with sim.PointSeed(base, i) before every later point —
// so every point, build, reset and run gets a span; the stats are
// identical either way.
func sweepStats(tr *tracer, parent int, label string, build sim.Builder, injf sim.InjectorFactory, loads []float64) (stats []sim.Stats, err error) {
	defer recoverInto(&err)
	if tr == nil {
		res, err := sim.Sweep(build, injf, loads, sim.SweepOptions{Workers: workers})
		if err != nil {
			return nil, err
		}
		return res.Stats(), nil
	}
	sweep := tr.begin("sweep "+label, 0, parent, false)
	defer tr.end(sweep)
	stats = make([]sim.Stats, len(loads))
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer recoverInto(&errs[w])
			tid := w + 1
			var n *sim.Network
			var base int64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(loads) {
					return
				}
				op := tr.begin(fmt.Sprintf("%s load=%g", label, loads[i]), tid, sweep, true)
				if n == nil {
					tr.do("sim.Build", tid, op, func() { n, errs[w] = build() })
					if errs[w] != nil {
						return
					}
					base = n.BaseSeed()
					n.Reseed(sim.PointSeed(base, i))
				} else {
					tr.do("sim.Reset", tid, op, func() { n.Reset(sim.PointSeed(base, i)) })
				}
				inj, err := injf(loads[i])
				if err != nil {
					errs[w] = err
					return
				}
				tr.do("sim.Run", tid, op, func() { stats[i] = n.Run(inj, loads[i]) })
				tr.end(op)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// checkLowload: below the knee every point drains, accepted load tracks
// offered load within 2%, and the waferscale switch has the lower
// average latency at every load.
func checkLowload(o *outcome, ws, disc []sim.Stats) {
	for fi, series := range [][]sim.Stats{ws, disc} {
		for i, st := range series {
			op := fi*len(ws) + i
			if !st.Drained {
				o.fail(op, "did not drain")
			}
			if st.Offered <= 0 || math.Abs(st.Accepted-st.Offered)/st.Offered > 0.02 {
				o.fail(op, "accepted %.4f not within 2%% of offered %.4f", st.Accepted, st.Offered)
			}
		}
	}
	for i := range ws {
		if ws[i].AvgLatency >= disc[i].AvgLatency {
			o.fail(i, "waferscale latency %.2f not below discrete %.2f", ws[i].AvgLatency, disc[i].AvgLatency)
		}
	}
}

// checkSaturated: past the knee no point drains, and the waferscale
// switch sustains the higher throughput.
func checkSaturated(o *outcome, ws, disc []sim.Stats) {
	for fi, series := range [][]sim.Stats{ws, disc} {
		for i, st := range series {
			if st.Drained {
				o.fail(fi*len(ws)+i, "drained at offered load %.2f", st.Offered)
			}
		}
	}
	if a, b := sim.SaturationThroughput(ws), sim.SaturationThroughput(disc); a <= b {
		o.fail(0, "waferscale saturation %.4f not above discrete %.4f", a, b)
	}
}

// exptSpec is an experiment workload: expt.Run of each id with fixed
// options, every table JSON-encoded as `wsswitch -json` does.
type exptSpec struct {
	ids, smokeIDs []string
	opts          expt.Options
	// unseeded runs at expt's default seed whatever the benchmark's seed.
	unseeded bool
}

// figs leaves out fig23, which takes about 5 s of a 10 s rep on its own,
// so that a 30 s run holds several reps; fig22 and fig24 already sweep
// both fabrics on the same network.
var figs = exptSpec{
	ids:      []string{"fig21", "fig22", "fig24", "ext-meshsim", "ext-tail"},
	smokeIDs: []string{"fig21", "fig22", "ext-tail"},
	// wsswitch -quick -json -attribution -timeline 200
	opts: expt.Options{Quick: true, Workers: workers, Probe: true, Attribution: true, TimelineInterval: 200},
}

// designspace's only randomness is Algorithm 1's random starting
// placement, and the start sets how many optimizer passes run: 3 to 6
// on the 8192-port Clos, and about 2x in wall time across seeds 1-12.
// With the seed fed in, wall_s would measure the seed rather than the
// code, so the workload runs at expt's default seed, as
// `wsswitch -quick fig7` does.
var designspace = exptSpec{
	ids:      []string{"fig7", "fig9", "fig19", "fig25", "fig26"},
	smokeIDs: []string{"fig7", "fig9", "fig26"},
	opts:     expt.Options{Quick: true, Workers: workers},
	unseeded: true,
}

func (s exptSpec) idsFor(smoke bool) []string {
	if smoke {
		return s.smokeIDs
	}
	return s.ids
}

func (s exptSpec) ops(smoke bool) int { return len(s.idsFor(smoke)) }

func (s exptSpec) setup(seed int64, smoke bool) (runFunc, error) {
	ids := s.idsFor(smoke)
	opts := s.opts
	if !s.unseeded {
		opts.Seed = seed
	}
	return func(tr *tracer, root int) *outcome {
		o := newOutcome(ids)
		h := sha256.New()
		for i, id := range ids {
			op := tr.begin("expt."+id, 0, root, true)
			var t *expt.Table
			var err error
			tr.do("expt.Run", 0, op, func() { t, err = runExpt(id, opts) })
			var b []byte
			if err == nil {
				tr.do("json.Marshal", 0, op, func() { b, err = json.Marshal(t) })
			}
			tr.end(op)
			if err != nil {
				o.fail(i, "%v", err)
				continue
			}
			h.Write(b)
			h.Write([]byte{'\n'})
			if check := tableChecks[id]; check != nil {
				if err := check(&tableCheck{t: t}); err != nil {
					o.fail(i, "%v", err)
				}
			}
		}
		o.digest = hex.EncodeToString(h.Sum(nil))
		return o
	}, nil
}

func runExpt(id string, o expt.Options) (t *expt.Table, err error) {
	defer recoverInto(&err)
	return expt.Run(id, o)
}

// recoverInto turns a panic into an error, so a panicking op counts as a
// failed op instead of ending the rep.
func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tableCheck reads a rendered table's cells; the first lookup or parse
// failure sticks in err.
type tableCheck struct {
	t   *expt.Table
	err error
}

// row returns the first row whose first cell is key.
func (c *tableCheck) row(key string) []string {
	for _, r := range c.t.Rows {
		if len(r) > 0 && r[0] == key {
			return r
		}
	}
	if c.err == nil {
		c.err = fmt.Errorf("no row %q", key)
	}
	return nil
}

// cell returns column col of row r, or "" (and an error) when absent.
func (c *tableCheck) cell(r []string, col int) string {
	if col < len(r) {
		return r[col]
	}
	if c.err == nil && r != nil {
		c.err = fmt.Errorf("row %v has no column %d", r, col)
	}
	return ""
}

func (c *tableCheck) num(r []string, col int) float64 {
	s := c.cell(r, col)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil && c.err == nil {
		c.err = fmt.Errorf("cell %q: %w", s, err)
	}
	return v
}

// band returns c.err if a lookup failed, else the band error when ok is
// false.
func (c *tableCheck) band(ok bool, format string, args ...any) error {
	if c.err != nil {
		return c.err
	}
	if !ok {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// tableChecks holds each experiment's band: the paper's direction,
// asserted on the table the experiment rendered.
var tableChecks = map[string]func(*tableCheck) error{
	"fig21": func(c *tableCheck) error {
		r := c.row("8")
		a, b := c.num(r, 1), c.num(r, len(r)-1)
		return c.band(a > b, "at buffer 8 the 1-cycle link (%v) does not beat the 10-cycle link (%v)", a, b)
	},
	"fig22": func(c *tableCheck) error {
		base, ok1 := c.t.Attachments["baseline_stats"].([]sim.Stats)
		prop, ok2 := c.t.Attachments["proprietary_stats"].([]sim.Stats)
		if !ok1 || !ok2 {
			return fmt.Errorf("missing baseline/proprietary stats attachments")
		}
		a, b := sim.SaturationThroughput(prop), sim.SaturationThroughput(base)
		return c.band(a >= b, "proprietary saturation %v below baseline %v", a, b)
	},
	"fig24": func(c *tableCheck) error {
		for _, r := range c.t.Rows {
			ws, net := c.num(r, 1), c.num(r, 2)
			if err := c.band(ws >= net, "%s: waferscale saturation %v below network %v", r[0], ws, net); err != nil {
				return err
			}
		}
		return c.band(len(c.t.Rows) > 0, "no rows")
	},
	"ext-meshsim": func(c *tableCheck) error {
		clos, mesh := c.num(c.row("clos"), 3), c.num(c.row("mesh"), 3)
		return c.band(clos > mesh, "clos saturation %v not above mesh %v", clos, mesh)
	},
	"ext-tail": func(c *tableCheck) error {
		ws, disc := c.num(c.row("waferscale"), 3), c.num(c.row("discrete network"), 3)
		return c.band(ws < disc, "waferscale p99 %v not below discrete %v", ws, disc)
	},
	"fig7": func(c *tableCheck) error {
		v := c.cell(c.row("300"), 2)
		return c.band(v == "2048", "Optical I/O at 300 mm is %s, want 2048", v)
	},
	"fig9": func(c *tableCheck) error {
		v := c.cell(c.row("300"), 2)
		return c.band(v == "8192", "Optical I/O at 300 mm is %s, want 8192", v)
	},
	"fig19": func(c *tableCheck) error {
		meets := map[string]string{}
		for _, r := range c.t.Rows {
			if len(r) > 5 && r[1] == "4096" {
				meets[r[0]] = r[5]
			}
		}
		return c.band(meets["128"] == "true" && meets["256"] != "true",
			"at 4096 ports radix-128 meets 200G = %q and radix-256 = %q, want true and not true", meets["128"], meets["256"])
	},
	"fig25": func(c *tableCheck) error {
		v := c.cell(c.row("clos"), 3)
		return c.band(v == "8192", "optimized Clos is %s, want 8192", v)
	},
	"fig26": func(c *tableCheck) error {
		for _, r := range c.t.Rows {
			mapped, phys := c.num(r, 2), c.num(r, 3)
			if err := c.band(mapped >= phys, "%s %s mm: mapped %v below physical %v", r[0], r[1], mapped, phys); err != nil {
				return err
			}
		}
		return c.band(len(c.t.Rows) > 0, "no rows")
	},
}
