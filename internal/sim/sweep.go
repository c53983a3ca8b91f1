package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"waferswitch/internal/obs"
	"waferswitch/internal/traffic"
)

// Builder constructs a network for one run. A Run consumes the
// network's state; run it again only after Network.Reset, which the
// sweep engine does internally: each worker keeps one network and
// Resets it between points of the same series.
type Builder func() (*Network, error)

// workerNet is one sweep worker's warm network: built for the worker's
// first point of a series, Reset to pristine for each later point of
// that series, and dropped for a new build when the worker moves to
// another series. A worker holds one network, not one per series: a
// saturated point leaves its source queues grown, and keeping those of
// every series a worker has visited would hold the heaviest points'
// backlogs at once.
type workerNet struct {
	n      *Network
	series int
}

// get returns the worker's network ready to run point i of series s:
// seeded with PointSeed of the builder's seed and i, and otherwise
// indistinguishable from a fresh build.
func (w *workerNet) get(build Builder, s, i int) (*Network, error) {
	if w.n != nil && w.series == s {
		w.n.Reset(PointSeed(w.n.BaseSeed(), i))
		return w.n, nil
	}
	w.n = nil // let the old network go before building the next
	n, err := build()
	if err != nil {
		return nil, err
	}
	w.n, w.series = n, s
	n.Reseed(PointSeed(n.BaseSeed(), i))
	return n, nil
}

// InjectorFactory builds an injector for a given offered load in
// flits/terminal/cycle.
type InjectorFactory func(load float64) (Injector, error)

// SyntheticInjector returns an InjectorFactory for a synthetic pattern at
// the given packet size.
func SyntheticInjector(p traffic.Pattern, packetFlits int) InjectorFactory {
	return func(load float64) (Injector, error) {
		if !(load > 0 && load <= 1) { // NaN fails both comparisons
			return nil, fmt.Errorf("sim: load %v out of (0,1]", load)
		}
		if packetFlits < 1 {
			return nil, fmt.Errorf("sim: packet size %d flits is below 1", packetFlits)
		}
		return RateInjector{Load: load, Pattern: p, PacketFlits: packetFlits}, nil
	}
}

// TraceInjectorFactory returns an InjectorFactory replaying a trace.
func TraceInjectorFactory(tr *traffic.Trace) InjectorFactory {
	return func(load float64) (Injector, error) {
		return NewTraceInjector(tr, load)
	}
}

// PointSeed derives the RNG seed for sweep point i from the base seed
// the builder configured. The derivation is a plain offset so seeds stay
// human-predictable, point 0 reproduces a single standalone run at the
// base seed, and — because the seed depends only on (base, index), never
// on which worker runs the point — parallel sweeps are bit-identical to
// serial ones.
func PointSeed(base int64, i int) int64 { return base + int64(i) }

// SweepPoint couples one load point's stats with its probe snapshot and
// — with attribution enabled — the congestion diagnosis of a point that
// failed to drain.
type SweepPoint struct {
	Stats Stats         `json:"stats"`
	Probe *obs.Snapshot `json:"probe,omitempty"`
	// Backpressure is the root-cause walk captured at the final cycle of
	// a non-drained point; PostMortem is its human-readable rendering
	// plus the stage breakdown. Both are empty for drained points and
	// without SweepOptions.Attribution, so default JSON is unchanged.
	Backpressure *obs.BackpressureReport `json:"backpressure,omitempty"`
	PostMortem   string                  `json:"post_mortem,omitempty"`
}

// SweepOptions configures a Sweep or Sweeps call; its observers apply
// to every point of every series.
type SweepOptions struct {
	// Workers bounds the goroutines running sweep points (see
	// Pool.Workers); 1 runs serially on the calling goroutine. Results
	// are identical for every value — each point's network is seeded by
	// PointSeed and merged in point order after the barrier.
	Workers int
	// Probe attaches a fresh collector to every point, filling
	// SweepPoint.Probe and SweepResult.Aggregate's counters.
	Probe bool
	// Ctx, when non-nil, is the parent context for the workers' pprof
	// labels (see Pool.Ctx).
	Ctx context.Context

	// TimelineInterval, when positive, attaches a time-resolved sampler
	// to every point (window length in cycles). Per-point series merge in
	// ascending point order into SweepResult.Timeline, so the merged
	// series is byte-identical for any worker count.
	TimelineInterval int
	// Live, when non-nil, is the introspection feed the sweep reports
	// into: the pool's point total, current points and ticks (see
	// Pool.Live), each point's sampler before the point runs, and each
	// completed point's attribution and backpressure report. Points are
	// keyed "<series name>/load=<load>"; LiveName names the worker pool,
	// and is Sweep's series name too.
	Live     *obs.Live
	LiveName string

	// Abort arms the early-abort saturation detector on every point
	// (see Network.ArmAbort). The measurement window always runs to
	// completion, so Offered, Accepted and SaturationThroughput match a
	// full sweep; a point the detector armed skips its whole drain and
	// reports Stats.Aborted alongside Drained=false, and every other
	// point runs exactly as in a full sweep. A point near the knee that
	// a full sweep drains can be armed too, so Drained and the Summarize
	// figures built on it can differ (DESIGN.md §10.1).
	Abort bool

	// Attribution attaches a congestion-attribution collector to every
	// point: per-point attributions merge in ascending point order into
	// SweepResult.Attribution (byte-identical for any worker count), and
	// points that fail to drain carry a backpressure root-cause report
	// and a saturation post-mortem.
	Attribution bool
}

// SweepResult is the outcome of a load sweep: per-point stats (and probe
// snapshots when probing), plus the aggregate observability across all
// points — per-worker histograms and collectors merged after the barrier
// via obs.Histogram.Merge / obs.Collector.Merge.
type SweepResult struct {
	Points []SweepPoint `json:"points"`
	// Aggregate holds the latency distribution over every measured
	// packet of every point, plus summed router/channel counters when
	// probing was enabled.
	Aggregate *obs.Snapshot `json:"aggregate,omitempty"`
	// Timeline is the per-point samplers merged in point order (only with
	// SweepOptions.TimelineInterval set).
	Timeline *obs.TimelineSnapshot `json:"timeline,omitempty"`
	// Attribution is the per-point attribution collectors merged in point
	// order (only with SweepOptions.Attribution set): stage breakdown,
	// per-router heatmap, and the most-blamed routers and channels.
	Attribution *obs.AttributionSnapshot `json:"attribution,omitempty"`
}

// Stats projects the per-point stats out of the result.
func (r *SweepResult) Stats() []Stats {
	out := make([]Stats, len(r.Points))
	for i := range r.Points {
		out[i] = r.Points[i].Stats
	}
	return out
}

// Series is one load sweep of a Sweeps call: Build constructs its
// network, Inject makes its traffic at each of Loads, and Name keys its
// live entries ("<Name>/load=<load>").
type Series struct {
	Name   string
	Build  Builder
	Inject InjectorFactory
	Loads  []float64
}

// Sweep runs the network at each offered load: Sweeps with one series
// named opt.LiveName, on a pool of the same name ("sweep" when empty).
func Sweep(build Builder, injf InjectorFactory, loads []float64, opt SweepOptions) (*SweepResult, error) {
	res, err := Sweeps([]Series{{Name: opt.LiveName, Build: build, Inject: injf, Loads: loads}}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Sweeps runs every point of every series on one worker Pool named
// opt.LiveName ("sweep" when empty), so no worker idles at the end of
// one series while another still has points to run, and returns one
// result per series. Points are handed out longest first: a point's
// run time grows with its offered load, so workers take them in
// descending load, ties in series order and then point order. Each
// worker keeps one warm network (see workerNet) and each point gets its
// own collectors, so workers share nothing mutable; every Build and
// Inject must be safe for concurrent use, which the stock builders and
// injector factories are. A point's result depends only on its series'
// builder and injector, its load and PointSeed, and each series is
// reduced in ascending point order after the barrier, so results are
// bit-identical to building fresh per point, for any worker count and
// any mix of series. With one worker, points run in series order.
func Sweeps(series []Series, opt SweepOptions) ([]*SweepResult, error) {
	type ref struct{ s, i int } // series, point within it
	var refs []ref
	runs := make([]sweepRun, len(series))
	for s, sr := range series {
		runs[s] = sweepRun{points: make([]SweepPoint, len(sr.Loads)), outs: make([]pointOut, len(sr.Loads))}
		for i := range sr.Loads {
			refs = append(refs, ref{s, i})
		}
	}
	load := func(g int) float64 { return series[refs[g].s].Loads[refs[g].i] }
	order := make([]int, len(refs))
	for g := range order {
		order[g] = g
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(load(b), load(a)) })
	name := opt.LiveName
	if name == "" {
		name = "sweep"
	}
	pool := Pool{Workers: opt.Workers, Ctx: opt.Ctx, Live: opt.Live}
	if err := pool.Each(name, len(refs), order, func() func(int) error {
		var wn workerNet
		return func(g int) error {
			r := refs[g]
			return runs[r.s].runPoint(&wn, &series[r.s], r.s, r.i, opt)
		}
	}); err != nil {
		return nil, err
	}
	out := make([]*SweepResult, len(series))
	for s := range runs {
		res, err := runs[s].reduce(opt)
		if err != nil {
			return nil, err
		}
		out[s] = res
	}
	return out, nil
}

// sweepRun holds one series' per-point results. Each slot is written by
// the worker that ran the point and read by reduce after the barrier.
type sweepRun struct {
	points []SweepPoint
	outs   []pointOut
}

// pointOut is what reduce merges of a point besides its SweepPoint.
type pointOut struct {
	coll *obs.Collector
	hist obs.Histogram
	tl   *obs.Timeline
	at   *obs.Attribution
}

// runPoint runs point i of series s (sr) on the worker's network with
// the observers opt asks for, and stores its results in slot i.
func (r *sweepRun) runPoint(w *workerNet, sr *Series, s, i int, opt SweepOptions) error {
	n, err := w.get(sr.Build, s, i)
	if err != nil {
		return err
	}
	load, out := sr.Loads[i], &r.outs[i]
	var key string
	if opt.Live != nil {
		key = fmt.Sprintf("%s/load=%g", sr.Name, load)
	}
	if opt.Abort {
		n.ArmAbort()
	}
	inj, err := sr.Inject(load)
	if err != nil {
		return err
	}
	if opt.Probe {
		out.coll = n.AttachProbe()
	}
	if opt.TimelineInterval > 0 {
		out.tl = obs.NewTimeline(opt.TimelineInterval, 0)
		n.AttachTimeline(out.tl)
		if opt.Live != nil {
			opt.Live.AttachTimeline(key, out.tl)
		}
	}
	if opt.Attribution {
		out.at = n.AttachAttribution()
	}
	st := n.Run(inj, load)
	p := &r.points[i]
	*p = SweepPoint{Stats: st}
	if opt.Probe {
		p.Probe = n.Snapshot()
	}
	if opt.Attribution {
		p.Backpressure = n.Backpressure()
		p.PostMortem = n.SaturationPostMortem(st)
		if opt.Live != nil {
			opt.Live.AddAttribution(key, out.at, p.Backpressure)
		}
	}
	out.hist = n.LatencyHistogram()
	return nil
}

// reduce merges the series' points in ascending point order, so the
// result is independent of worker scheduling.
func (r *sweepRun) reduce(opt SweepOptions) (*SweepResult, error) {
	res := &SweepResult{Points: r.points}
	var aggHist obs.Histogram
	var agg *obs.Collector
	for i := range r.outs {
		out := &r.outs[i]
		aggHist.Merge(&out.hist)
		if out.coll == nil {
			continue
		}
		if agg == nil {
			agg = obs.NewCollector(len(out.coll.Routers), len(out.coll.Channels))
			copy(agg.Meta, out.coll.Meta)
		}
		if err := agg.Merge(out.coll); err != nil {
			return nil, err
		}
	}
	if agg != nil {
		s := agg.Snapshot(8)
		s.Latency = aggHist.Snapshot()
		res.Aggregate = s
	} else if aggHist.Count() > 0 {
		res.Aggregate = &obs.Snapshot{Latency: aggHist.Snapshot()}
	}
	if opt.TimelineInterval > 0 {
		aggTL := obs.NewTimeline(opt.TimelineInterval, 0)
		for i := range r.outs {
			if err := aggTL.Merge(r.outs[i].tl); err != nil {
				return nil, err
			}
		}
		res.Timeline = aggTL.Snapshot()
	}
	if opt.Attribution && len(r.outs) > 0 {
		first := r.outs[0].at
		aggAt := obs.NewAttribution(len(first.Routers), len(first.ChanBlame))
		for i := range r.outs {
			if err := aggAt.Merge(r.outs[i].at); err != nil {
				return nil, err
			}
		}
		res.Attribution = aggAt.Snapshot(8)
	}
	return res, nil
}

// SaturationThroughput extracts the saturation throughput from a load
// sweep: the highest accepted throughput observed (accepted throughput
// plateaus at saturation as offered load keeps rising).
func SaturationThroughput(stats []Stats) float64 {
	max := 0.0
	for _, s := range stats {
		if s.Accepted > max {
			max = s.Accepted
		}
	}
	return max
}

// FirstSaturatedLoad returns the offered load of the first sweep point
// that failed to drain — the knee of the load-latency curve — and
// whether any point saturated at all.
func FirstSaturatedLoad(stats []Stats) (float64, bool) {
	for _, s := range stats {
		if !s.Drained {
			return s.Offered, true
		}
	}
	return 0, false
}

// SweepSummary condenses a load sweep. Latency figures cover only
// Drained points: a saturated run's latency reflects the drain deadline
// (and the unbounded queue behind it), not a steady state, so mixing it
// into summaries poisons them.
type SweepSummary struct {
	// SaturationThroughput is the highest accepted throughput observed.
	SaturationThroughput float64 `json:"saturation_throughput"`
	// Saturated reports whether any point failed to drain;
	// FirstSaturatedLoad is the offered load of the first such point.
	Saturated          bool    `json:"saturated"`
	FirstSaturatedLoad float64 `json:"first_saturated_load,omitempty"`
	// MaxDrainedLatency and MaxDrainedP99 are the worst average and P99
	// latency among drained points (0 when no point drained).
	MaxDrainedLatency float64 `json:"max_drained_latency"`
	MaxDrainedP99     float64 `json:"max_drained_p99"`
	// DrainedPoints counts the sweep points that drained cleanly.
	DrainedPoints int `json:"drained_points"`
}

// Summarize reduces a load sweep to its headline numbers, skipping
// non-drained points' latency.
func Summarize(stats []Stats) SweepSummary {
	sum := SweepSummary{SaturationThroughput: SaturationThroughput(stats)}
	sum.FirstSaturatedLoad, sum.Saturated = FirstSaturatedLoad(stats)
	for _, s := range stats {
		if !s.Drained {
			continue
		}
		sum.DrainedPoints++
		if s.AvgLatency > sum.MaxDrainedLatency {
			sum.MaxDrainedLatency = s.AvgLatency
		}
		if s.P99Latency > sum.MaxDrainedP99 {
			sum.MaxDrainedP99 = s.P99Latency
		}
	}
	return sum
}

// ZeroLoad is the near-zero offered load a zero-load latency is
// measured at.
const ZeroLoad = 0.01

// ZeroLoadLatencyOf returns the average packet latency of a run at
// ZeroLoad, or an error when no packet completed.
func ZeroLoadLatencyOf(st Stats) (float64, error) {
	if st.Completed == 0 {
		return 0, fmt.Errorf("sim: no packets completed at zero load")
	}
	return st.AvgLatency, nil
}
