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
// network's state; run it again only after Network.Reset (which the
// sweep engines do internally — each worker builds once and Resets
// between points), or wrap a build with ReusableBuilder for serial
// evaluation loops.
type Builder func() (*Network, error)

// workerNet is one sweep worker's reusable network: built on the
// worker's first point, Reset to pristine for every later point. base
// is the builder's configured seed, captured at build time — Reseed and
// Reset overwrite cfg.Seed, so per-point seeds must always derive from
// the original via PointSeed.
type workerNet struct {
	n    *Network
	base int64
}

// get returns the worker's network ready to run point i: seeded with
// PointSeed(base, i) and otherwise indistinguishable from a fresh
// build.
func (w *workerNet) get(build Builder, i int) (*Network, error) {
	if w.n == nil {
		n, err := build()
		if err != nil {
			return nil, err
		}
		w.n, w.base = n, n.BaseSeed()
		n.Reseed(PointSeed(w.base, i))
		return n, nil
	}
	w.n.Reset(PointSeed(w.base, i))
	return w.n, nil
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

// SweepOptions configures a Sweep.
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
	// keyed "LiveName/load=<load>"; LiveName also names the sweep's
	// worker pool.
	Live     *obs.Live
	LiveName string

	// Abort arms the early-abort saturation detector on every point
	// (see Network.SetAbort). The measurement window always runs to
	// completion, so Offered, Accepted and SaturationThroughput match a
	// full sweep; saturated points skip the drain budget and report
	// Stats.Aborted alongside Drained=false. A point near the knee that a
	// full sweep drains can be cut short too, so Drained and the
	// Summarize figures built on it can differ (DESIGN.md §10.1).
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

// Sweep runs the network at each offered load, fanning points across a
// worker Pool named opt.LiveName ("sweep" when empty). Each worker
// builds one Network on its first point and Resets it between points
// (reseeding with PointSeed), and each point gets its own collector, so
// workers share nothing mutable; build and injf must therefore be safe
// for concurrent use, which the stock builders and injector factories
// are. Results are bit-identical to building fresh per point: Reset
// provably rewinds to the built state, and every point's traffic
// depends only on its PointSeed.
func Sweep(build Builder, injf InjectorFactory, loads []float64, opt SweepOptions) (*SweepResult, error) {
	points := make([]SweepPoint, len(loads))
	colls := make([]*obs.Collector, len(loads))
	hists := make([]obs.Histogram, len(loads))
	tls := make([]*obs.Timeline, len(loads))
	ats := make([]*obs.Attribution, len(loads))

	runPoint := func(w *workerNet, i int) error {
		n, err := w.get(build, i)
		if err != nil {
			return err
		}
		var key string
		if opt.Live != nil {
			key = fmt.Sprintf("%s/load=%g", opt.LiveName, loads[i])
		}
		n.SetAbort(opt.Abort)
		inj, err := injf(loads[i])
		if err != nil {
			return err
		}
		if opt.Probe {
			if err := n.AttachProbe(n.NewProbe()); err != nil {
				return err
			}
		}
		if opt.TimelineInterval > 0 {
			tls[i] = obs.NewTimeline(opt.TimelineInterval, 0)
			n.AttachTimeline(tls[i])
			if opt.Live != nil {
				opt.Live.AttachTimeline(key, tls[i])
			}
		}
		if opt.Attribution {
			ats[i] = n.NewAttribution()
			if err := n.AttachAttribution(ats[i]); err != nil {
				return err
			}
		}
		st := n.Run(inj, loads[i])
		points[i] = SweepPoint{Stats: st}
		if opt.Probe {
			points[i].Probe = n.Snapshot()
			colls[i] = n.probe
		}
		if opt.Attribution {
			points[i].Backpressure = n.Backpressure()
			points[i].PostMortem = n.SaturationPostMortem(st)
			if opt.Live != nil {
				if err := opt.Live.AddAttribution(key, ats[i], points[i].Backpressure); err != nil {
					return err
				}
			}
		}
		hists[i] = n.LatencyHistogram()
		return nil
	}

	// Longest first: a point's run time grows with its offered load, so
	// parallel workers take points in descending load order (ties in
	// index order). Handing out the highest loads last would leave the
	// other workers idle while one finishes the sweep's longest point.
	// Results stay slotted by index, so the order is unobservable.
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(loads[b], loads[a]) })
	name := opt.LiveName
	if name == "" {
		name = "sweep"
	}
	pool := Pool{Workers: opt.Workers, Ctx: opt.Ctx, Live: opt.Live}
	if err := pool.Each(name, len(loads), order, func() func(int) error {
		var wn workerNet
		return func(i int) error { return runPoint(&wn, i) }
	}); err != nil {
		return nil, err
	}

	// Reduction. Always in ascending point order on this goroutine, so
	// the merged result is independent of worker scheduling.
	res := &SweepResult{Points: points}
	var aggHist obs.Histogram
	var agg *obs.Collector
	for i := range loads {
		aggHist.Merge(&hists[i])
		if colls[i] == nil {
			continue
		}
		if agg == nil {
			agg = obs.NewCollector(len(colls[i].Routers), len(colls[i].Channels))
			copy(agg.Meta, colls[i].Meta)
		}
		if err := agg.Merge(colls[i]); err != nil {
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
		for i := range loads {
			if err := aggTL.Merge(tls[i]); err != nil {
				return nil, err
			}
		}
		res.Timeline = aggTL.Snapshot()
	}
	if opt.Attribution && len(loads) > 0 {
		aggAt := obs.NewAttribution(len(ats[0].Routers), len(ats[0].ChanBlame))
		for i := range loads {
			if err := aggAt.Merge(ats[i]); err != nil {
				return nil, err
			}
		}
		res.Attribution = aggAt.Snapshot(8)
	}
	return res, nil
}

// LatencyVsLoad runs the network at each offered load and returns the
// stats per point — the raw data of the paper's load-latency figures
// (Figs 22-24). It is Sweep with one worker and no probe.
func LatencyVsLoad(build Builder, injf InjectorFactory, loads []float64) ([]Stats, error) {
	res, err := Sweep(build, injf, loads, SweepOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return res.Stats(), nil
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

// ZeroLoadLatency runs the network at a near-zero load and returns the
// average packet latency.
func ZeroLoadLatency(build Builder, injf InjectorFactory) (float64, error) {
	n, err := build()
	if err != nil {
		return 0, err
	}
	inj, err := injf(0.01)
	if err != nil {
		return 0, err
	}
	st := n.Run(inj, 0.01)
	if st.Completed == 0 {
		return 0, fmt.Errorf("sim: no packets completed at zero load")
	}
	return st.AvgLatency, nil
}
