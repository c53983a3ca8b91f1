package obs

import (
	"fmt"
	"sync"
)

// TimelineSample is one closed sampling interval of a Timeline: the
// additive event counts plus the interval-scoped latency and congestion
// figures. Additive fields (cycle, flit, packet and occupancy integrals)
// merge by addition; P99 and TopUtil are per-window figures that merge by
// maximum, so a merged sample reports the worst window it covers.
type TimelineSample struct {
	// Start is the first simulation cycle of the interval; Cycles is the
	// number of observed cycles it covers (interval length, summed across
	// merged runs).
	Start  int64
	Cycles int64
	// Injected and Ejected count flits entering from and leaving to
	// terminals during the interval — Ejected/Cycles is the accepted
	// throughput of the window.
	Injected int64
	Ejected  int64
	// Retired counts packets whose tail ejected during the interval;
	// LatSum is the sum of their latencies and P99 the nearest-rank 99th
	// percentile over exactly those packets.
	Retired int64
	LatSum  float64
	P99     float64
	// TopUtil is the utilization of the busiest channel during the window
	// (max across merged windows).
	TopUtil float64
	// OccSum is the per-cycle sum of buffered flits across all routers,
	// integrated over the interval; OccSum/Cycles is the mean queue
	// occupancy.
	OccSum int64
}

// merge folds o (covering the same cycle range) into s.
func (s *TimelineSample) merge(o *TimelineSample) {
	s.Cycles += o.Cycles
	s.Injected += o.Injected
	s.Ejected += o.Ejected
	s.Retired += o.Retired
	s.LatSum += o.LatSum
	s.OccSum += o.OccSum
	if o.P99 > s.P99 {
		s.P99 = o.P99
	}
	if o.TopUtil > s.TopUtil {
		s.TopUtil = o.TopUtil
	}
}

// coalesce folds o (the adjacent, later interval) into s, producing one
// sample covering both windows.
func (s *TimelineSample) coalesce(o *TimelineSample) {
	s.merge(o) // same arithmetic; Start stays at the earlier window
}

const defaultTimelineSamples = 256

// Timeline is a fixed-memory time-resolved series of simulation
// intervals. The simulator feeds it per-event hooks (NoteInject,
// NoteEject, NoteRetire) and one Tick per cycle; every Interval cycles
// the open window is closed into a sample. When the sample store fills,
// adjacent samples coalesce pairwise and the interval doubles, so memory
// stays bounded no matter how long the run is while the series always
// spans the whole run at the finest affordable resolution (the classic
// flight-data-recorder compaction).
//
// The per-cycle and per-event paths touch only plain fields of the open
// window and never allocate; the mutex is taken only when a window
// closes and by concurrent readers (Snapshot), so a live HTTP handler
// can stream the series off a running simulation without perturbing it.
type Timeline struct {
	mu sync.Mutex
	// interval is the current cycles-per-sample (baseInterval * 2^k).
	interval     int64
	baseInterval int64
	maxSamples   int
	samples      []TimelineSample // closed windows, capacity maxSamples

	// truncated records that the run feeding this timeline ended early
	// (early-abort saturation detection), so the series covers only a
	// prefix of the nominal run length. Guarded by mu like samples.
	truncated bool

	// Open-window accumulators, owned by the simulating goroutine.
	cur     TimelineSample
	curHist Histogram // latency of packets retired in the open window
}

// NewTimeline returns a sampler closing a window every interval cycles,
// holding at most maxSamples closed windows (rounded up to even;
// <= 0 means the 256-sample default). Total memory is fixed at
// construction.
func NewTimeline(interval, maxSamples int) *Timeline {
	if interval < 1 {
		panic(fmt.Sprintf("obs: NewTimeline interval %d", interval))
	}
	if maxSamples <= 0 {
		maxSamples = defaultTimelineSamples
	}
	if maxSamples%2 != 0 {
		maxSamples++
	}
	return &Timeline{
		interval:     int64(interval),
		baseInterval: int64(interval),
		maxSamples:   maxSamples,
		samples:      make([]TimelineSample, 0, maxSamples),
	}
}

// Interval returns the current cycles-per-sample (grows by doubling as
// the run outlives the sample store).
func (t *Timeline) Interval() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.interval
}

// NoteInject records one flit entering a terminal injection channel.
func (t *Timeline) NoteInject() { t.cur.Injected++ }

// NoteEject records one flit leaving through a terminal sink.
func (t *Timeline) NoteEject() { t.cur.Ejected++ }

// NoteRetire records the latency of a packet whose tail ejected this
// cycle.
func (t *Timeline) NoteRetire(latency float64) { t.curHist.Observe(latency) }

// Tick advances the open window by one cycle, integrating the current
// total buffered-flit occupancy. It returns true when the window is
// complete — the caller must then close it with EndInterval, passing the
// window's busiest-channel flit count.
func (t *Timeline) Tick(queueOcc int64) bool {
	t.cur.Cycles++
	t.cur.OccSum += queueOcc
	return t.cur.Cycles >= t.interval
}

// EndInterval closes the open window: the interval-scoped latency
// figures are materialized from the window histogram, the busiest
// channel's flit count becomes its utilization, and the sample is
// appended (coalescing pairwise and doubling the interval when the
// store is full). maxChanFlits is the highest per-channel flit count the
// caller observed during the window.
func (t *Timeline) EndInterval(maxChanFlits int64) {
	t.EndIntervalSum(maxChanFlits, t.curHist.Sum())
}

// EndIntervalSum is EndInterval with the window's latency sum supplied
// by the caller instead of read from the window histogram. The simulator
// uses it to install a canonical-order float sum (an ascending
// per-router fold), so the window's sum does not depend on the order
// packets retired in.
func (t *Timeline) EndIntervalSum(maxChanFlits int64, latSum float64) {
	if t.cur.Cycles == 0 {
		return
	}
	t.cur.Retired = t.curHist.Count()
	t.cur.LatSum = latSum
	if t.cur.Retired > 0 {
		t.cur.P99 = t.curHist.Percentile(0.99)
	}
	t.cur.TopUtil = float64(maxChanFlits) / float64(t.cur.Cycles)
	t.mu.Lock()
	t.samples = append(t.samples, t.cur)
	if len(t.samples) == t.maxSamples {
		t.compact()
	}
	start := t.samples[len(t.samples)-1].Start + t.samples[len(t.samples)-1].Cycles
	t.mu.Unlock()
	t.cur = TimelineSample{Start: start}
	t.curHist.Reset()
}

// compact halves the series in place — adjacent windows coalesce
// pairwise and the interval doubles — under t.mu.
func (t *Timeline) compact() {
	half := len(t.samples) / 2
	for i := 0; i < half; i++ {
		s := t.samples[2*i]
		s.coalesce(&t.samples[2*i+1])
		t.samples[i] = s
	}
	t.samples = t.samples[:half]
	t.interval *= 2
}

// Finish closes a partial open window at the end of a run (no-op when
// the window is empty), so tail events are not lost.
func (t *Timeline) Finish(maxChanFlits int64) {
	if t.cur.Cycles > 0 {
		t.EndInterval(maxChanFlits)
	}
}

// MarkTruncated flags the series as covering only a prefix of its run —
// the simulator calls it when early-abort saturation detection cuts the
// drain phase short, so downstream readers can tell a short series from
// a short run.
func (t *Timeline) MarkTruncated() {
	t.mu.Lock()
	t.truncated = true
	t.mu.Unlock()
}

// Merge folds o's series into t. Both timelines must start from cycle 0
// with base intervals where one interval divides the other (always true
// for samplers constructed with the same interval, whose intervals only
// ever double); the coarser resolution wins and samples covering the
// same cycle range combine (sums add, per-window maxima take the max).
// This is the reduction step the sweep engine uses to compose per-point
// timelines deterministically: merging in ascending point order yields a
// byte-identical series regardless of worker count.
func (t *Timeline) Merge(o *Timeline) error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	oInterval := o.interval
	oTruncated := o.truncated
	oSamples := append([]TimelineSample(nil), o.samples...)
	o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if oTruncated {
		t.truncated = true
	}
	if len(oSamples) == 0 {
		return nil
	}
	if len(t.samples) == 0 {
		t.interval = oInterval
		if t.baseInterval == 0 {
			t.baseInterval = oInterval
		}
		t.samples = append(t.samples[:0], oSamples...)
		return nil
	}
	big, small := t.interval, oInterval
	if small > big {
		big, small = small, big
	}
	// Coarsening proceeds by interval doubling, so the finer series can
	// only reach the coarser one when the ratio is a power of two. A bare
	// divisibility check would accept ratios like 6/2 = 3 and then
	// silently misalign (2 doubles to 4 and 8, never 6).
	if ratio := big / small; big%small != 0 || ratio&(ratio-1) != 0 {
		return fmt.Errorf("obs: merging timelines with mismatched intervals %d and %d (ratio must be a power of two)", oInterval, t.interval)
	}
	// Coarsen the finer series to the coarser interval.
	for t.interval < oInterval {
		t.compactAny()
	}
	for oInterval < t.interval {
		oSamples, oInterval = coalescePairs(oSamples), oInterval*2
	}
	// Elementwise combine; the longer run's tail carries over unchanged.
	for i, s := range oSamples {
		if i < len(t.samples) {
			t.samples[i].merge(&s)
		} else if len(t.samples) < t.maxSamples {
			t.samples = append(t.samples, s)
		} else {
			t.samples[len(t.samples)-1].merge(&s)
		}
	}
	return nil
}

// compactAny is compact without the fullness precondition (used by Merge
// to coarsen): odd-length series keep their last window as a half-width
// tail.
func (t *Timeline) compactAny() {
	t.samples = coalescePairs(t.samples)
	t.interval *= 2
}

// coalescePairs merges adjacent samples pairwise in place, keeping an
// odd tail sample as-is.
func coalescePairs(s []TimelineSample) []TimelineSample {
	half := len(s) / 2
	for i := 0; i < half; i++ {
		m := s[2*i]
		m.coalesce(&s[2*i+1])
		s[i] = m
	}
	if len(s)%2 != 0 {
		s[half] = s[len(s)-1]
		return s[:half+1]
	}
	return s[:half]
}

// TimelinePoint is the JSON-ready view of one sample, with the derived
// per-window rates materialized.
type TimelinePoint struct {
	Start          int64   `json:"start_cycle"`
	Cycles         int64   `json:"cycles"`
	Injected       int64   `json:"injected_flits"`
	Ejected        int64   `json:"ejected_flits"`
	Retired        int64   `json:"retired_packets"`
	MeanLatency    float64 `json:"mean_latency"`
	P99Latency     float64 `json:"p99_latency"`
	TopChannelUtil float64 `json:"top_channel_util"`
	MeanQueueOcc   float64 `json:"mean_queue_occ"`
}

// TimelineSnapshot is the JSON-ready view of a timeline series.
type TimelineSnapshot struct {
	// Interval is the cycles-per-sample resolution of the series.
	Interval int64           `json:"interval"`
	Samples  []TimelinePoint `json:"samples,omitempty"`
	// Truncated reports that at least one run feeding the series aborted
	// early (saturation detected), so the series covers a prefix of the
	// nominal run length. Omitted when false, keeping default-run JSON
	// byte-identical.
	Truncated bool `json:"truncated,omitempty"`
}

// Snapshot materializes the closed windows into their JSON-ready form.
// It is safe to call concurrently with a simulation feeding the
// timeline: the open window is excluded and closed windows are copied
// under the lock.
func (t *Timeline) Snapshot() *TimelineSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &TimelineSnapshot{Interval: t.interval, Truncated: t.truncated}
	for _, w := range t.samples {
		p := TimelinePoint{
			Start:          w.Start,
			Cycles:         w.Cycles,
			Injected:       w.Injected,
			Ejected:        w.Ejected,
			Retired:        w.Retired,
			P99Latency:     w.P99,
			TopChannelUtil: w.TopUtil,
		}
		if w.Retired > 0 {
			p.MeanLatency = w.LatSum / float64(w.Retired)
		}
		if w.Cycles > 0 {
			p.MeanQueueOcc = float64(w.OccSum) / float64(w.Cycles)
		}
		s.Samples = append(s.Samples, p)
	}
	return s
}
