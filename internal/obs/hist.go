// Package obs is the observability substrate for the cycle-level
// simulator: fixed-memory latency histograms, per-router and per-channel
// counter collectors, and JSON-ready snapshots of both. The package sits
// below internal/sim (it imports nothing from this repo) so the simulator
// can embed a histogram and accept a collector without an import cycle.
//
// Everything here is designed for the simulator's steady-state loop:
// observing a sample or bumping a counter never allocates, and the
// histogram's memory is bounded regardless of how many packets a
// saturated run completes (the previous per-packet latency slice grew
// without bound at saturation).
package obs

import "math/bits"

// Histogram bucketing: a linear region for small values followed by
// log-scale octaves with histSub sub-buckets each, the classic
// HDR-histogram layout. With 32 sub-buckets per octave the relative
// quantization error is at most 1/32 ≈ 3.1%, and values below 64 cycles
// (zero-load latencies) are recorded exactly.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// histOctaves bounds the value range at histSub << histOctaves
	// (~2^39 cycles — days of simulated time at 20 ns/cycle).
	histOctaves = 34
	histBuckets = histSub * (histOctaves + 1)
)

// Histogram is a fixed-size log-scale histogram of non-negative integer
// samples (latencies in cycles). The zero value is ready to use; Observe
// never allocates.
type Histogram struct {
	counts   [histBuckets]int64
	n        int64
	sum      float64
	min, max int64
}

// bucketOf maps a sample to its bucket index (monotone in v).
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	idx := e*histSub + int(v>>uint(e))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketLo returns the smallest sample value mapping to bucket idx.
func bucketLo(idx int) int64 {
	if idx < 2*histSub {
		return int64(idx)
	}
	e := idx/histSub - 1
	return int64(idx-e*histSub) << uint(e)
}

// bucketHi returns the largest sample value mapping to bucket idx.
func bucketHi(idx int) int64 {
	if idx >= histBuckets-1 {
		return bucketLo(histBuckets-1) * 2 // open-ended overflow bucket
	}
	return bucketLo(idx+1) - 1
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v float64) {
	iv := int64(v)
	if iv < 0 {
		iv = 0
	}
	if h.n == 0 || iv < h.min {
		h.min = iv
	}
	if iv > h.max {
		h.max = iv
	}
	h.counts[bucketOf(iv)]++
	h.n++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean of recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min and Max return the exact extreme samples (0 when empty).
func (h *Histogram) Min() int64 { return h.min }
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the p-quantile using the same nearest-rank
// convention as a sorted sample slice (rank ceil(p*n)), quantized to the
// lower bound of the containing bucket — at most one bucket (≤3.1%
// relative error) below the exact order statistic, and exact for samples
// under 64.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(p * float64(h.n))
	if float64(rank) < p*float64(h.n) { // ceil
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo := bucketLo(i)
			// Clamp to the observed extremes so single-bucket
			// distributions report exact values.
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return float64(lo)
		}
	}
	return float64(h.max)
}

// Reset clears the histogram for reuse.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// SetSum overrides the accumulated float sum. Observe adds samples in
// arrival order; callers that define a canonical float-addition order
// (the simulator's ascending per-router fold, which the reference
// simulator mirrors) install that sum here, so Equal — which compares
// the full struct including the float sum — holds between the two.
func (h *Histogram) SetSum(sum float64) {
	h.sum = sum
}

// Equal reports whether two histograms observed identical sample
// streams: same bucket counts, count, sum and extremes. Differential
// tests use it to require bit-identical latency distributions from two
// simulator implementations (the sum is a float, so equality holds only
// when both observed the same samples in the same order — exactly the
// determinism contract under test).
func (h *Histogram) Equal(o *Histogram) bool {
	if h == nil || o == nil {
		return h == o
	}
	return *h == *o
}

// Merge folds o's samples into h. Because both histograms share the same
// fixed bucket layout, merging is an exact bucket-count addition: the
// merged histogram is indistinguishable from one that observed the union
// of both sample streams, so percentiles of the merge equal percentiles
// of the union (within the usual ≤3.1% bucket quantization). This is the
// reduction step the parallel sweep engine uses to combine per-worker
// histograms after the barrier.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
}

// HistBucket is one non-empty bucket in a snapshot: all samples in
// [Lo, Hi] with the given count.
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON-ready view of a histogram.
type HistogramSnapshot struct {
	Count   int64        `json:"count"`
	Mean    float64      `json:"mean"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	P50     float64      `json:"p50"`
	P90     float64      `json:"p90"`
	P99     float64      `json:"p99"`
	P999    float64      `json:"p999"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot materializes the non-empty buckets and headline percentiles.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Count: h.n,
		Mean:  h.Mean(),
		Min:   h.min,
		Max:   h.max,
		P50:   h.Percentile(0.50),
		P90:   h.Percentile(0.90),
		P99:   h.Percentile(0.99),
		P999:  h.Percentile(0.999),
	}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Lo: bucketLo(i), Hi: bucketHi(i), Count: c})
		}
	}
	return s
}
