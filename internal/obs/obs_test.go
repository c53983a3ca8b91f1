package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactPercentile is the nearest-rank order statistic (rank ceil(p*n)),
// the same convention the simulator's percentile helper uses.
func exactPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func TestBucketRoundTrip(t *testing.T) {
	// Every sample must land in a bucket whose [lo, hi] range contains it,
	// and bucket indices must be monotone in the sample value.
	prev := -1
	for v := int64(0); v < 1<<20; v = v*5/4 + 1 {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if lo, hi := bucketLo(idx), bucketHi(idx); v < lo || v > hi {
			t.Errorf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
	}
}

func TestSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := 0; v < 64; v++ {
		h.Observe(float64(v))
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := exactPercentile(sortedSeq(64), p)
		if got := h.Percentile(p); got != want {
			t.Errorf("P%v = %v, want exact %v (values < 64 are unquantized)", p*100, got, want)
		}
	}
}

func sortedSeq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i)
	}
	return s
}

// Histogram percentiles must stay within one bucket (≤3.1% relative
// error, on the low side) of the exact sorted-slice order statistic.
func TestPercentileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-normal-ish latencies: body around 100 cycles, heavy tail.
		v := math.Floor(math.Exp(rng.NormFloat64()*0.9 + 4.6))
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := exactPercentile(vals, p)
		got := h.Percentile(p)
		if got > exact {
			t.Errorf("P%v = %v above exact %v (lower-bound quantization must not overshoot)", p*100, got, exact)
		}
		// One bucket below at most: lo >= exact / (1 + 1/histSub) - 1.
		if min := exact/(1+1.0/histSub) - 1; got < min {
			t.Errorf("P%v = %v more than one bucket below exact %v", p*100, got, exact)
		}
	}
	if h.Count() != 20000 {
		t.Errorf("count = %d, want 20000", h.Count())
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if math.Abs(h.Mean()-mean) > 1e-6 {
		t.Errorf("mean = %v, want exact %v", h.Mean(), mean)
	}
	if h.Min() != int64(vals[0]) || h.Max() != int64(vals[len(vals)-1]) {
		t.Errorf("min/max = %d/%d, want %v/%v", h.Min(), h.Max(), vals[0], vals[len(vals)-1])
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Percentile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(-5) // clamps to 0
	if h.Min() != 0 || h.Percentile(0.5) != 0 {
		t.Errorf("negative sample handling: min=%d p50=%v", h.Min(), h.Percentile(0.5))
	}
	h.Reset()
	h.Observe(1e18) // far past the last bucket: clamps, must not panic
	if h.Count() != 1 {
		t.Errorf("overflow sample lost: count=%d", h.Count())
	}
	h.Reset()
	h.Observe(137)
	if got := h.Percentile(0.999); got != 137 {
		t.Errorf("single-sample P999 = %v, want the sample itself", got)
	}
}

// Observe must not allocate — it runs once per completed packet in the
// simulator's steady-state loop.
func TestObserveNoAllocs(t *testing.T) {
	var h Histogram
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(321) }); avg != 0 {
		t.Errorf("Observe allocates %v allocs/op, want 0", avg)
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := NewCollector(2, 3)
	c.Cycles = 100
	c.Injected, c.Ejected = 50, 48
	c.Routers[0] = RouterCounters{Flits: 40, VAStalls: 5, SAStalls: 3, CreditStalls: 2, OccSum: 600, OccPeak: 12}
	c.Routers[1] = RouterCounters{Flits: 10}
	c.Channels[0].Flits = 40
	c.Channels[1].Flits = 90
	c.Channels[2].Flits = 10
	c.Meta[1] = ChannelMeta{SrcRouter: 0, DstRouter: 1, Terminal: -1}

	s := c.Snapshot(2)
	if s.Routers[0].MeanOccupancy != 6 || s.Routers[0].PeakOccupancy != 12 {
		t.Errorf("router 0 occupancy snapshot wrong: %+v", s.Routers[0])
	}
	if len(s.HotChannels) != 2 || s.HotChannels[0].Channel != 1 {
		t.Errorf("hot channels should lead with channel 1: %+v", s.HotChannels)
	}
	if s.ChannelUtilMax != 0.9 {
		t.Errorf("max util = %v, want 0.9", s.ChannelUtilMax)
	}
	var h Histogram
	h.Observe(10)
	s.Latency = h.Snapshot()

	// The snapshot must be valid JSON with the documented keys.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]interface{}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cycles", "injected_flits", "ejected_flits", "routers", "latency", "hot_channels", "channel_util_mean"} {
		if _, ok := back[key]; !ok {
			t.Errorf("snapshot JSON missing key %q", key)
		}
	}
}

// Snapshots must be byte-stable: equal flit counts break ties by
// channel index, so repeated snapshots of the same counters (and runs
// on different machines) serialize identically.
func TestHotChannelsTieBreak(t *testing.T) {
	c := NewCollector(1, 6)
	c.Cycles = 100
	for i := range c.Channels {
		c.Channels[i].Flits = 50 // all tied
	}
	c.Channels[4].Flits = 80
	want := []int{4, 0, 1, 2, 3}
	var first []byte
	for trial := 0; trial < 20; trial++ {
		s := c.Snapshot(5)
		for i, hc := range s.HotChannels {
			if hc.Channel != want[i] {
				t.Fatalf("trial %d: hot channel order %v at rank %d, want %v", trial, hc.Channel, i, want[i])
			}
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
		} else if string(b) != string(first) {
			t.Fatalf("trial %d: snapshot bytes changed", trial)
		}
	}
}

// Every snapshot that ranks keeps no rows for a negative topN, without
// panicking, and every candidate for a topN past them.
func TestSnapshotTopNBounds(t *testing.T) {
	c := NewCollector(1, 3)
	c.Cycles = 10
	for i := range c.Channels {
		c.Channels[i].Flits = int64(i + 1)
	}
	a := NewAttribution(2, 2)
	a.Routers[1].Blamed = 4
	a.ChanBlame[0] = 2
	for _, tc := range []struct{ topN, want int }{{-1, 0}, {0, 0}, {2, 2}, {9, 3}} {
		if got := len(c.Snapshot(tc.topN).HotChannels); got != tc.want {
			t.Errorf("Collector.Snapshot(%d) has %d hot channels, want %d", tc.topN, got, tc.want)
		}
		s := a.Snapshot(tc.topN)
		if want := min(tc.want, 1); len(s.TopBlamed) != want || len(s.TopBlamedChannels) != want {
			t.Errorf("Attribution.Snapshot(%d) has %d routers and %d channels, want %d each",
				tc.topN, len(s.TopBlamed), len(s.TopBlamedChannels), want)
		}
	}
}
