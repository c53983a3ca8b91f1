package obs

import (
	"fmt"
	"sort"
)

// RouterCounters accumulates per-router pipeline events. The simulator
// bumps these inline (plain integer increments behind one nil check), so
// enabling a collector costs a few percent of throughput and disabling it
// costs nothing.
type RouterCounters struct {
	// Flits counts flits forwarded through the crossbar (ST stage wins).
	Flits int64
	// VAStalls counts head-of-VC cycles spent waiting for a free output
	// VC (virtual-channel allocation failed).
	VAStalls int64
	// SAStalls counts ready VCs that lost switch allocation because the
	// requested output port was already granted this cycle.
	SAStalls int64
	// CreditStalls counts ready VCs blocked on exhausted downstream
	// credits (buffer backpressure — the paper's buffer-sizing effect).
	CreditStalls int64
	// OccSum is the sum over cycles of flits buffered at the router's
	// input ports; OccSum/Cycles is the mean occupancy.
	OccSum int64
	// OccPeak is the peak buffered-flit count observed in any cycle.
	OccPeak int64
}

// ChannelCounters accumulates per-channel traffic. A channel admits at
// most one flit per cycle, so Flits/Cycles is its utilization.
type ChannelCounters struct {
	Flits int64
}

// ChannelMeta describes a channel's endpoints, filled in by the
// simulator when it sizes a collector. The source router is -1 on
// injection channels.
type ChannelMeta struct {
	SrcRouter, DstRouter int32
	// Terminal is the injecting terminal's index for terminal-fed
	// channels, -1 for inter-router channels.
	Terminal int32
}

// Collector gathers per-router and per-channel counters for one
// simulation run. Attach it to a simulator before running; read it (or
// Snapshot it) afterwards.
type Collector struct {
	// Cycles is the number of simulated cycles observed.
	Cycles int64
	// Injected counts flits placed on terminal injection channels;
	// Ejected counts flits leaving through terminal sinks. Together with
	// the simulator's buffered-flit count they conserve exactly:
	// Injected == Ejected + flits still buffered or in flight.
	Injected int64
	Ejected  int64

	Routers  []RouterCounters
	Channels []ChannelCounters
	// Meta has one entry per channel, filled by the attaching simulator.
	Meta []ChannelMeta
}

// NewCollector returns a collector sized for the given router and
// channel counts.
func NewCollector(routers, channels int) *Collector {
	if routers < 0 || channels < 0 {
		panic(fmt.Sprintf("obs: NewCollector(%d, %d)", routers, channels))
	}
	return &Collector{
		Routers:  make([]RouterCounters, routers),
		Channels: make([]ChannelCounters, channels),
		Meta:     make([]ChannelMeta, channels),
	}
}

// Merge folds o's counters into c: additive counters (flits, stalls,
// cycles, occupancy integrals) add, peaks take the maximum. Both
// collectors must be sized for the same network. Channel metadata is
// kept from c (it is identical by construction when both collectors
// observed the same topology). This is the reduction step the parallel
// sweep engine uses to combine per-worker collectors after the barrier.
func (c *Collector) Merge(o *Collector) error {
	if o == nil {
		return nil
	}
	if len(o.Routers) != len(c.Routers) || len(o.Channels) != len(c.Channels) {
		return fmt.Errorf("obs: merging collector sized %dx%d into %dx%d routers x channels",
			len(o.Routers), len(o.Channels), len(c.Routers), len(c.Channels))
	}
	c.Cycles += o.Cycles
	c.Injected += o.Injected
	c.Ejected += o.Ejected
	for i := range c.Routers {
		r, or := &c.Routers[i], &o.Routers[i]
		r.Flits += or.Flits
		r.VAStalls += or.VAStalls
		r.SAStalls += or.SAStalls
		r.CreditStalls += or.CreditStalls
		r.OccSum += or.OccSum
		if or.OccPeak > r.OccPeak {
			r.OccPeak = or.OccPeak
		}
	}
	for i := range c.Channels {
		c.Channels[i].Flits += o.Channels[i].Flits
	}
	return nil
}

// RouterSnapshot is the JSON-ready view of one router's counters.
type RouterSnapshot struct {
	Router        int     `json:"router"`
	Flits         int64   `json:"flits"`
	VAStalls      int64   `json:"va_stalls"`
	SAStalls      int64   `json:"sa_stalls"`
	CreditStalls  int64   `json:"credit_stalls"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	PeakOccupancy int64   `json:"peak_occupancy"`
}

// ChannelSnapshot is the JSON-ready view of one channel's counters.
type ChannelSnapshot struct {
	Channel     int     `json:"channel"`
	SrcRouter   int     `json:"src_router"`
	DstRouter   int     `json:"dst_router"`
	Terminal    int     `json:"terminal"`
	Flits       int64   `json:"flits"`
	Utilization float64 `json:"utilization"`
}

// Snapshot is the JSON-ready view of one run's probe data. Latency is
// filled in by the simulator (it owns the latency histogram); the rest
// comes from the collector. Channel detail is summarized — mean/max
// utilization plus the hottest channels — because large fabrics have
// thousands of channels.
type Snapshot struct {
	Cycles          int64              `json:"cycles"`
	Injected        int64              `json:"injected_flits"`
	Ejected         int64              `json:"ejected_flits"`
	Latency         *HistogramSnapshot `json:"latency,omitempty"`
	Routers         []RouterSnapshot   `json:"routers,omitempty"`
	ChannelUtilMean float64            `json:"channel_util_mean"`
	ChannelUtilMax  float64            `json:"channel_util_max"`
	HotChannels     []ChannelSnapshot  `json:"hot_channels,omitempty"`
}

// Snapshot materializes the collector into its JSON-ready form, keeping
// the topN busiest channels as HotChannels.
func (c *Collector) Snapshot(topN int) *Snapshot {
	s := &Snapshot{
		Cycles:   c.Cycles,
		Injected: c.Injected,
		Ejected:  c.Ejected,
		Routers:  make([]RouterSnapshot, len(c.Routers)),
	}
	cyc := float64(c.Cycles)
	for i, r := range c.Routers {
		rs := RouterSnapshot{
			Router: i, Flits: r.Flits,
			VAStalls: r.VAStalls, SAStalls: r.SAStalls, CreditStalls: r.CreditStalls,
			PeakOccupancy: r.OccPeak,
		}
		if cyc > 0 {
			rs.MeanOccupancy = float64(r.OccSum) / cyc
		}
		s.Routers[i] = rs
	}
	if len(c.Channels) > 0 && cyc > 0 {
		var sum float64
		order := make([]int, len(c.Channels))
		for i, ch := range c.Channels {
			u := float64(ch.Flits) / cyc
			sum += u
			if u > s.ChannelUtilMax {
				s.ChannelUtilMax = u
			}
			order[i] = i
		}
		s.ChannelUtilMean = sum / float64(len(c.Channels))
		// Order by (flits desc, channel index asc): the index tie-break
		// makes snapshots byte-stable across runs — sort.Slice is not
		// stable, so equal flit counts would otherwise surface in
		// nondeterministic order.
		sort.Slice(order, func(a, b int) bool {
			fa, fb := c.Channels[order[a]].Flits, c.Channels[order[b]].Flits
			if fa != fb {
				return fa > fb
			}
			return order[a] < order[b]
		})
		if topN > len(order) {
			topN = len(order)
		}
		for _, ci := range order[:topN] {
			s.HotChannels = append(s.HotChannels, ChannelSnapshot{
				Channel:     ci,
				SrcRouter:   int(c.Meta[ci].SrcRouter),
				DstRouter:   int(c.Meta[ci].DstRouter),
				Terminal:    int(c.Meta[ci].Terminal),
				Flits:       c.Channels[ci].Flits,
				Utilization: float64(c.Channels[ci].Flits) / cyc,
			})
		}
	}
	return s
}
