package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Latency stages of the per-packet decomposition. Every retired packet's
// end-to-end latency is split exactly into these components (they sum to
// the packet's total latency, cycle for cycle):
//
//   - StageSrcQueue: birth to head-flit injection — time spent in the
//     terminal's source queue behind earlier packets and source credits.
//   - StageQueueWait: per-hop time the head flit sat buffered behind
//     predecessor packets before route computation began.
//   - StageRouteComp: route-computation cycles beyond the pipelined
//     minimum (an RC delay of d costs d-1 stall cycles per hop).
//   - StageVCAlloc: head-of-VC cycles waiting for a free output VC.
//   - StageSAStall: cycles a VC-allocated head lost switch arbitration
//     (input-port or output-port contention).
//   - StageCreditStall: cycles a VC-allocated head was blocked on
//     exhausted downstream credits — buffer backpressure.
//   - StageTraversal: channel flight time (link plus router pipeline
//     latency) including the egress pipeline and host link.
//   - StageSerialization: tail-behind-head time after the head ejects —
//     the wormhole body draining through the network, including any
//     body-flit stalls at upstream hops.
const (
	StageSrcQueue = iota
	StageQueueWait
	StageRouteComp
	StageVCAlloc
	StageSAStall
	StageCreditStall
	StageTraversal
	StageSerialization
	NumStages
)

// StageNames maps stage indices to their JSON/metric names.
var StageNames = [NumStages]string{
	"src_queue", "queue_wait", "route_comp", "vc_alloc",
	"sa_stall", "credit_stall", "traversal", "serialization",
}

// RouterAttrib is one router's congestion-attribution counters. The
// stall counters are cycles *suffered at* the router by head flits being
// decomposed; Blamed is cycles of credit stall the router *caused*
// elsewhere by withholding credits (charged to the downstream router the
// stalled VC was waiting on), so a hot Blamed identifies the bottleneck
// rather than its victims.
type RouterAttrib struct {
	QueueWait   int64 `json:"queue_wait"`
	RouteComp   int64 `json:"route_comp"`
	VCAlloc     int64 `json:"vc_alloc"`
	SAStall     int64 `json:"sa_stall"`
	CreditStall int64 `json:"credit_stall"`
	Blamed      int64 `json:"blamed"`
}

// Attribution accumulates the per-stage latency decomposition for one
// simulation run: fixed-memory per-stage histograms over measured
// packets, plus per-router and per-channel blame counters (which count
// every stall cycle, warmup and drain included, like the probe's
// counters). All memory is allocated at construction; recording never
// allocates.
type Attribution struct {
	// Packets counts the measured packets decomposed (each contributes
	// one sample to every stage histogram).
	Packets int64
	// Stages holds one histogram per stage; Stages[i].Sum() over all i
	// equals the total latency of the decomposed packets.
	Stages [NumStages]Histogram
	// Routers holds the per-router stall/blame counters.
	Routers []RouterAttrib
	// ChanBlame counts, per channel, the credit-stall cycles suffered by
	// VCs waiting to place a flit on that channel.
	ChanBlame []int64
}

// NewAttribution returns an attribution collector sized for the given
// router and channel counts.
func NewAttribution(routers, channels int) *Attribution {
	if routers < 0 || channels < 0 {
		panic(fmt.Sprintf("obs: NewAttribution(%d, %d)", routers, channels))
	}
	return &Attribution{
		Routers:   make([]RouterAttrib, routers),
		ChanBlame: make([]int64, channels),
	}
}

// Merge folds o's decomposition into a: stage histograms merge exactly
// (bucket addition) and counters add. Both must be sized for the same
// network. This is the reduction step the sweep engine uses to combine
// per-point attributions after the barrier; merging in ascending point
// order yields byte-identical aggregates for any worker count.
func (a *Attribution) Merge(o *Attribution) error {
	if o == nil {
		return nil
	}
	if len(o.Routers) != len(a.Routers) || len(o.ChanBlame) != len(a.ChanBlame) {
		return fmt.Errorf("obs: merging attribution sized %dx%d into %dx%d routers x channels",
			len(o.Routers), len(o.ChanBlame), len(a.Routers), len(a.ChanBlame))
	}
	a.Packets += o.Packets
	for i := range a.Stages {
		a.Stages[i].Merge(&o.Stages[i])
	}
	for i := range a.Routers {
		r, or := &a.Routers[i], &o.Routers[i]
		r.QueueWait += or.QueueWait
		r.RouteComp += or.RouteComp
		r.VCAlloc += or.VCAlloc
		r.SAStall += or.SAStall
		r.CreditStall += or.CreditStall
		r.Blamed += or.Blamed
	}
	for i := range a.ChanBlame {
		a.ChanBlame[i] += o.ChanBlame[i]
	}
	return nil
}

// TotalCycles returns the summed latency across all stages — equal to
// the total end-to-end latency of the decomposed packets.
func (a *Attribution) TotalCycles() float64 {
	var t float64
	for i := range a.Stages {
		t += a.Stages[i].Sum()
	}
	return t
}

// StageStat is the JSON-ready view of one stage's contribution.
type StageStat struct {
	Stage string `json:"stage"`
	// Share is the stage's fraction of total decomposed latency.
	Share   float64            `json:"share"`
	Latency *HistogramSnapshot `json:"latency"`
}

// AttribRouterRow is the JSON-ready view of one router's counters — one
// row of the heatmap.
type AttribRouterRow struct {
	Router int `json:"router"`
	RouterAttrib
}

// heatmapColumns names the Heatmap matrix columns, in order.
var heatmapColumns = []string{
	"queue_wait", "route_comp", "vc_alloc", "sa_stall", "credit_stall", "blamed",
}

// Heatmap is the per-router stall matrix: Rows[r][c] is router r's
// cycle count for Columns[c]. Rendering it as a color matrix shows at a
// glance which routers suffer which stall and which are blamed.
type Heatmap struct {
	Columns []string  `json:"columns"`
	Rows    [][]int64 `json:"rows"`
}

// BlamedChannel is one channel's credit-stall blame total.
type BlamedChannel struct {
	Channel int   `json:"channel"`
	Blamed  int64 `json:"blamed_cycles"`
}

// AttributionSnapshot is the JSON-ready view of an Attribution: stage
// breakdown with shares, the per-router heatmap, and the most-blamed
// routers and channels.
type AttributionSnapshot struct {
	Packets     int64       `json:"packets"`
	TotalCycles float64     `json:"total_cycles"`
	Stages      []StageStat `json:"stages"`
	Heatmap     *Heatmap    `json:"heatmap,omitempty"`
	// TopBlamed ranks routers by Blamed (the backpressure they caused),
	// keeping only routers with nonzero blame.
	TopBlamed         []AttribRouterRow `json:"top_blamed_routers,omitempty"`
	TopBlamedChannels []BlamedChannel   `json:"top_blamed_channels,omitempty"`
}

// Snapshot materializes the attribution into its JSON-ready form,
// keeping the topN most-blamed routers and channels. Ordering is
// deterministic: ties break on the lower index, so snapshots are
// byte-stable across runs.
func (a *Attribution) Snapshot(topN int) *AttributionSnapshot {
	s := &AttributionSnapshot{
		Packets:     a.Packets,
		TotalCycles: a.TotalCycles(),
		Stages:      make([]StageStat, NumStages),
	}
	for i := range a.Stages {
		st := StageStat{Stage: StageNames[i], Latency: a.Stages[i].Snapshot()}
		if s.TotalCycles > 0 {
			st.Share = a.Stages[i].Sum() / s.TotalCycles
		}
		s.Stages[i] = st
	}
	if len(a.Routers) > 0 {
		hm := &Heatmap{Columns: heatmapColumns, Rows: make([][]int64, len(a.Routers))}
		for r := range a.Routers {
			c := &a.Routers[r]
			hm.Rows[r] = []int64{c.QueueWait, c.RouteComp, c.VCAlloc, c.SAStall, c.CreditStall, c.Blamed}
		}
		s.Heatmap = hm
	}
	order := make([]int, 0, len(a.Routers))
	for r := range a.Routers {
		if a.Routers[r].Blamed > 0 {
			order = append(order, r)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		bi, bj := a.Routers[order[i]].Blamed, a.Routers[order[j]].Blamed
		if bi != bj {
			return bi > bj
		}
		return order[i] < order[j]
	})
	if topN > len(order) {
		topN = len(order)
	}
	if topN < 0 {
		topN = 0
	}
	for _, r := range order[:topN] {
		s.TopBlamed = append(s.TopBlamed, AttribRouterRow{Router: r, RouterAttrib: a.Routers[r]})
	}
	chOrder := make([]int, 0, len(a.ChanBlame))
	for ci := range a.ChanBlame {
		if a.ChanBlame[ci] > 0 {
			chOrder = append(chOrder, ci)
		}
	}
	sort.Slice(chOrder, func(i, j int) bool {
		bi, bj := a.ChanBlame[chOrder[i]], a.ChanBlame[chOrder[j]]
		if bi != bj {
			return bi > bj
		}
		return chOrder[i] < chOrder[j]
	})
	n := topN
	if n > len(chOrder) {
		n = len(chOrder)
	}
	for _, ci := range chOrder[:n] {
		s.TopBlamedChannels = append(s.TopBlamedChannels, BlamedChannel{Channel: ci, Blamed: a.ChanBlame[ci]})
	}
	return s
}

// CongestionTree describes one backpressure tree found by the root-cause
// analyzer: a congested root router that is withholding credits while
// itself unblocked, and the set of upstream victims transitively stalled
// behind it. A victim waiting on several congested subtrees appears in
// each of their trees.
type CongestionTree struct {
	// Root is the router the tree's credit-stall chains terminate at.
	Root int `json:"root_router"`
	// Depth is the longest victim chain upstream of the root; Width is
	// the widest victim generation.
	Depth int `json:"depth"`
	Width int `json:"width"`
	// Victims counts the distinct routers stalled behind the root;
	// BlockedVCs counts their blocked head-of-VC entries.
	Victims    int `json:"victims"`
	BlockedVCs int `json:"blocked_vcs"`
	// StalledFlits sums the buffered flits held at the root and its
	// victims when the analyzer ran.
	StalledFlits int64 `json:"stalled_flits"`
}

// BackpressureReport is the outcome of one backpressure root-cause walk
// over the instantaneous credit-stall wait-for graph.
type BackpressureReport struct {
	// Cycle is the simulation cycle the analyzer ran at.
	Cycle int64 `json:"cycle"`
	// BlockedVCs counts head-of-VC entries stalled on exhausted
	// downstream credits; BlockedRouters counts routers holding at least
	// one such VC.
	BlockedVCs     int `json:"blocked_vcs"`
	BlockedRouters int `json:"blocked_routers"`
	// Trees are the congestion trees, largest victim count first.
	Trees []CongestionTree `json:"trees,omitempty"`
	// CyclicRouters counts blocked routers whose stall chains never
	// reach an unblocked root — they are part of (or strictly behind) a
	// wait-for cycle, the signature of wormhole deadlock.
	CyclicRouters int `json:"cyclic_routers,omitempty"`
}

// Render formats the report for humans (deadlock dumps, post-mortems).
func (r *BackpressureReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: %d VCs credit-blocked across %d routers", r.Cycle, r.BlockedVCs, r.BlockedRouters)
	if r.CyclicRouters > 0 {
		fmt.Fprintf(&b, " (%d in or behind a wait-for cycle)", r.CyclicRouters)
	}
	for _, t := range r.Trees {
		fmt.Fprintf(&b, "\ncongestion tree rooted at router %d: %d victims (depth %d, width %d), %d blocked VCs, %d flits stalled",
			t.Root, t.Victims, t.Depth, t.Width, t.BlockedVCs, t.StalledFlits)
	}
	if len(r.Trees) == 0 && r.BlockedRouters == 0 {
		return fmt.Sprintf("cycle %d: no credit-blocked VCs", r.Cycle)
	}
	return b.String()
}
