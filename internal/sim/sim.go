// Package sim is a cycle-level network simulator for switch fabrics built
// from sub-switch chiplets, standing in for the Booksim2 simulator the
// paper uses in Section VI. It models the four-stage router
// microarchitecture of Fig 20 — route computation (RC), virtual-channel
// allocation (VA), switch allocation (SA) and switch traversal (ST) — for
// input-queued routers with credit-based flow control, per-input-port
// shared buffers, configurable per-router route-computation delay (the
// lever behind the paper's proprietary-routing optimization) and
// configurable channel latencies (the lever behind on-wafer vs
// rack-scale link comparisons).
//
// The simulator is synchronous: every cycle delivers channel arrivals,
// advances router pipelines, performs separable round-robin VC and switch
// allocation, and injects terminal traffic. All state lives in flat
// arrays; the steady-state simulation allocates nothing.
package sim

import (
	"fmt"
	"log/slog"
	"math"
)

// Config controls the router microarchitecture and measurement windows.
type Config struct {
	// NumVCs is the number of virtual channels per input port.
	NumVCs int
	// BufPerPort is the shared input buffer per port, in flits, split on
	// demand across its VCs (the paper's shared buffer policy): each input
	// port stores its flits in one pool of BufPerPort slots, whatever
	// NumVCs is. At most 65535 (pool slot indices are 16 bits).
	BufPerPort int
	// PacketFlits is the packet size for synthetic traffic.
	PacketFlits int
	// RCIngress is the route-computation delay in cycles for packets
	// entering from a terminal (ingress sub-switches perform the full
	// IP-table lookup). Zero means 1.
	RCIngress int
	// RCOther is the route-computation delay for packets arriving from
	// other sub-switches. The proprietary-routing optimization of Section
	// VI tags packets with their destination port at the ingress, so
	// non-ingress sub-switches skip the IP lookup and use a lower delay.
	// Zero means 1.
	RCOther int
	// PipeDelay is the additional pipeline depth (VA/SA/ST and internal
	// traversal) added to every hop through a router, modeled as extra
	// latency on the router's output channels.
	PipeDelay int
	// TermDelay is the host-to-ingress (and egress-to-host) channel
	// latency in cycles (the paper's "I/O delay").
	TermDelay int

	WarmupCycles  int
	MeasureCycles int
	// DrainCycles bounds the extra cycles waited for measured packets to
	// finish; running out marks the run saturated. Zero means
	// 10 x MeasureCycles.
	DrainCycles int

	Seed int64

	// Logger, when non-nil, receives structured run events: run start,
	// cycle-window progress (Debug), drain completion and saturation.
	// The steady-state loop checks it once per cycle, not per flit, so a
	// nil Logger costs nothing.
	Logger *slog.Logger
}

func (c Config) validate() error {
	if c.NumVCs < 1 || c.NumVCs > 64 {
		return fmt.Errorf("sim: NumVCs = %d (must be 1..64: VC sets are tracked as 64-bit masks)", c.NumVCs)
	}
	if c.BufPerPort < c.PacketFlits || c.BufPerPort < 1 {
		return fmt.Errorf("sim: BufPerPort = %d must hold at least one packet (%d flits)", c.BufPerPort, c.PacketFlits)
	}
	if c.BufPerPort > 0xffff {
		return fmt.Errorf("sim: BufPerPort = %d (must fit 16 bits: VC queues pack port-local slot indices as head|tail|len words)", c.BufPerPort)
	}
	if c.PacketFlits < 1 {
		return fmt.Errorf("sim: PacketFlits = %d", c.PacketFlits)
	}
	// Delays must fit the simulator's int32 state; the drain need not.
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"RCIngress", c.RCIngress, math.MaxInt32}, {"RCOther", c.RCOther, math.MaxInt32},
		{"PipeDelay", c.PipeDelay, math.MaxInt32}, {"TermDelay", c.TermDelay, math.MaxInt32},
		{"DrainCycles", c.DrainCycles, math.MaxInt},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("sim: %s = %d (must be 0..%d)", f.name, f.v, f.max)
		}
	}
	if c.WarmupCycles < 0 || c.MeasureCycles < 1 {
		return fmt.Errorf("sim: bad measurement window")
	}
	// Run's deadline is WarmupCycles + MeasureCycles + the drain budget
	// in int64 cycles; a sum that wrapped would run no cycle at all and
	// report the empty run as drained. room cannot wrap: both fields are
	// non-negative here.
	room := math.MaxInt64 - int64(c.WarmupCycles) - int64(c.MeasureCycles)
	if room < 0 || int64(c.DrainCycles) > room || c.DrainCycles == 0 && int64(c.MeasureCycles) > room/10 {
		return fmt.Errorf("sim: WarmupCycles (%d) + MeasureCycles (%d) + the drain budget (DrainCycles = %d, or 10 x MeasureCycles when 0) overflows int64 cycles",
			c.WarmupCycles, c.MeasureCycles, c.DrainCycles)
	}
	return nil
}

func atLeast1(d int) int32 {
	if d < 1 {
		return 1
	}
	return int32(d)
}

// VC pipeline states.
const (
	vcIdle uint8 = iota
	vcRouting
	vcVCAlloc
	vcActive
)

// flit is the unit of flow control; packet metadata lives in the packet
// table.
type flit struct {
	pkt  int32
	last bool
}

// Buffered flits are stored packed — bit 0 tail, bits 1.. packet id —
// in the low 32 bits of an input-port pool slot, leaving the slot's high
// bits for its queue link (see the slot-pool fields on Network).
func packFlit(f flit) uint32 {
	w := uint32(f.pkt) << 1
	if f.last {
		w |= 1
	}
	return w
}

func unpackFlit(w uint32) flit {
	return flit{pkt: int32(w >> 1), last: w&1 != 0}
}

// Input-VC pipeline state lives in structure-of-arrays form on Network
// (see build.go): flat parallel arrays indexed by the global VC index
// gv = (router*maxP + port)*V + vc hold the queue state (vcQ, packed
// head|tail|len into the port's slot pool), the pipeline state
// (vcStatus), the RC countdown (vcRCLeft) and the routing decision
// (vcOutPort/vcOutVC). Per input port, two 64-bit masks index the VCs
// worth visiting — inState.busy (non-empty) and inState.pipe (non-empty
// and not yet vcActive, i.e. owed RC or VA work), with portPipeM and
// portReadyM summarizing per router, in ceil(maxP/64) words, the ports
// owed RC/VA work and the ports with a VC ready for switch allocation —
// so the pipeline loops scan set bits instead of re-testing every VC
// and port, whatever the radix. Output-port state is flattened the same
// way (outCredits/outCh/outRRVA plus the outFreeVC free-output-VC
// mask), turning VC allocation into a single mask-and-rotate bit scan.

// Events in flight on a channel are packed words, one per ring slot:
// bit 0 flit valid, bit 1 tail, bit 2 credit present, bits 3..8 the VC
// (NumVCs <= 64), bits 9.. the packet id. A slot's flit and its
// returning credit share the word — flow control admits at most one of
// each per channel per cycle, and a slot is always drained by arrivals
// before the same cycle's producers write it — so a channel visit moves
// one word through the memory system instead of two rings' worth of
// multi-field structs.
const (
	evValid uint64 = 1 << 0
	evLast  uint64 = 1 << 1
	evCred  uint64 = 1 << 2
)

func packEv(pkt int32, last bool, vc int32) uint64 {
	ev := uint64(uint32(pkt))<<9 | uint64(vc)<<3 | evValid
	if last {
		ev |= evLast
	}
	return ev
}

func unpackEv(ev uint64) (f flit, vc int32) {
	return flit{pkt: int32(ev >> 9), last: ev&evLast != 0}, int32(ev>>3) & 63
}

// channel is a fixed-latency link: a ring of packed event slots carrying
// flits toward the destination input port and credits back toward the
// source output port. The ring's storage lives slot-major per latency
// class in the network-wide ringSlab (see the channel-state fields on
// Network); latIdx names the channel's latency class. The struct itself
// holds only cold topology metadata — the hot path reads the flat
// chan* arrays instead.
type channel struct {
	lat                int32
	latIdx             int32
	srcRouter, srcPort int32 // -1,-1 when fed by a terminal source
	srcTerm            int32 // terminal index when terminal-fed, else -1
	dstRouter, dstPort int32
}

// portState is one input port's VC scan state, kept in a single record
// so the allocation loops touch one cache line per port visit: the
// non-empty-VC mask, the owes-RC/VA mask, and the switch allocator's
// rotating VC priority.
type portState struct {
	busy uint64
	pipe uint64
	rr   int32
}

// slotAlloc is one input port's slot-pool allocator: bump counts the
// pool slots handed out since Build, Reset or the port last emptied
// (slots at or above it are unused), and free is the depth of the
// port's LIFO stack of returned slots (see freeSlots on Network). The
// zero value is a fresh pool. Four bytes per port keep the whole
// allocator array cache-resident even on large fabrics, since every
// flit arrival and every forward touches it.
type slotAlloc struct {
	bump, free uint16
}

// chanHot is the per-channel record the arrivals stripe scan reads, in
// stripe order per latency class (classHot): the destination router and
// port a flit is buffered at, and the source router and port a
// returning credit replenishes. srcR is -(term+1) for terminal-fed
// channels (srcP is then unused). Flat indices are recomputed from the
// record (one multiply) — 16-byte records keep the scan's stride a
// power of two.
type chanHot struct {
	dstR, dstP, srcR, srcP int32
}

// packetInfo records one in-flight packet.
type packetInfo struct {
	src, dst int32
	size     int32
	born     int64
}

// Stats is the outcome of one simulation run. The struct is comparable
// (no slices) and JSON-tagged for the wsswitch -json output.
type Stats struct {
	// Offered is the offered load in flits/terminal/cycle.
	Offered float64 `json:"offered"`
	// Accepted is the measured throughput in flits/terminal/cycle.
	Accepted float64 `json:"accepted"`
	// AvgLatency is the mean packet latency (birth to tail ejection) in
	// cycles over packets born in the measurement window.
	AvgLatency float64 `json:"avg_latency"`
	// P50Latency, P99Latency and P999Latency are latency percentiles
	// over the same packets, served from a fixed-memory log-scale
	// histogram (tail behaviour matters for switch buffering decisions).
	P50Latency  float64 `json:"p50_latency"`
	P99Latency  float64 `json:"p99_latency"`
	P999Latency float64 `json:"p999_latency"`
	// Completed is the number of measured packets that finished.
	Completed int `json:"completed"`
	// Drained reports whether all measured packets finished within the
	// drain budget; false indicates the network is saturated.
	Drained bool `json:"drained"`
	// Aborted reports that the early-abort saturation detector (see
	// Network.ArmAbort) skipped the run's drain: the measurement window
	// completed in full — Offered and Accepted are exact — and the run
	// stopped there, at Cycles = WarmupCycles + MeasureCycles, so Drained
	// is false and the latency fields cover only the packets completed
	// in the window, as for a budget-exhausted point. Omitted from JSON
	// when false, so default runs serialize byte-identically.
	Aborted bool `json:"aborted,omitempty"`
	// Cycles is the total simulated cycle count.
	Cycles int64 `json:"cycles"`
}
