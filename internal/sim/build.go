package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"waferswitch/internal/obs"
	"waferswitch/internal/topo"
)

// LinkLatency returns the channel latency in cycles between two directly
// connected routers (topology nodes). The waferscale switch uses 1-cycle
// on-wafer hops; the equivalent discrete switch network uses ~8 cycles of
// board/cable latency (Table V / Fig 23). Build refuses a negative
// latency.
type LinkLatency func(a, b int) int

// ConstantLatency returns a LinkLatency of fixed value.
func ConstantLatency(cycles int) LinkLatency {
	return func(a, b int) int { return cycles }
}

// pendingPkt is a generated but not yet fully injected packet: 16
// bytes, so a saturated point's backlog costs two words per packet.
// Whether it is measured follows from born (see Network.inWindow), the
// cycle of the trial that drew it.
type pendingPkt struct {
	dst  int32
	size int32
	born int64
}

// Network is a simulable switch fabric instantiated from a logical
// topology: one router per sub-switch chiplet, one channel pair per lane,
// one terminal per external port.
type Network struct {
	cfg   Config
	R     int   // routers
	V     int   // VCs per input port
	maxP  int   // ports per router (padded)
	T     int   // terminals
	bufPP int32 // cfg.BufPerPort, hot-path copy (slots per input-port pool)

	numPorts []int32
	rcOfIn   []int32 // per input port: RC delay (ingress vs non-ingress)
	// Switch allocation rotates its input priority by the cycle number
	// modulo the router's port count. npVals holds the distinct port
	// counts, npIdx maps each router to its entry, and npRot caches
	// now % count — refreshed once per cycle so busy routers look the
	// rotation up instead of dividing.
	npVals []int32
	npIdx  []int32
	npRot  []int32

	// Input buffers are the paper's shared per-port buffers: input port
	// in = r*maxP+p stores the flits of all its VCs in one pool of
	// BufPerPort slots, slots[in*BufPerPort : (in+1)*BufPerPort], handed
	// out on demand (allocator state in alloc[in], see slotAlloc), so
	// flit storage does not grow with NumVCs. A slot holds a packed flit
	// (see packFlit) in bits 0..31 and, in bits 32..47, the port-local
	// index of the next slot of its VC's FIFO (zero while it is the
	// tail). freeSlots[in*BufPerPort:] is the port's LIFO stack of
	// returned slot indices, alloc[in].free deep: a contiguous array
	// rather than a list threaded through the free slots, so the checker
	// scans it without chasing links. Credit-based flow control bounds a
	// port's buffered flits by BufPerPort, so a push always finds a free
	// slot and the steady-state loop never allocates queue memory.
	slots     []uint64
	freeSlots []uint16
	alloc     []slotAlloc
	// Per-input-VC pipeline state, structure-of-arrays: every array is
	// indexed by the global VC index gv = (r*maxP+p)*V + v. vcQ is the
	// VC's whole FIFO in one word — port-local head slot in bits 32..47,
	// tail slot in bits 16..31, length in bits 0..15 (BufPerPort is
	// validated to fit 16 bits) — so a push or pop touches a single word
	// of queue state.
	vcQ       []uint64
	vcStatus  []uint8
	vcRCLeft  []int32
	vcOutPort []int32
	vcOutVC   []int32
	// vcHead marks that the next flit forwarded from a VC is the head of
	// a freshly VC-allocated packet: set at VA success while a tracer or
	// attribution is attached, cleared at the head's forward. The tracer
	// records the head's traversal from it, attribution closes the hop
	// and charges credit stalls to the head being decomposed.
	vcHead []bool

	// Per-input-port VC scan state (one record at r*maxP+p, see
	// portState): busy is the non-empty VCs, pipe the non-empty VCs not
	// yet in vcActive (owed RC or VA work), rr the switch allocator's
	// rotating VC priority. The RC/VA loop scans pipe, switch allocation
	// scans busy &^ pipe (non-empty and active) — set bits instead of a
	// dense V-iteration with per-VC state tests. Both masks are
	// maintained at the three transition points: queue empty<->non-empty
	// (push/pop), VA success, and tail forward.
	inState []portState
	// The router-level port masks (portPipeM, portReadyM, creditM) hold
	// pw words per router: port p of router r is bit p&63 of word
	// r*pw + p>>6, on every router whatever its radix. portPipeM
	// summarizes the pipe masks: port p's bit is set when input port p
	// has a non-empty pipe mask, so RC/VA scans set bits instead of
	// loading every port's mask.
	// portReadyM is switch allocation's counterpart: port p's bit is set
	// when p holds a VC that is non-empty and active (busy &^ pipe != 0),
	// so SA visits only ports with a grantable VC. It changes at the same
	// transition points as the port masks: a body flit reaching an empty
	// active VC and VA success set it, a forward that empties the VC or
	// sends its tail clears it when nothing else on the port is ready.
	portPipeM  []uint64
	portReadyM []uint64

	// Per-output-port state, structure-of-arrays indexed r*maxP+p:
	// downstream shared-buffer credits, the outgoing channel (-1 for the
	// terminal sink), the VA round-robin pointer, and the free-output-VC
	// mask (bit ov set = output VC ov unowned; VA claims the first set
	// bit at or after outRRVA, tail forward returns the bit).
	outCredits []int32
	outCh      []int32
	outRRVA    []int32
	// creditM mirrors outCredits at router level, in the port-mask
	// layout: output o's bit is set when o has credits. Switch
	// allocation starts its grantable-output mask from these words
	// instead of re-testing every port's credit count; maintained at the
	// two credit transitions (decrement to zero on forward, increment
	// from zero on credit return).
	creditM   []uint64
	outFreeVC []uint64

	// routerOcc[r] is the total buffered flits across r's input ports.
	// The pipeline loops skip routers at zero — at low and mid load most
	// routers are idle most cycles, and an idle router cannot route,
	// allocate, or forward anything.
	routerOcc []int32

	channels []channel

	// Channel event storage, slot-major per latency class: channels are
	// grouped by latency (latVals names the classes), and class k's rings
	// live in ringSlab[classOff[k] : classOff[k]+lat_k*classCnt[k]] laid
	// out slot by slot — slot s of every channel in the class is the
	// contiguous stripe classOff[k] + s*classCnt[k] + chanPos[ci]. All
	// channels of a class mature the same slot each cycle (s = now %
	// lat), so arrivals visits one contiguous stripe per class — exactly
	// the words that can hold deliverable events — and the per-event
	// worklist bookkeeping the old layout needed disappears.
	// classSlotBase[k] (= classOff[k] + (now%lat_k)*classCnt[k]) is
	// refreshed once per cycle; producers index the current stripe
	// through it. classHot[k] mirrors the stripe order with the
	// per-channel fields a delivery touches (one sequential 12-byte
	// record per slot scanned), and feedLP/outLP/termLP give each
	// producer site its channel's packed (stripe position << 31 |
	// latency class) so a ring write computes its slot from one loaded
	// word. chanPos keeps the per-channel-index view for the cold checker
	// scans.
	//
	// ringFlitM and ringCredM are occupancy bitmaps over ringSlab, one
	// bit per slot: bit j of ringFlitM is set while slot j holds a flit,
	// of ringCredM while it holds a credit. Every producer (forward and
	// inject) sets the bit with the word, and arrivals clears both, so
	// arrivals walks the set bits of the stripe's bitmap words instead of
	// loading every slot — below the knee almost every slot is empty.
	ringSlab      []uint64
	ringFlitM     []uint64
	ringCredM     []uint64
	latVals       []int32
	classOff      []int32
	classCnt      []int32
	classSlotBase []int32
	classHot      [][]chanHot
	chanPos       []int32
	feedLP        []int64 // input port -> feeding channel's packed slot, -1 if none
	outLP         []int64 // output port -> outgoing channel's packed slot, -1 for sinks
	termLP        []int64 // terminal -> injection channel's packed slot

	termChIn []int32 // terminal -> its injection channel

	destRouter []int32 // terminal -> hosting router
	// nextFlat[r*R+d] holds router r's candidate output ports toward
	// router d: one indexed load per route computation. The table is
	// shared read-only by every Network built from a structurally
	// identical topology (see routesFor) and survives Reset.
	nextFlat   [][]int32
	egressPort []int32 // terminal -> output port on hosting router

	// Terminal source state. Bit t of srcPendM is set while terminal t's
	// source queue holds a packet (len(srcQ[t]) > srcQHead[t]), so the
	// send pass of inject visits only terminals with something to send.
	// Bit t of srcLagM is set while terminal t has deferred injection
	// trials (see births); genAt[t] is then the cycle of its first
	// undrawn trial, and is not read while the bit is clear.
	srcQ      [][]pendingPkt
	srcPendM  []uint64
	srcLagM   []uint64
	genAt     []int64
	srcQHead  []int32
	srcSent   []int32 // flits of the current packet already injected
	srcCredit []int32
	curPkt    []int32 // packet-table index of the packet being injected
	curVC     []int32 // injection VC of the current packet (pkt % V)

	// Packet table with freelist. pktRoute mirrors pkts: the packet's
	// destination router (low 16 bits) and egress port (high bits),
	// packed at allocation so route computation reads one dense word
	// instead of the 20-byte packetInfo plus two terminal arrays.
	// pktSalt is a per-packet hash of (source terminal, per-terminal
	// sequence number) assigned at allocation: every tie-break that used
	// to key off the packet-table index (adaptive route choice, injection
	// VC) keys off the salt instead, so packet ids are unobservable: any
	// id allocator, the reference simulator's included, yields
	// bit-identical traffic.
	pkts     []packetInfo
	pktRoute []int32
	pktSalt  []uint32
	freePkts []int32

	// termRng holds one private random stream per terminal (see
	// TermRNG): injection draws from termRng[t], so the traffic
	// realization is a pure function of (seed, terminal, draw index),
	// independent of the injection scan order. termSeq counts packets
	// generated per terminal (the salt input).
	// The rand.Rand wrappers are allocated once over termSrc and kept
	// for the network's lifetime; Reseed rewrites the 8-byte source
	// states in place, so reseeding (and Reset) never allocates.
	termSrc []splitmix64
	termRng []*rand.Rand
	termSeq []uint32

	// Scratch for switch allocation, reused across routers.
	saWinner   []int32  // per output port: winning input-VC global index
	saWinnerIn []int32  // per output port: the winner's input port
	saOpen     []uint64 // pw words: outputs still grantable this cycle
	pw         int      // words per router in the port masks: ceil(maxP/64)

	now int64

	// Statistics accumulators (managed by run.go).
	measStart, measEnd int64
	latHist            obs.Histogram // per measured packet, for the mean and percentiles; fixed memory
	completed          int
	measuredBorn       int
	ejectedFlits       int64

	// The attached instruments; Reset detaches them all at once.
	observers
}

// observers holds every instrument a Network can have attached. Each is
// nil-checked on its event sites, so a run without it pays only a
// predicted branch and the steady-state loop stays at 0 allocs/op. Reset
// zeroes the whole struct, so an instrument added here is detached by
// construction (TestResetDetachesEveryObserver).
type observers struct {
	// probe collects per-router/per-channel counters (see probe.go); a
	// timeline attaches it too.
	probe *obs.Collector

	// Verification (see check.go): the invariant checker and the
	// delivery log, which records while non-nil.
	chk        *checker
	deliveries []Delivery

	// ab is the early-abort saturation detector armed by ArmAbort (see
	// abort.go); it is checked once per cycle on the run loop, never on
	// the event sites.
	ab *abortState

	// Time-resolved observability (see observe.go): the timeline sampler,
	// the probe's counters at its last window close, and the
	// packet-lifecycle flight recorder.
	tline  *obs.Timeline
	tlMark timelineMark
	tr     *obs.FlightRecorder

	// at is the congestion attribution's per-packet stage decomposition
	// and blame counters (see attrib.go).
	at *attribState
}

// Build instantiates a simulable network from a logical topology. Every
// lane of every topology link becomes a bidirectional channel pair with
// the latency given by lat (plus the router pipeline depth), and every
// external port becomes a terminal.
func Build(t *topo.Topology, lat LinkLatency, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	R := len(t.Nodes)

	// Assign ports: terminals first, then link lanes.
	numPorts := make([]int32, R)
	for i, n := range t.Nodes {
		numPorts[i] = int32(n.ExternalPorts)
	}
	type lanePort struct{ a, pa, b, pb, lat int }
	var lanes []lanePort
	for _, l := range t.Links {
		for i := 0; i < l.Lanes; i++ {
			d := lat(l.A, l.B)
			if d < 0 {
				return nil, fmt.Errorf("sim: link %d-%d LinkLatency %d must not be negative", l.A, l.B, d)
			}
			if d > math.MaxInt32-cfg.PipeDelay {
				return nil, fmt.Errorf("sim: link %d-%d latency %d plus PipeDelay %d does not fit int32", l.A, l.B, d, cfg.PipeDelay)
			}
			lanes = append(lanes, lanePort{
				a: l.A, pa: int(numPorts[l.A]) + i,
				b: l.B, pb: int(numPorts[l.B]) + i,
				lat: d + cfg.PipeDelay,
			})
		}
		numPorts[l.A] += int32(l.Lanes)
		numPorts[l.B] += int32(l.Lanes)
	}
	maxP := 0
	for _, p := range numPorts {
		if int(p) > maxP {
			maxP = int(p)
		}
	}
	T := t.ExternalPorts()
	if T == 0 {
		return nil, fmt.Errorf("sim: topology %s has no external ports, so no terminals", t.Name)
	}
	pw := bitWords(maxP)

	nVC := R * maxP * cfg.NumVCs
	n := &Network{
		cfg:        cfg,
		R:          R,
		V:          cfg.NumVCs,
		maxP:       maxP,
		pw:         pw,
		T:          T,
		bufPP:      int32(cfg.BufPerPort),
		numPorts:   numPorts,
		rcOfIn:     make([]int32, R*maxP),
		slots:      make([]uint64, R*maxP*cfg.BufPerPort),
		freeSlots:  make([]uint16, R*maxP*cfg.BufPerPort),
		alloc:      make([]slotAlloc, R*maxP),
		vcQ:        make([]uint64, nVC),
		vcStatus:   make([]uint8, nVC),
		vcRCLeft:   make([]int32, nVC),
		vcOutPort:  make([]int32, nVC),
		vcOutVC:    make([]int32, nVC),
		vcHead:     make([]bool, nVC),
		inState:    make([]portState, R*maxP),
		portPipeM:  make([]uint64, R*pw),
		portReadyM: make([]uint64, R*pw),
		creditM:    make([]uint64, R*pw),
		routerOcc:  make([]int32, R),
		outCredits: make([]int32, R*maxP),
		outCh:      make([]int32, R*maxP),
		outRRVA:    make([]int32, R*maxP),
		outFreeVC:  make([]uint64, R*maxP),
		saWinner:   make([]int32, maxP),
		saWinnerIn: make([]int32, maxP),
		saOpen:     make([]uint64, pw),
		termSeq:    make([]uint32, T),
	}
	n.initTermRng(cfg.Seed)
	feedCh := make([]int32, R*maxP) // channel feeding each input port, -1 if none
	for i := range feedCh {
		feedCh[i] = -1
	}
	for i := range n.rcOfIn {
		n.rcOfIn[i] = atLeast1(cfg.RCOther)
	}
	for i := range n.outCh {
		n.outCh[i] = -1
	}

	// Inter-router channels (both directions per lane).
	addChannel := func(srcR, srcP, dstR, dstP, latency int, srcTerm int) int32 {
		if latency < 1 {
			latency = 1
		}
		li := int32(-1)
		for i, lv := range n.latVals {
			if lv == int32(latency) {
				li = int32(i)
				break
			}
		}
		if li < 0 {
			li = int32(len(n.latVals))
			n.latVals = append(n.latVals, int32(latency))
		}
		ci := int32(len(n.channels))
		n.channels = append(n.channels, channel{
			lat:       int32(latency),
			latIdx:    li,
			srcRouter: int32(srcR), srcPort: int32(srcP),
			srcTerm:   int32(srcTerm),
			dstRouter: int32(dstR), dstPort: int32(dstP),
		})
		if dstR >= 0 {
			feedCh[dstR*maxP+dstP] = ci
		}
		if srcR >= 0 {
			n.outCh[srcR*maxP+srcP] = ci
		}
		return ci
	}
	for _, lp := range lanes {
		addChannel(lp.a, lp.pa, lp.b, lp.pb, lp.lat, -1)
		addChannel(lp.b, lp.pb, lp.a, lp.pa, lp.lat, -1)
	}

	// Terminals: port index equals terminal order within its router.
	n.termChIn = make([]int32, T)
	n.destRouter = make([]int32, T)
	n.egressPort = make([]int32, T)
	n.srcQ = make([][]pendingPkt, T)
	n.srcPendM = make([]uint64, bitWords(T))
	n.srcLagM = make([]uint64, bitWords(T))
	n.genAt = make([]int64, T)
	n.srcQHead = make([]int32, T)
	n.srcSent = make([]int32, T)
	n.srcCredit = make([]int32, T)
	n.curPkt = make([]int32, T)
	n.curVC = make([]int32, T)
	term := 0
	for r, node := range t.Nodes {
		for p := 0; p < node.ExternalPorts; p++ {
			n.destRouter[term] = int32(r)
			n.egressPort[term] = int32(p)
			td := cfg.TermDelay
			if td < 1 {
				td = 1
			}
			n.termChIn[term] = addChannel(-1, -1, r, p, td, term)
			n.rcOfIn[r*maxP+p] = atLeast1(cfg.RCIngress)
			// Output port p is the terminal's sink (see initCredits).
			term++
		}
	}
	n.initCredits()

	// Slab pass: group channels by latency class and lay each class's
	// rings out slot-major in the shared slab (see the field docs on
	// Network), publishing the hot per-channel fields as flat arrays.
	nClass := len(n.latVals)
	n.classCnt = make([]int32, nClass)
	for i := range n.channels {
		n.classCnt[n.channels[i].latIdx]++
	}
	n.classOff = make([]int32, nClass)
	n.classSlotBase = make([]int32, nClass)
	n.classHot = make([][]chanHot, nClass)
	var total int64
	for k, lv := range n.latVals {
		n.classOff[k] = int32(total)
		if total += int64(lv) * int64(n.classCnt[k]); total > math.MaxInt32 {
			return nil, fmt.Errorf("sim: channel rings need over %d slots (ring indices are int32)", math.MaxInt32)
		}
		n.classHot[k] = make([]chanHot, 0, n.classCnt[k])
	}
	n.ringSlab = make([]uint64, total)
	n.ringFlitM = make([]uint64, bitWords(int(total)))
	n.ringCredM = make([]uint64, bitWords(int(total)))
	n.chanPos = make([]int32, len(n.channels))
	for i := range n.channels {
		c := &n.channels[i]
		k := c.latIdx
		n.chanPos[i] = int32(len(n.classHot[k]))
		srcR, srcP := c.srcRouter, c.srcPort
		if c.srcTerm >= 0 {
			srcR = -(c.srcTerm + 1)
		}
		n.classHot[k] = append(n.classHot[k], chanHot{
			dstR: c.dstRouter, dstP: c.dstPort,
			srcR: srcR, srcP: srcP,
		})
	}
	lpOf := func(ci int32) int64 {
		return int64(n.chanPos[ci])<<31 | int64(n.channels[ci].latIdx)
	}
	n.feedLP = make([]int64, R*maxP)
	n.outLP = make([]int64, R*maxP)
	for i := range n.feedLP {
		n.feedLP[i], n.outLP[i] = -1, -1
		if ci := feedCh[i]; ci >= 0 {
			n.feedLP[i] = lpOf(ci)
		}
		if ci := n.outCh[i]; ci >= 0 {
			n.outLP[i] = lpOf(ci)
		}
	}
	n.termLP = make([]int64, len(n.termChIn))
	for t, ci := range n.termChIn {
		n.termLP[t] = lpOf(ci)
	}

	// Distinct port counts for the once-per-cycle SA rotation refresh.
	// Portless routers (nothing to allocate, never visited) share entry 0.
	n.npIdx = make([]int32, R)
	for r := 0; r < R; r++ {
		np := n.numPorts[r]
		if np == 0 {
			continue
		}
		j := int32(-1)
		for i, v := range n.npVals {
			if v == np {
				j = int32(i)
				break
			}
		}
		if j < 0 {
			j = int32(len(n.npVals))
			n.npVals = append(n.npVals, np)
		}
		n.npIdx[r] = j
	}
	n.npRot = make([]int32, len(n.npVals))

	next, err := routesFor(t)
	if err != nil {
		return nil, err
	}
	n.nextFlat = next
	return n, nil
}

// BaseSeed returns the seed the network was built with; Reseed and
// Reset leave it as it was.
func (n *Network) BaseSeed() int64 { return n.cfg.Seed }

// Reseed replaces the network's random streams with ones seeded by
// seed. Call it before Run; the sweep engine uses it to give every
// point a seed derived from the base seed and the point index (see
// PointSeed), so parallel and serial sweeps draw identical random
// streams.
func (n *Network) Reseed(seed int64) {
	n.initTermRng(seed)
	for t := range n.termSeq {
		n.termSeq[t] = 0
	}
}

// initTermRng (re)builds the per-terminal random streams for seed. The
// rand.Rand wrappers are created once over the termSrc backing slice;
// subsequent calls only rewrite the source states, so Reseed and Reset
// are allocation-free.
func (n *Network) initTermRng(seed int64) {
	if n.termRng == nil {
		n.termSrc = make([]splitmix64, n.T)
		n.termRng = make([]*rand.Rand, n.T)
		for t := range n.termRng {
			n.termRng[t] = rand.New(&n.termSrc[t])
		}
	}
	for t := range n.termSrc {
		n.termSrc[t] = splitmix64{x: termRNGState(seed, t)}
	}
}

// initCredits derives the credit state from the port wiring: an
// inter-router output (outCh >= 0) gets the downstream port's buffer
// window, a terminal sink an effectively infinite credit line, both a
// full free-VC mask; padded ports get nothing, every terminal source a
// full buffer window, and creditM flags the credited outputs. Build
// calls it once the ports are wired, Reset after clearing run state.
func (n *Network) initCredits() {
	clear(n.outCredits)
	clear(n.outFreeVC)
	full := fullVCMask(n.V)
	for i, ch := range n.outCh {
		if ch >= 0 {
			n.outCredits[i] = n.bufPP
			n.outFreeVC[i] = full
		}
	}
	for t := 0; t < n.T; t++ {
		out := int(n.destRouter[t])*n.maxP + int(n.egressPort[t])
		n.outCredits[out] = 1 << 30
		n.outFreeVC[out] = full
	}
	for t := range n.srcCredit {
		n.srcCredit[t] = n.bufPP
	}
	clear(n.creditM)
	for r := 0; r < n.R; r++ {
		for p := 0; p < n.maxP; p++ {
			if n.outCredits[r*n.maxP+p] > 0 {
				n.creditM[r*n.pw+p>>6] |= uint64(1) << (p & 63)
			}
		}
	}
}

// bitWords returns the number of 64-bit words a bitmap of n bits needs.
func bitWords(n int) int { return (n + 63) / 64 }

// fullVCMask returns the mask with the low v bits set (v = 64 yields
// all ones: 1<<64 is 0 on uint64, and 0-1 wraps).
func fullVCMask(v int) uint64 { return uint64(1)<<v - 1 }

// routeCache maps topo.CanonicalHash -> the flat route table of every
// Network built from a topology of that structure (see nextFlat): a pure
// function of the structure, computed once and shared read-only across
// workers and sweep points. Entries live for the process; route tables
// are small relative to a built Network and the set of distinct
// topologies per process is bounded by the experiment grid.
var routeCache sync.Map

// routesFor returns the shared route table for t, computing and caching
// it on first use. Concurrent first builds may compute the table twice;
// LoadOrStore keeps exactly one copy.
func routesFor(t *topo.Topology) ([][]int32, error) {
	key := t.CanonicalHash()
	if v, ok := routeCache.Load(key); ok {
		return v.([][]int32), nil
	}
	next, err := computeRoutes(t)
	if err != nil {
		return nil, err
	}
	if v, loaded := routeCache.LoadOrStore(key, next); loaded {
		return v.([][]int32), nil
	}
	return next, nil
}

// computeRoutes computes, for every (router r, destination router d)
// pair, the set of output ports toward the destination, at index r*R+d,
// by one rule for every topology: the minimal candidates of a BFS per
// destination, and on a topology that records a grid shape (MeshRows and
// MeshCols > 0) only those in r's own row while r and d sit in different
// columns. The mesh thus routes dimension-order (X then Y) and the
// flattened butterfly a row hop, then a column hop: their channel
// dependencies run injection, row, column, ejection and cannot close a
// cycle. The Clos's minimal routes go up, then down, which is acyclic
// too. Port numbers mirror Build's assignment — terminals first, then
// link lanes in declared order — so the tables are valid for any Network
// built from a topology with the same structure.
func computeRoutes(t *topo.Topology) ([][]int32, error) {
	R := len(t.Nodes)
	// Adjacency: for each router, its inter-router output ports and
	// peers, in the order Build creates the corresponding channels (per
	// lane: A's forward port, then B's reverse port).
	numPorts := make([]int32, R)
	for i, node := range t.Nodes {
		numPorts[i] = int32(node.ExternalPorts)
	}
	type edge struct{ port, peer int32 }
	adj := make([][]edge, R)
	for _, l := range t.Links {
		for i := 0; i < l.Lanes; i++ {
			adj[l.A] = append(adj[l.A], edge{port: numPorts[l.A] + int32(i), peer: int32(l.B)})
			adj[l.B] = append(adj[l.B], edge{port: numPorts[l.B] + int32(i), peer: int32(l.A)})
		}
		numPorts[l.A] += int32(l.Lanes)
		numPorts[l.B] += int32(l.Lanes)
	}
	cols := int32(t.MeshCols)
	next := make([][]int32, R*R)
	dist := make([]int32, R)
	queue := make([]int32, 0, R)
	for d := 0; d < R; d++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue = queue[:0]
		queue = append(queue, int32(d))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range adj[u] {
				if dist[e.peer] == -1 {
					dist[e.peer] = dist[u] + 1
					queue = append(queue, e.peer)
				}
			}
		}
		for r := 0; r < R; r++ {
			if r == d {
				continue
			}
			if dist[r] == -1 {
				return nil, fmt.Errorf("sim: router %d cannot reach router %d", r, d)
			}
			rowFirst := cols > 0 && int32(r)%cols != int32(d)%cols
			for _, e := range adj[r] {
				if dist[e.peer] == dist[r]-1 && (!rowFirst || e.peer/cols == int32(r)/cols) {
					next[r*R+d] = append(next[r*R+d], e.port)
				}
			}
			if len(next[r*R+d]) == 0 {
				return nil, fmt.Errorf("sim: router %d has no minimal hop in its row toward router %d", r, d)
			}
		}
	}
	return next, nil
}

// Routers returns the number of routers in the network.
func (n *Network) Routers() int { return n.R }
