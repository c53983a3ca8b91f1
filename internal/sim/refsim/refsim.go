// Package refsim is a model-based reference implementation of the
// cycle-level simulator in internal/sim, used as the oracle for
// differential testing. It implements the same specification — the
// four-stage router pipeline (RC/VA/SA/ST), separable round-robin
// allocation, credit-based flow control over fixed-latency channels,
// shared per-port input buffers split across VCs, and the shared-RNG
// injection loop — with none of the optimizations: no active-router or
// active-channel worklists, no flit slab, no ring buffers, no scratch
// reuse. Every cycle scans every channel, router, port and VC densely,
// and every queue is a plain slice. The code is written to be obviously
// correct rather than fast; the equivalence tests and fuzz targets
// require its delivered-packet multiset, latency histogram and Stats to
// be bit-identical to the optimized simulator's on the same
// (topology, config, seed).
//
// The contract pinned by this package: any behavioural divergence
// between internal/sim and refsim on the same inputs is a bug in one of
// them, and every future hot-path optimization of internal/sim must
// keep this diff empty.
package refsim

import (
	"fmt"
	"math/rand"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
	"waferswitch/internal/topo"
)

// VC pipeline states, mirroring the specification in internal/sim.
const (
	vcIdle = iota
	vcRouting
	vcVCAlloc
	vcActive
)

type rflit struct {
	pkt  int
	last bool
}

// inVC is one input virtual channel: a plain FIFO plus pipeline state.
type inVC struct {
	q       []rflit
	state   int
	rcLeft  int
	outPort int
	outVC   int
}

// outPort is one output port: downstream credits, output-VC ownership
// and the VA round-robin pointer.
type outPort struct {
	credits int
	vcOwner []bool // true = owned by some input VC
	rrVA    int
	ch      int // channel index, -1 = terminal sink
}

// flitArrival and credArrival are scheduled channel events: the dense
// replacement for the optimized simulator's ring buffers. Events are
// appended in send order and consumed from the front when their arrival
// cycle comes up.
type flitArrival struct {
	f  rflit
	vc int
	at int64
}

type credArrival struct {
	at int64
}

type rchan struct {
	lat                int
	srcRouter, srcPort int
	srcTerm            int
	dstRouter, dstPort int
	flits              []flitArrival
	creds              []credArrival
}

type router struct {
	nPorts int
	in     [][]inVC // [port][vc]
	rcIn   []int    // per-port RC delay
	saVCRR []int    // per-port SA round-robin VC pointer
	outs   []outPort
	feedCh []int // channel feeding each input port, -1 if none
}

type rpkt struct {
	src, dst int
	size     int
	born     int64
	measured bool
}

type pending struct {
	dst      int
	size     int
	born     int64
	measured bool
}

const maxPendingPerTerm = 4096

// network is the dense reference state.
type network struct {
	cfg sim.Config
	R   int
	V   int
	T   int

	routers  []router
	channels []rchan

	termChIn   []int
	destRouter []int
	egressPort []int
	nextPorts  [][][]int

	srcQ      [][]pending
	srcSent   []int
	srcCredit []int
	curPkt    []int

	pkts     []rpkt
	pktSalt  []uint32
	freePkts []int

	// Per-terminal RNG streams and packet-sequence counters, mirroring
	// the optimized simulator (sim.TermRNG / sim.PacketSalt): traffic
	// and routing tie-breaks are pure functions of (seed, terminal,
	// sequence), never of scan order or packet-table ids.
	termRng []*rand.Rand
	termSeq []uint32
	now     int64

	measStart, measEnd int64
	// latSumR holds per-ejecting-router latency sums, folded in
	// ascending router order: refsim's own summation order, kept as a
	// second order against the optimized simulator's completion-order
	// histogram sum (DESIGN §9.2).
	latSumR      []float64
	latHist      obs.Histogram
	completed    int
	measuredBorn int
	ejectedFlits int64
	firstCapped  int64 // see Result.FirstCapped

	deliveries []sim.Delivery
}

// Result is the reference run's outcome: the same Stats the optimized
// simulator reports, the delivered-packet multiset in completion order,
// and the latency histogram. FirstCapped is the first cycle at which a
// source queue at maxPendingPerTerm skipped its terminal's trial, -1 if
// none did: it tells a test whether its run reached the cap at all.
type Result struct {
	Stats       sim.Stats
	Deliveries  []sim.Delivery
	Hist        obs.Histogram
	FirstCapped int64
}

// Run simulates the topology with the reference implementation and
// returns its outcome. It mirrors sim.Build + Network.Run: warmup and
// measurement windows, then a drain bounded by DrainCycles (default
// 10x MeasureCycles).
func Run(t *topo.Topology, lat sim.LinkLatency, cfg sim.Config, inj sim.Injector, offered float64) (*Result, error) {
	n, err := build(t, lat, cfg)
	if err != nil {
		return nil, err
	}
	n.measStart = int64(cfg.WarmupCycles)
	n.measEnd = int64(cfg.WarmupCycles + cfg.MeasureCycles)
	drain := int64(cfg.DrainCycles)
	if drain <= 0 {
		drain = 10 * int64(cfg.MeasureCycles)
	}
	for n.now = 0; n.now < n.measEnd; n.now++ {
		n.step(inj)
	}
	deadline := n.measEnd + drain
	for n.completed < n.measuredBorn && n.now < deadline {
		n.step(inj)
		n.now++
	}
	st := sim.Stats{
		Offered:   offered,
		Accepted:  float64(n.ejectedFlits) / float64(n.T) / float64(cfg.MeasureCycles),
		Completed: n.completed,
		Drained:   n.completed >= n.measuredBorn,
		Cycles:    n.now,
	}
	if n.completed > 0 {
		var sum float64
		for r := 0; r < n.R; r++ {
			sum += n.latSumR[r]
		}
		n.latHist.SetSum(sum)
		st.AvgLatency = sum / float64(n.completed)
		st.P50Latency = n.latHist.Percentile(0.50)
		st.P99Latency = n.latHist.Percentile(0.99)
		st.P999Latency = n.latHist.Percentile(0.999)
	}
	return &Result{Stats: st, Deliveries: n.deliveries, Hist: n.latHist, FirstCapped: n.firstCapped}, nil
}

// build instantiates the dense network, following the same port
// assignment, channel creation and route construction order as
// sim.Build (the order is part of the behavioural spec: routing
// candidate lists and VC indices depend on it).
func build(t *topo.Topology, lat sim.LinkLatency, cfg sim.Config) (*network, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumVCs < 1 || cfg.PacketFlits < 1 || cfg.BufPerPort < cfg.PacketFlits || cfg.MeasureCycles < 1 {
		return nil, fmt.Errorf("refsim: invalid config %+v", cfg)
	}
	R := len(t.Nodes)
	V := cfg.NumVCs

	numPorts := make([]int, R)
	for i, nd := range t.Nodes {
		numPorts[i] = nd.ExternalPorts
	}
	type lanePort struct{ a, pa, b, pb, lat int }
	var lanes []lanePort
	for _, l := range t.Links {
		for i := 0; i < l.Lanes; i++ {
			lanes = append(lanes, lanePort{
				a: l.A, pa: numPorts[l.A] + i,
				b: l.B, pb: numPorts[l.B] + i,
				lat: lat(l.A, l.B),
			})
		}
		numPorts[l.A] += l.Lanes
		numPorts[l.B] += l.Lanes
	}
	T := t.ExternalPorts()

	n := &network{
		cfg: cfg, R: R, V: V, T: T,
		routers: make([]router, R),
		termRng: make([]*rand.Rand, T),
		termSeq: make([]uint32, T),
		latSumR: make([]float64, R),

		firstCapped: -1,
	}
	for t := 0; t < T; t++ {
		n.termRng[t] = sim.TermRNG(cfg.Seed, t)
	}
	for r := range n.routers {
		rt := &n.routers[r]
		rt.nPorts = numPorts[r]
		rt.in = make([][]inVC, rt.nPorts)
		rt.rcIn = make([]int, rt.nPorts)
		rt.saVCRR = make([]int, rt.nPorts)
		rt.outs = make([]outPort, rt.nPorts)
		rt.feedCh = make([]int, rt.nPorts)
		for p := 0; p < rt.nPorts; p++ {
			rt.in[p] = make([]inVC, V)
			for v := 0; v < V; v++ {
				rt.in[p][v] = inVC{outPort: -1, outVC: -1}
			}
			rt.rcIn[p] = atLeast1(cfg.RCOther)
			rt.outs[p] = outPort{ch: -1}
			rt.feedCh[p] = -1
		}
	}

	addChannel := func(srcR, srcP, dstR, dstP, latency, srcTerm int) int {
		if latency < 1 {
			latency = 1
		}
		ci := len(n.channels)
		n.channels = append(n.channels, rchan{
			lat:       latency,
			srcRouter: srcR, srcPort: srcP, srcTerm: srcTerm,
			dstRouter: dstR, dstPort: dstP,
		})
		if dstR >= 0 {
			n.routers[dstR].feedCh[dstP] = ci
		}
		if srcR >= 0 {
			o := &n.routers[srcR].outs[srcP]
			o.ch = ci
			o.credits = cfg.BufPerPort
			o.vcOwner = make([]bool, V)
		}
		return ci
	}
	for _, lp := range lanes {
		addChannel(lp.a, lp.pa, lp.b, lp.pb, lp.lat+cfg.PipeDelay, -1)
		addChannel(lp.b, lp.pb, lp.a, lp.pa, lp.lat+cfg.PipeDelay, -1)
	}

	n.termChIn = make([]int, T)
	n.destRouter = make([]int, T)
	n.egressPort = make([]int, T)
	n.srcQ = make([][]pending, T)
	n.srcSent = make([]int, T)
	n.srcCredit = make([]int, T)
	n.curPkt = make([]int, T)
	term := 0
	for r, node := range t.Nodes {
		for p := 0; p < node.ExternalPorts; p++ {
			n.destRouter[term] = r
			n.egressPort[term] = p
			td := cfg.TermDelay
			if td < 1 {
				td = 1
			}
			n.termChIn[term] = addChannel(-1, -1, r, p, td, term)
			n.routers[r].rcIn[p] = atLeast1(cfg.RCIngress)
			o := &n.routers[r].outs[p]
			o.ch = -1
			o.credits = 1 << 30
			o.vcOwner = make([]bool, V)
			n.srcCredit[term] = cfg.BufPerPort
			term++
		}
	}

	if err := n.buildRoutes(t); err != nil {
		return nil, err
	}
	return n, nil
}

func atLeast1(d int) int {
	if d < 1 {
		return 1
	}
	return d
}

// buildRoutes mirrors the optimized simulator's table construction:
// dimension-order next hops on meshes, BFS shortest-path candidates
// otherwise, with adjacency (and therefore candidate order) taken from
// channel creation order.
func (n *network) buildRoutes(t *topo.Topology) error {
	R := n.R
	type edge struct{ port, peer int }
	adj := make([][]edge, R)
	for ci := range n.channels {
		c := &n.channels[ci]
		if c.srcRouter < 0 {
			continue
		}
		adj[c.srcRouter] = append(adj[c.srcRouter], edge{port: c.srcPort, peer: c.dstRouter})
	}
	n.nextPorts = make([][][]int, R)
	for r := range n.nextPorts {
		n.nextPorts[r] = make([][]int, R)
	}
	if t.MeshRows > 0 && t.MeshCols > 0 {
		cols := t.MeshCols
		for r := 0; r < R; r++ {
			rr, rc := r/cols, r%cols
			for d := 0; d < R; d++ {
				if r == d {
					continue
				}
				dr, dc := d/cols, d%cols
				var want int
				switch {
				case dc > rc:
					want = r + 1
				case dc < rc:
					want = r - 1
				case dr > rr:
					want = r + cols
				default:
					want = r - cols
				}
				for _, e := range adj[r] {
					if e.peer == want {
						n.nextPorts[r][d] = append(n.nextPorts[r][d], e.port)
					}
				}
				if len(n.nextPorts[r][d]) == 0 {
					return fmt.Errorf("refsim: mesh router %d has no DOR hop toward %d", r, d)
				}
			}
		}
		return nil
	}
	for d := 0; d < R; d++ {
		dist := make([]int, R)
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue := []int{d}
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
				return fmt.Errorf("refsim: router %d cannot reach router %d", r, d)
			}
			for _, e := range adj[r] {
				if dist[e.peer] == dist[r]-1 {
					n.nextPorts[r][d] = append(n.nextPorts[r][d], e.port)
				}
			}
		}
	}
	return nil
}

// step advances one cycle in the same phase order as the optimized
// simulator: channel arrivals, RC/VA for all routers, SA/ST for all
// routers, then terminal injection.
func (n *network) step(inj sim.Injector) {
	n.arrivals()
	n.routersRCVA()
	n.routersSA()
	n.inject(inj)
}

// arrivals delivers every flit and credit whose latency elapsed,
// scanning all channels in index order (arrivals on distinct channels
// commute, so any order matches the optimized worklist).
func (n *network) arrivals() {
	for ci := range n.channels {
		c := &n.channels[ci]
		for len(c.flits) > 0 && c.flits[0].at <= n.now {
			ev := c.flits[0]
			c.flits = c.flits[1:]
			n.routers[c.dstRouter].in[c.dstPort][ev.vc].q =
				append(n.routers[c.dstRouter].in[c.dstPort][ev.vc].q, ev.f)
		}
		for len(c.creds) > 0 && c.creds[0].at <= n.now {
			c.creds = c.creds[1:]
			if c.srcTerm >= 0 {
				n.srcCredit[c.srcTerm]++
			} else {
				n.routers[c.srcRouter].outs[c.srcPort].credits++
			}
		}
	}
}

// routersRCVA advances route computation and VC allocation for the head
// packet of every non-empty input VC, in (router, port, VC) order.
func (n *network) routersRCVA() {
	for r := range n.routers {
		rt := &n.routers[r]
		for p := 0; p < rt.nPorts; p++ {
			for v := 0; v < n.V; v++ {
				vc := &rt.in[p][v]
				if len(vc.q) == 0 {
					continue
				}
				if vc.state == vcIdle {
					vc.state = vcRouting
					vc.rcLeft = rt.rcIn[p]
				}
				if vc.state == vcRouting {
					vc.rcLeft--
					if vc.rcLeft <= 0 {
						n.computeRoute(r, vc)
						vc.state = vcVCAlloc
					}
				}
				if vc.state == vcVCAlloc {
					o := &rt.outs[vc.outPort]
					for j := 0; j < n.V; j++ {
						ov := (o.rrVA + j) % n.V
						if !o.vcOwner[ov] {
							o.vcOwner[ov] = true
							o.rrVA = (ov + 1) % n.V
							vc.outVC = ov
							vc.state = vcActive
							break
						}
					}
				}
			}
		}
	}
}

// computeRoute fills the VC's output port for its head packet: the
// egress port on the destination router, or a shortest-path candidate
// chosen by packet id.
func (n *network) computeRoute(r int, vc *inVC) {
	f := vc.q[0]
	dst := n.pkts[f.pkt].dst
	dr := n.destRouter[dst]
	if dr == r {
		vc.outPort = n.egressPort[dst]
		return
	}
	cands := n.nextPorts[r][dr]
	vc.outPort = cands[int(n.pktSalt[f.pkt])%len(cands)]
}

// routersSA performs separable switch allocation per router with fresh
// per-cycle grant state (no scratch reuse), then forwards winners in
// ascending output-port order.
func (n *network) routersSA() {
	for r := range n.routers {
		rt := &n.routers[r]
		granted := make([]bool, rt.nPorts)
		winnerP := make([]int, rt.nPorts)
		winnerV := make([]int, rt.nPorts)
		start := int(n.now % int64(rt.nPorts))
		for i := 0; i < rt.nPorts; i++ {
			p := (start + i) % rt.nPorts
			for j := 0; j < n.V; j++ {
				v := (rt.saVCRR[p] + j) % n.V
				vc := &rt.in[p][v]
				if vc.state != vcActive || len(vc.q) == 0 {
					continue
				}
				out := vc.outPort
				if granted[out] {
					continue
				}
				if rt.outs[out].credits <= 0 {
					continue
				}
				granted[out] = true
				winnerP[out], winnerV[out] = p, v
				rt.saVCRR[p] = (v + 1) % n.V
				break // one grant per input port per cycle
			}
		}
		for out := 0; out < rt.nPorts; out++ {
			if granted[out] {
				n.forward(r, out, winnerP[out], winnerV[out])
			}
		}
	}
}

// forward moves the winning flit from its input VC onto the output
// channel (or the terminal sink), returning a credit upstream.
func (n *network) forward(r, out, p, v int) {
	rt := &n.routers[r]
	vc := &rt.in[p][v]
	f := vc.q[0]
	vc.q = vc.q[1:]
	if ci := rt.feedCh[p]; ci >= 0 {
		c := &n.channels[ci]
		c.creds = append(c.creds, credArrival{at: n.now + int64(c.lat)})
	}
	o := &rt.outs[out]
	if o.ch >= 0 {
		c := &n.channels[o.ch]
		c.flits = append(c.flits, flitArrival{f: f, vc: vc.outVC, at: n.now + int64(c.lat)})
		o.credits--
	} else {
		if n.now >= n.measStart && n.now < n.measEnd {
			n.ejectedFlits++
		}
		if f.last {
			n.completePacket(f.pkt, r)
		}
	}
	if f.last {
		o.vcOwner[vc.outVC] = false
		vc.state = vcIdle
		vc.outPort, vc.outVC = -1, -1
	}
}

// completePacket records the packet's latency and delivery, then frees
// its table entry (LIFO freelist, matching the optimized allocator).
// r is the ejecting router, which keys the per-router latency sum.
func (n *network) completePacket(pkt, r int) {
	pi := n.pkts[pkt]
	if pi.measured {
		lat := float64(n.now + int64(n.cfg.PipeDelay+n.cfg.TermDelay) - pi.born)
		n.latSumR[r] += lat
		n.latHist.Observe(lat)
		n.completed++
	}
	n.deliveries = append(n.deliveries, sim.Delivery{
		Src: int32(pi.src), Dst: int32(pi.dst), Size: int32(pi.size),
		Born: pi.born, Done: n.now, Measured: pi.measured,
	})
	n.freePkts = append(n.freePkts, pkt)
}

// inject generates new packets (drawing from the shared RNG in terminal
// order, exactly like the optimized loop) and pushes one source flit
// per terminal per cycle, credit permitting.
func (n *network) inject(inj sim.Injector) {
	for t := 0; t < n.T; t++ {
		if len(n.srcQ[t]) < maxPendingPerTerm {
			if dst, flits, ok := inj.Generate(t, n.now, n.termRng[t]); ok {
				measured := n.now >= n.measStart && n.now < n.measEnd
				if measured {
					n.measuredBorn++
				}
				n.srcQ[t] = append(n.srcQ[t], pending{
					dst: dst, size: flits, born: n.now, measured: measured,
				})
			}
		} else if n.firstCapped < 0 {
			n.firstCapped = n.now
		}
		if len(n.srcQ[t]) == 0 || n.srcCredit[t] <= 0 {
			continue
		}
		pp := n.srcQ[t][0]
		if n.srcSent[t] == 0 {
			n.curPkt[t] = n.allocPacket(t, pp)
		}
		pkt := n.curPkt[t]
		c := &n.channels[n.termChIn[t]]
		last := n.srcSent[t]+1 == pp.size
		c.flits = append(c.flits, flitArrival{
			f:  rflit{pkt: pkt, last: last},
			vc: int(n.pktSalt[pkt]) % n.V,
			at: n.now + int64(c.lat),
		})
		n.srcCredit[t]--
		n.srcSent[t]++
		if last {
			n.srcSent[t] = 0
			n.srcQ[t] = n.srcQ[t][1:]
		}
	}
}

// allocPacket creates a packet-table entry, reusing freed ids LIFO so
// ids match the optimized allocator exactly (routing candidate choice
// depends on packet id).
func (n *network) allocPacket(t int, pp pending) int {
	var pkt int
	if l := len(n.freePkts); l > 0 {
		pkt = n.freePkts[l-1]
		n.freePkts = n.freePkts[:l-1]
	} else {
		n.pkts = append(n.pkts, rpkt{})
		n.pktSalt = append(n.pktSalt, 0)
		pkt = len(n.pkts) - 1
	}
	n.pkts[pkt] = rpkt{
		src: t, dst: pp.dst, size: pp.size,
		born: pp.born, measured: pp.measured,
	}
	n.pktSalt[pkt] = sim.PacketSalt(int32(t), n.termSeq[t])
	n.termSeq[t]++
	return pkt
}
