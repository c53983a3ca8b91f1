package sim

import (
	"math/rand"
	"testing"
)

// plantFlit queues flit f on input VC gv of input port in the way an
// arrival does, minus the router occupancy count.
func plantFlit(n *Network, in, gv int32, f flit) {
	base := in * n.bufPP
	if n.pushVC(gv, base, n.takeSlot(in, base), packFlit(f)) == 0 {
		n.markBusy(in, gv, in/int32(n.maxP), in%int32(n.maxP))
	}
}

// TestSlotPoolMatchesFIFOModel drives one input port's slot pool with a
// seeded random sequence of pushes (plantFlit) and pops (forward to the
// port's terminal sink) across its VCs, and compares every VC with a
// slice-of-FIFOs model after each step; the checker's pool scan must
// stay clean throughout. The sequence opens with one VC holding all
// BufPerPort flits, then draining while a second VC fills; it drains
// the port completely several times, so pool rewinds are exercised.
func TestSlotPoolMatchesFIFOModel(t *testing.T) {
	cfg := testConfig()
	cfg.BufPerPort = 8
	n, err := Build(testClos(t), ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Router 0's port 0 is a terminal port: input port 0 is fed by the
	// terminal, and output port 0 is its ejection sink.
	const in = 0
	V, buf := cfg.NumVCs, cfg.BufPerPort
	model := make([][]int32, V)
	queued := 0
	c := &checker{opt: CheckOptions{MaxViolations: 1}}
	rewinds := 0

	push := func(v int) {
		pkt := int32(len(n.pkts))
		n.pkts = append(n.pkts, packetInfo{})
		plantFlit(n, in, int32(in*V+v), flit{pkt: pkt, last: true})
		n.routerOcc[0]++
		model[v] = append(model[v], pkt)
		queued++
	}
	pop := func(v int) {
		gv := in*V + v
		// Every flit is a whole packet, so each pop is a tail forward,
		// which hands the output VC back to the sink's free mask.
		n.vcOutVC[gv] = 0
		n.forward(0, 0, gv, in)
		model[v] = model[v][1:]
		queued--
	}
	verify := func(step string) {
		t.Helper()
		for v := range model {
			gv := int32(in*V + v)
			if got := int(n.vcQ[gv] & 0xffff); got != len(model[v]) {
				t.Fatalf("%s: VC %d holds %d flits, model %d", step, v, got, len(model[v]))
			}
			if len(model[v]) > 0 {
				if got := n.frontVC(in, gv).pkt; got != model[v][0] {
					t.Fatalf("%s: VC %d front is packet %d, model %d", step, v, got, model[v][0])
				}
			}
		}
		if c.checkPools(n); len(c.violations) > 0 {
			t.Fatalf("%s: %s", step, c.violations[0])
		}
		if queued == 0 {
			if n.alloc[in] != (slotAlloc{}) {
				t.Fatalf("%s: empty port's pool not rewound: %+v", step, n.alloc[in])
			}
			rewinds++
		}
	}

	for i := 0; i < buf; i++ {
		push(0)
		verify("fill VC 0")
	}
	for i := 0; i < buf; i++ {
		pop(0)
		push(1)
		verify("hand VC 0's slots to VC 1")
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		if queued < buf && (queued == 0 || rng.Intn(2) == 0) {
			push(rng.Intn(V))
		} else {
			v := rng.Intn(V)
			for len(model[v]) == 0 {
				v = (v + 1) % V
			}
			pop(v)
		}
		verify("random")
	}
	for v := range model {
		for len(model[v]) > 0 {
			pop(v)
			verify("drain")
		}
	}
	if rewinds < 10 {
		t.Fatalf("port emptied only %d times; the sequence should exercise pool rewinds", rewinds)
	}
}

// TestSlotPoolFootprint: flit storage is one BufPerPort-slot pool per
// input port, R·maxP·BufPerPort words whatever NumVCs is; only the
// one-word queue state grows with the VC count.
func TestSlotPoolFootprint(t *testing.T) {
	cl := testClos(t)
	for _, v := range []int{1, 4, 16, 64} {
		cfg := testConfig()
		cfg.NumVCs = v
		n, err := Build(cl, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := n.R * n.maxP * cfg.BufPerPort
		if len(n.slots) != want || len(n.freeSlots) != want {
			t.Errorf("NumVCs %d: %d slot words and %d free-stack entries, want R·maxP·BufPerPort = %d",
				v, len(n.slots), len(n.freeSlots), want)
		}
		if got, want := len(n.vcQ), n.R*n.maxP*v; got != want {
			t.Errorf("NumVCs %d: %d queue words, want %d", v, got, want)
		}
	}
}
