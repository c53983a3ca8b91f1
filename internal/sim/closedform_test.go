package sim

import (
	"fmt"
	"math"
	"testing"

	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// TestCreditLoopClosedForm checks the router against a first-principles
// result that the reference simulator cannot check, because it shares
// the router's semantics. Two routers are joined by one lane whose
// channels take L + PipeDelay cycles. Each router has one terminal,
// and each terminal sends to the other at offered load 1, with 1 VC and
// 1-flit packets. A buffer of B flits then holds at most B flits per
// credit round trip of 2(L + PipeDelay) cycles, so
//
//	Accepted = min(1, B / (2(L + PipeDelay))).
//
// The loop is the one behind fig21's buffer sizing. Wherever it binds,
// every source's backlog grows through the whole run and reaches the
// source-queue cap, so the deferred injection trials of births are
// checked against the closed form too.
func TestCreditLoopClosedForm(t *testing.T) {
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	pair := &topo.Topology{
		Name: "credit-loop", Kind: "chain",
		Nodes: []topo.Node{
			{ID: 0, Chiplet: chip, ExternalPorts: 1},
			{ID: 1, Chiplet: chip, ExternalPorts: 1},
		},
		Links: []topo.Link{{A: 0, B: 1, Lanes: 1}},
	}
	inj := RateInjector{Load: 1, Pattern: traffic.Uniform(2), PacketFlits: 1}
	var worst float64
	for _, lat := range []int{1, 4, 10} {
		for _, pipe := range []int{0, 2} {
			for _, buf := range []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 64} {
				cfg := Config{
					NumVCs: 1, BufPerPort: buf, PacketFlits: 1,
					RCIngress: 1, RCOther: 1, PipeDelay: pipe, TermDelay: 1,
					WarmupCycles: 2000, MeasureCycles: 20000, DrainCycles: 1, Seed: 1,
				}
				n, err := Build(pair, ConstantLatency(lat), cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := n.Run(inj, 1)
				want := math.Min(1, float64(buf)/float64(2*(lat+pipe)))
				d := math.Abs(st.Accepted - want)
				worst = math.Max(worst, d)
				if d > 0.0002 {
					t.Errorf("%s: accepted %.6f, closed form %.6f (|Δ| %.6f)",
						fmt.Sprintf("L=%d PipeDelay=%d B=%d", lat, pipe, buf), st.Accepted, want, d)
				}
			}
		}
	}
	t.Logf("worst |Δ| %.6f over 60 cases", worst)
}
