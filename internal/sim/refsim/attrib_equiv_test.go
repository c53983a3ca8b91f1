package refsim

import (
	"fmt"
	"reflect"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
)

// optRun executes a spec on the optimized simulator with the invariant
// checker and delivery recording on, optionally with congestion
// attribution attached, and returns the network and the attribution
// (nil without) for inspection.
func optRun(t *testing.T, s Spec, attrib bool) (sim.Stats, *sim.Network, *obs.Attribution) {
	t.Helper()
	top, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.Build(top, sim.ConstantLatency(s.LinkLat), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(s.CheckOptions()); err != nil {
		t.Fatal(err)
	}
	n.RecordDeliveries()
	var a *obs.Attribution
	if attrib {
		a = n.AttachAttribution()
	}
	inj, err := s.Injector(top.ExternalPorts())
	if err != nil {
		t.Fatal(err)
	}
	st := n.Run(inj, s.Load)
	if v := n.CheckViolations(); len(v) != 0 {
		t.Fatalf("invariant violations (attrib=%v): %v", attrib, v)
	}
	return st, n, a
}

// Congestion attribution must be perfectly transparent: across topology
// families and loads from near-zero to past saturation, the attributed
// run's Stats, latency histogram and delivered-packet multiset are
// bit-identical to the unattributed run's, the invariant checker stays
// clean, and every completed packet satisfies the stage-sum identity.
func TestAttributionTransparent(t *testing.T) {
	base := Spec{
		Pattern: "uniform",
		LinkLat: 2, VCs: 2, Buf: 8, Pkt: 2,
		RCI: 1, RCO: 1, Pipe: 1, Term: 1,
		Warmup: 50, Measure: 150, Seed: 42,
	}
	families := []string{"clos", "mesh", "fbfly", "dfly"}
	loads := []float64{0.05, 0.25, 0.6, 0.95}
	for _, fam := range families {
		for _, load := range loads {
			s := base
			s.Family = fam
			s.Load = load
			t.Run(fmt.Sprintf("%s/load=%g", fam, load), func(t *testing.T) {
				plainSt, plain, _ := optRun(t, s, false)
				attrSt, attributed, a := optRun(t, s, true)
				if plainSt != attrSt {
					t.Errorf("stats diverge:\nplain      %+v\nattributed %+v", plainSt, attrSt)
				}
				ph, ah := plain.LatencyHistogram(), attributed.LatencyHistogram()
				if !ph.Equal(&ah) {
					t.Error("latency histograms diverge")
				}
				if !reflect.DeepEqual(plain.Deliveries(), attributed.Deliveries()) {
					t.Error("delivery streams diverge")
				}
				if m := attributed.AttribSumMismatches(); m != 0 {
					t.Errorf("%d packets failed the stage-sum identity", m)
				}
				if a.Packets != int64(attrSt.Completed) {
					t.Errorf("decomposed %d packets, completed %d", a.Packets, attrSt.Completed)
				}
				// The stage components reproduce the total measured latency
				// exactly (integer cycles, so the float sums are exact).
				if got, want := a.TotalCycles(), ah.Sum(); got != want {
					t.Errorf("stage cycles total %g, latency sum %g", got, want)
				}
				if !attrSt.Drained && attributed.Backpressure() == nil {
					t.Error("saturated attributed run captured no backpressure report")
				}
			})
		}
	}
}
