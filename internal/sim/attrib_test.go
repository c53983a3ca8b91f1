package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

func testMesh(t *testing.T) *topo.Topology {
	t.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topo.MeshTopo(3, 3, chip, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mesh
}

// The headline invariant: for every completed packet the stage
// components sum exactly to its end-to-end latency, on a drained run and
// on a saturated one (where stranded packets never complete but every
// completed one still decomposes exactly).
func TestAttributionSumIdentity(t *testing.T) {
	cases := []struct {
		name  string
		top   *topo.Topology
		terms int
		load  float64
		drain bool
	}{
		{"clos-moderate", testClos(t), 128, 0.5, true},
		{"mesh-saturated", testMesh(t), 72, 0.5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sweepTestConfig()
			n, err := Build(tc.top, ConstantLatency(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := n.AttachAttribution()
			inj, _ := SyntheticInjector(traffic.Uniform(tc.terms), cfg.PacketFlits)(tc.load)
			st := n.Run(inj, tc.load)
			if st.Drained != tc.drain {
				t.Fatalf("drained=%v, want %v (completed %d)", st.Drained, tc.drain, st.Completed)
			}
			if st.Completed == 0 {
				t.Fatal("no packets completed; test is vacuous")
			}
			if m := n.AttribSumMismatches(); m != 0 {
				t.Errorf("%d packets failed the stage-sum identity", m)
			}
			if a.Packets != int64(st.Completed) {
				t.Errorf("decomposed %d packets, completed %d", a.Packets, st.Completed)
			}
			for s := 0; s < obs.NumStages; s++ {
				if got := a.Stages[s].Count(); got != a.Packets {
					t.Errorf("stage %s observed %d samples for %d packets", obs.StageNames[s], got, a.Packets)
				}
			}
			// Summed across stages, the decomposition reproduces the total
			// measured latency exactly (all components are integer cycles,
			// so the float sums are exact).
			lat := n.LatencyHistogram()
			if got, want := a.TotalCycles(), lat.Sum(); got != want {
				t.Errorf("stage cycles total %g, latency histogram sum %g", got, want)
			}
		})
	}
}

// Every credit-stall cycle suffered at some router is blamed on exactly
// one downstream router and one channel, so the three counter families
// conserve the same total.
func TestAttributionBlameConservation(t *testing.T) {
	mesh := testMesh(t)
	cfg := sweepTestConfig()
	n, err := Build(mesh, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := n.AttachAttribution()
	inj, _ := SyntheticInjector(traffic.Uniform(72), cfg.PacketFlits)(0.4)
	n.Run(inj, 0.4)
	var suffered, blamed, chanBlame int64
	for r := range a.Routers {
		suffered += a.Routers[r].CreditStall
		blamed += a.Routers[r].Blamed
	}
	for ci := range a.ChanBlame {
		chanBlame += a.ChanBlame[ci]
	}
	if suffered == 0 {
		t.Fatal("no credit stalls on a saturated mesh — stall hook likely dead")
	}
	if suffered != blamed || suffered != chanBlame {
		t.Errorf("blame not conserved: %d suffered, %d blamed on routers, %d on channels",
			suffered, blamed, chanBlame)
	}
}

// The root-cause analyzer must find non-trivial congestion trees on a
// saturated network and a clean report on an idle one; Run must capture
// the report automatically for non-drained runs, and the post-mortem
// must render the diagnosis.
func TestAnalyzeBackpressureSaturated(t *testing.T) {
	mesh := testMesh(t)
	cfg := sweepTestConfig()
	n, err := Build(mesh, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Idle network: nothing is blocked.
	idle := n.AnalyzeBackpressure()
	if idle.BlockedVCs != 0 || idle.BlockedRouters != 0 || len(idle.Trees) != 0 {
		t.Errorf("idle network reports backpressure: %+v", idle)
	}
	if !strings.Contains(idle.Render(), "no credit-blocked VCs") {
		t.Errorf("idle render: %q", idle.Render())
	}

	n.AttachAttribution()
	inj, _ := SyntheticInjector(traffic.Uniform(72), cfg.PacketFlits)(0.5)
	st := n.Run(inj, 0.5)
	if st.Drained {
		t.Fatal("mesh at 0.5 load drained; need a saturated run")
	}
	rep := n.Backpressure()
	if rep == nil {
		t.Fatal("non-drained run captured no backpressure report")
	}
	if rep.BlockedVCs == 0 || rep.BlockedRouters == 0 {
		t.Fatalf("saturated mesh reports no blocked VCs: %+v", rep)
	}
	if len(rep.Trees) == 0 && rep.CyclicRouters == 0 {
		t.Errorf("blocked routers but neither trees nor cycles: %+v", rep)
	}
	for _, tree := range rep.Trees {
		if tree.Victims < 1 || tree.Depth < 1 || tree.Width < 1 {
			t.Errorf("degenerate tree: %+v", tree)
		}
		if tree.BlockedVCs < 1 || tree.StalledFlits < 1 {
			t.Errorf("tree with no blocked state: %+v", tree)
		}
		if tree.Victims > rep.BlockedRouters {
			t.Errorf("tree has %d victims but only %d routers are blocked", tree.Victims, rep.BlockedRouters)
		}
	}
	pm := n.SaturationPostMortem(st)
	for _, want := range []string{"saturation post-mortem", "stranded", "latency by stage", "credit-blocked"} {
		if !strings.Contains(pm, want) {
			t.Errorf("post-mortem missing %q:\n%s", want, pm)
		}
	}

	// A drained run yields no post-mortem.
	n2, err := Build(testClos(t), ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2.AttachAttribution()
	inj2, _ := SyntheticInjector(traffic.Uniform(128), cfg.PacketFlits)(0.3)
	st2 := n2.Run(inj2, 0.3)
	if !st2.Drained {
		t.Fatal("clos at 0.3 load saturated")
	}
	if pm := n2.SaturationPostMortem(st2); pm != "" {
		t.Errorf("drained run produced a post-mortem: %q", pm)
	}
	if n2.Backpressure() != nil {
		t.Error("drained run captured a backpressure report")
	}
}

// Attribution-enabled sweeps must stay deterministic across worker
// counts: per-point collectors land in index slots and merge in point
// order after the barrier, so the full JSON — stage histograms, blame
// rankings, backpressure reports and post-mortems included — is
// byte-identical for workers 1, 4 and GOMAXPROCS.
func TestSweepAttributionParallelMatchesSerial(t *testing.T) {
	mesh := testMesh(t)
	cfg := sweepTestConfig()
	build := func() (*Network, error) { return Build(mesh, ConstantLatency(1), cfg) }
	injf := SyntheticInjector(traffic.Uniform(72), cfg.PacketFlits)
	// The last load saturates, so the sweep exercises the backpressure
	// and post-mortem paths too.
	loads := []float64{0.02, 0.06, 0.1, 0.3}

	serial, err := Sweep(build, injf, loads, SweepOptions{Workers: 1, Attribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Attribution == nil || serial.Attribution.Packets == 0 {
		t.Fatal("attribution-enabled sweep produced no aggregate")
	}
	sat := serial.Points[len(serial.Points)-1]
	if sat.Stats.Drained {
		t.Fatal("final load drained; saturated-point paths untested")
	}
	if sat.Backpressure == nil || sat.PostMortem == "" {
		t.Fatalf("saturated point missing diagnosis: backpressure=%v post-mortem=%q",
			sat.Backpressure, sat.PostMortem)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		par, err := Sweep(build, injf, loads, SweepOptions{Workers: workers, Attribution: true})
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(sj) != string(pj) {
			t.Errorf("workers=%d: attribution sweep JSON diverges from serial", workers)
		}
	}

	// With attribution off the sweep's JSON must carry none of the new
	// keys — the byte-identical-default contract.
	off, err := Sweep(build, injf, loads[:2], SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	oj, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"attribution", "backpressure", "post_mortem"} {
		if strings.Contains(string(oj), key) {
			t.Errorf("attribution-off sweep JSON contains %q", key)
		}
	}
}

// The live attribution fed from a sweep must aggregate every point and
// record the saturated points' reports under their LiveName keys.
func TestSweepLiveFeedAttribution(t *testing.T) {
	mesh := testMesh(t)
	cfg := sweepTestConfig()
	build := func() (*Network, error) { return Build(mesh, ConstantLatency(1), cfg) }
	injf := SyntheticInjector(traffic.Uniform(72), cfg.PacketFlits)
	live := &obs.Live{}
	res, err := Sweep(build, injf, []float64{0.05, 0.3}, SweepOptions{
		Workers: 2, Attribution: true, Live: live, LiveName: "meshsweep",
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := live.Attribution(4)
	if snap == nil {
		t.Fatal("live attribution empty after the sweep")
	}
	if snap.Packets != res.Attribution.Packets {
		t.Errorf("live aggregate has %d packets, sweep aggregate %d", snap.Packets, res.Attribution.Packets)
	}
	reps := live.Reports()
	if len(reps) == 0 {
		t.Fatal("no live backpressure reports despite a saturated point")
	}
	if _, ok := reps["meshsweep/load=0.3"]; !ok {
		t.Errorf("report keys %v missing meshsweep/load=0.3", keys(reps))
	}
}

func keys(m map[string]*obs.BackpressureReport) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// BenchmarkSimAttributionOn quantifies the cost of full per-packet
// latency decomposition and blame counting: BenchmarkSimSteadyState's
// loop with attribution attached.
func BenchmarkSimAttributionOn(b *testing.B) {
	benchSteadyState(b, func(n *Network) { n.AttachAttribution() })
}
