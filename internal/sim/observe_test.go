package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/traffic"
)

// Every latency and stage component is an integer, so the running sums
// the latency histogram, each timeline window and each attribution stage
// keep are exact in float64 whatever order packets complete in. This
// pins them against int64 sums recomputed from the delivery log, at a
// drained and a saturated load (the reference simulator, which sums in
// another order, does not model the timeline or attribution).
func TestLatencySumsExact(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	for _, tc := range []struct {
		load    float64
		drained bool
	}{{0.3, true}, {0.95, false}} {
		n, err := Build(cl, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.RecordDeliveries()
		// 50-cycle windows overflow the 256-sample store at saturation,
		// so coalesced windows are checked too.
		tl := obs.NewTimeline(50, 0)
		n.AttachTimeline(tl)
		a := n.AttachAttribution()
		inj, _ := SyntheticInjector(traffic.Uniform(128), cfg.PacketFlits)(tc.load)
		st := n.Run(inj, tc.load)
		if st.Drained != tc.drained {
			t.Fatalf("load %g: Drained = %v, want %v", tc.load, st.Drained, tc.drained)
		}
		samples := tl.Snapshot().Samples
		winSum := make([]int64, len(samples))
		winCount := make([]int64, len(samples))
		var sum, measured int64
		w := 0
		for _, d := range n.Deliveries() {
			lat := d.Done + int64(cfg.PipeDelay+cfg.TermDelay) - d.Born
			if d.Measured {
				sum += lat
				measured++
			}
			for w < len(samples) && d.Done >= samples[w].Start+samples[w].Cycles {
				w++
			}
			if w == len(samples) || d.Done < samples[w].Start {
				t.Fatalf("load %g: delivery at cycle %d outside every timeline window", tc.load, d.Done)
			}
			winSum[w] += lat
			winCount[w]++
		}
		if measured != int64(st.Completed) {
			t.Fatalf("load %g: %d measured deliveries, Completed = %d", tc.load, measured, st.Completed)
		}
		if h := n.LatencyHistogram(); h.Sum() != float64(sum) {
			t.Errorf("load %g: latency histogram sum %v, exact sum %d", tc.load, h.Sum(), sum)
		}
		if want := float64(sum) / float64(st.Completed); st.AvgLatency != want {
			t.Errorf("load %g: AvgLatency %v, exact mean %v", tc.load, st.AvgLatency, want)
		}
		// The snapshot exposes a window's sum only as LatSum/Retired; a
		// sum off by one cycle would move that mean by 1/Retired.
		for i, p := range samples {
			if p.Retired != winCount[i] {
				t.Errorf("load %g: window at cycle %d retired %d packets, deliveries say %d",
					tc.load, p.Start, p.Retired, winCount[i])
			} else if want := float64(winSum[i]) / float64(winCount[i]); winCount[i] > 0 && p.MeanLatency != want {
				t.Errorf("load %g: window at cycle %d mean latency %v, exact %v", tc.load, p.Start, p.MeanLatency, want)
			}
		}
		var stages float64
		for i := range a.Stages {
			stages += a.Stages[i].Sum()
		}
		if stages != float64(sum) {
			t.Errorf("load %g: attribution stage sums add up to %v, exact latency sum %d", tc.load, stages, sum)
		}
		if m := n.AttribSumMismatches(); m != 0 {
			t.Errorf("load %g: %d packets' stages do not sum to their latency", tc.load, m)
		}
	}
}

// Every instrument is held to two contracts, each stated once below and
// checked by one test per instrument. requireUnperturbed: a run with the
// instrument attached returns the bare run's Stats and latency
// histogram, because instruments observe and never steer.
// requireNoSteadyAllocs: 400 warm steady-state steps make no
// allocation, because each instrument's memory is fixed when it is
// attached or recycled through the packet freelist; only the delivery
// log appends one record per packet, by design. Adding an instrument
// means adding its two tests here; TestResetDetachesEveryObserver checks
// that Reset detaches it.

// instrumentedNetwork builds the test Clos and applies attach, which is
// nil for a bare network.
func instrumentedNetwork(t *testing.T, attach func(*Network)) *Network {
	t.Helper()
	n, err := Build(testClos(t), ConstantLatency(1), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(n)
	}
	return n
}

func uniformInjector(load float64) Injector {
	inj, _ := SyntheticInjector(traffic.Uniform(128), testConfig().PacketFlits)(load)
	return inj
}

// requireUnperturbed runs a bare and an instrumented network at load 0.5
// and fails t unless their Stats and latency histograms are equal. It
// returns the instrumented network and its Stats for the caller's own
// assertions.
func requireUnperturbed(t *testing.T, attach func(*Network)) (*Network, Stats) {
	t.Helper()
	bare := instrumentedNetwork(t, nil)
	bareSt := bare.Run(uniformInjector(0.5), 0.5)
	n := instrumentedNetwork(t, attach)
	st := n.Run(uniformInjector(0.5), 0.5)
	if st != bareSt {
		t.Errorf("perturbed the run:\nbare %+v\ngot  %+v", bareSt, st)
	}
	if bareH, h := bare.LatencyHistogram(), n.LatencyHistogram(); !h.Equal(&bareH) {
		t.Error("perturbed the latency histogram")
	}
	return n, st
}

// requireNoSteadyAllocs fails t unless the 400 steady-state steps of a
// warm instrumented network from cycle 4000 make no allocation at all.
// The count is exact: testing.AllocsPerRun runs its function once to
// warm up and then once measured, so the steps from cycle 3600 are the
// warm-up, and one allocation in 400 steps fails.
func requireNoSteadyAllocs(t *testing.T, attach func(*Network)) {
	t.Helper()
	n := instrumentedNetwork(t, attach)
	inj := uniformInjector(0.4)
	for ; n.now < 3600; n.now++ { // every queue reaches its steady depth
		n.step(inj)
	}
	if mallocs := testing.AllocsPerRun(1, func() {
		for end := n.now + 400; n.now < end; n.now++ {
			n.step(inj)
		}
	}); mallocs != 0 {
		t.Errorf("400 steady-state steps allocate %v times, want 0", mallocs)
	}
}

// attachTimeline's 32 windows of 64 cycles compact at cycles 2048 and
// 4096, so requireNoSteadyAllocs' measured steps (cycles 4000-4400)
// include a compaction; the recorder's ring wraps long before.
func attachTimeline(n *Network) { n.AttachTimeline(obs.NewTimeline(64, 32)) }
func attachRecorder(n *Network) { n.Trace(obs.NewFlightRecorder(1 << 12)) }

func TestSteadyStateNoAllocs(t *testing.T) { requireNoSteadyAllocs(t, nil) }

func TestProbeDoesNotPerturbRun(t *testing.T) {
	requireUnperturbed(t, func(n *Network) { n.AttachProbe() })
}

func TestSteadyStateNoAllocsProbed(t *testing.T) {
	requireNoSteadyAllocs(t, func(n *Network) { n.AttachProbe() })
}

func TestAttributionDoesNotPerturbRun(t *testing.T) {
	requireUnperturbed(t, func(n *Network) { n.AttachAttribution() })
}

func TestSteadyStateNoAllocsAttributed(t *testing.T) {
	requireNoSteadyAllocs(t, func(n *Network) { n.AttachAttribution() })
}

// The timeline and the flight recorder are checked apart, so that a
// perturbation names the instrument that caused it.
func TestTimelineTracerDoNotPerturbRun(t *testing.T) {
	t.Run("timeline", func(t *testing.T) { requireUnperturbed(t, attachTimeline) })
	t.Run("recorder", func(t *testing.T) { requireUnperturbed(t, attachRecorder) })
}

func TestSteadyStateNoAllocsTimeline(t *testing.T) { requireNoSteadyAllocs(t, attachTimeline) }

func TestSteadyStateNoAllocsTraced(t *testing.T) { requireNoSteadyAllocs(t, attachRecorder) }

// The checker and the delivery log are not held to 0 allocs/op: the log
// appends one record per packet.
func TestCheckerObservational(t *testing.T) {
	n, st := requireUnperturbed(t, func(n *Network) {
		if err := n.Check(CheckOptions{}); err != nil {
			t.Fatal(err)
		}
		n.RecordDeliveries()
	})
	if err := n.CheckErr(); err != nil {
		t.Errorf("checker flagged a healthy run: %v", err)
	}
	if len(n.Deliveries()) < st.Completed {
		t.Errorf("delivery log has %d entries for %d completed packets", len(n.Deliveries()), st.Completed)
	}
}

// The timeline's summed series must agree with the probe's run totals:
// same injected/ejected flits, same occupancy integral, and the series
// must cover every simulated cycle.
func TestTimelineMatchesProbeTotals(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.AttachProbe()
	tl := obs.NewTimeline(100, 0)
	n.AttachTimeline(tl)
	if n.tline != tl {
		t.Fatal("AttachTimeline did not attach the sampler")
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.6)
	st := n.Run(inj, 0.6)

	var cycles, injected, ejected, retired, occSum int64
	for _, p := range tl.Snapshot().Samples {
		cycles += p.Cycles
		injected += p.Injected
		ejected += p.Ejected
		retired += p.Retired
		occSum += int64(p.MeanQueueOcc*float64(p.Cycles) + 0.5)
	}
	if cycles != st.Cycles {
		t.Errorf("timeline covers %d cycles, run took %d", cycles, st.Cycles)
	}
	if injected != n.probe.Injected || ejected != n.probe.Ejected {
		t.Errorf("timeline flits %d/%d, probe %d/%d",
			injected, ejected, n.probe.Injected, n.probe.Ejected)
	}
	// The timeline retires every packet (measured or not); the run's
	// Completed counts only measured ones.
	if retired < int64(st.Completed) {
		t.Errorf("timeline retired %d packets, fewer than the %d measured completions", retired, st.Completed)
	}
	var probeOcc int64
	for r := range n.probe.Routers {
		probeOcc += n.probe.Routers[r].OccSum
	}
	if occSum != probeOcc {
		t.Errorf("timeline occupancy integral %d, probe %d", occSum, probeOcc)
	}
}

// A timeline is a windowed view of the network's collector, so its
// series must not depend on whether a probe was asked for, or on
// whether the probe or the timeline attached first: on a bare network
// in each order, and through a sweep with and without Probe.
func TestTimelineWithoutProbe(t *testing.T) {
	t.Run("attach", func(t *testing.T) {
		run := func(attach func(n *Network, tl *obs.Timeline) *Probe) (string, *Network, *Probe) {
			n := instrumentedNetwork(t, nil)
			tl := obs.NewTimeline(100, 0)
			p := attach(n, tl)
			n.Run(uniformInjector(0.6), 0.6)
			j, err := json.Marshal(tl.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return string(j), n, p
		}
		alone, n, _ := run(func(n *Network, tl *obs.Timeline) *Probe { n.AttachTimeline(tl); return nil })
		if n.probe == nil || len(n.Snapshot().Routers) == 0 {
			t.Error("a timeline alone attached no collector, or Snapshot left its counters out")
		}
		for _, tc := range []struct {
			name   string
			attach func(n *Network, tl *obs.Timeline) *Probe
		}{
			{"probe first", func(n *Network, tl *obs.Timeline) *Probe { p := n.AttachProbe(); n.AttachTimeline(tl); return p }},
			{"timeline first", func(n *Network, tl *obs.Timeline) *Probe { n.AttachTimeline(tl); return n.AttachProbe() }},
		} {
			got, n, p := run(tc.attach)
			if got != alone {
				t.Errorf("%s: series differs from the timeline-only run:\n%s\n%s", tc.name, got, alone)
			}
			if n.probe != p || p.Injected == 0 {
				t.Errorf("%s: the returned probe is not the collector the run counted into", tc.name)
			}
		}
	})
	t.Run("sweep", func(t *testing.T) {
		cfg := sweepTestConfig()
		cl := testClos(t)
		build := func() (*Network, error) { return Build(cl, ConstantLatency(1), cfg) }
		injf := SyntheticInjector(traffic.Uniform(cl.ExternalPorts()), cfg.PacketFlits)
		loads := []float64{0.2, 0.5, 0.9}
		timeline := func(probe bool) string {
			res, err := Sweep(build, injf, loads, SweepOptions{Workers: 1, Probe: probe, TimelineInterval: 100})
			if err != nil {
				t.Fatal(err)
			}
			if !probe && (res.Points[0].Probe != nil || len(res.Aggregate.Routers) != 0) {
				t.Error("a sweep without Probe reported collector counters")
			}
			j, err := json.Marshal(res.Timeline)
			if err != nil {
				t.Fatal(err)
			}
			return string(j)
		}
		if with, without := timeline(true), timeline(false); with != without {
			t.Errorf("merged timeline depends on Probe:\nwith    %s\nwithout %s", with, without)
		}
	})
}

// A traced run must record the full lifecycle: inject at a terminal,
// RC/VA/ST at routers, eject at the destination — and
// obs.WriteChromeTrace must render them as valid Chrome trace-event
// JSON.
func TestTraceLifecycleAndChromeExport(t *testing.T) {
	cl := testClos(t)
	cfg := testConfig()
	n, err := Build(cl, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(1 << 16)
	n.Trace(rec)
	if n.tr != rec {
		t.Fatal("Trace did not attach the recorder")
	}
	inj, _ := SyntheticInjector(traffic.Uniform(128), 4)(0.2)
	st := n.Run(inj, 0.2)
	if st.Completed == 0 {
		t.Fatal("no packets completed")
	}
	kinds := map[obs.TraceKind]int{}
	perPacketKinds := map[int32]map[obs.TraceKind]bool{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
		if ev.Kind == obs.TraceInject && ev.Router != -1 {
			t.Errorf("inject event carries router %d, want -1", ev.Router)
		}
		m := perPacketKinds[ev.Packet]
		if m == nil {
			m = map[obs.TraceKind]bool{}
			perPacketKinds[ev.Packet] = m
		}
		m[ev.Kind] = true
	}
	for _, k := range []obs.TraceKind{obs.TraceInject, obs.TraceRC, obs.TraceVA, obs.TraceST, obs.TraceEject} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	// Packet ids are recycled, so per-id lifecycles can span several
	// packets; but a fully retained id must have seen every stage.
	full := 0
	for _, m := range perPacketKinds {
		if m[obs.TraceInject] && m[obs.TraceRC] && m[obs.TraceVA] && m[obs.TraceST] && m[obs.TraceEject] {
			full++
		}
	}
	if full == 0 {
		t.Error("no packet shows a complete inject→RC→VA→ST→eject lifecycle")
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) < rec.Len() {
		t.Errorf("trace has %d events for %d recorded", len(doc.TraceEvents), rec.Len())
	}
}
