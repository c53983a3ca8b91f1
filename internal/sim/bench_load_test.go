package sim

import (
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// benchCycleAtLoad measures per-cycle cost of the steady-state loop at a
// fixed offered load: the network is warmed well past the transient (at
// and beyond saturation the buffers are full and every router is busy
// every cycle), then b.N single cycles are stepped. ns/op is therefore
// ns/cycle in the regime the load names.
func benchCycleAtLoad(b *testing.B, top *topo.Topology, load float64) {
	b.Helper()
	ports := top.ExternalPorts()
	cfg := Config{
		NumVCs: 4, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 3, TermDelay: 8,
		WarmupCycles: 10, MeasureCycles: 10, Seed: 7,
	}
	n, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	inj, err := SyntheticInjector(traffic.Uniform(ports), cfg.PacketFlits)(load)
	if err != nil {
		b.Fatal(err)
	}
	for ; n.now < 4000; n.now++ {
		n.step(inj)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.step(inj)
		n.now++
	}
}

func benchClos(b *testing.B) *topo.Topology {
	b.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(128, chip)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

func benchFbfly(b *testing.B) *topo.Topology {
	b.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := topo.FlattenedButterfly(3, 3, chip)
	if err != nil {
		b.Fatal(err)
	}
	return fb
}

// BenchmarkSimCycleSaturated pins per-cycle cost past the saturation
// knee (offered 0.9; the 128-port Clos saturates near 0.73 accepted,
// the 3x3 flattened butterfly near 0.78, measured over 1,000 warmup and
// 4,000 measured cycles), where the Section VI sweeps
// spend their wall-clock: every input port holds flits, most VCs are
// active, and switch allocation runs every router every cycle. This is
// the regime the low-load BenchmarkSimCycle guard does not cover. The
// clos and fbfly routers have 32 ports, one mask word each; wideclos is
// the 512-port Clos of radix-128 sub-switches (Fig 19's SSC), 12
// routers whose port masks span two words.
func BenchmarkSimCycleSaturated(b *testing.B) {
	b.Run("clos", func(b *testing.B) { benchCycleAtLoad(b, benchClos(b), 0.9) })
	b.Run("fbfly", func(b *testing.B) { benchCycleAtLoad(b, benchFbfly(b), 0.9) })
	b.Run("wideclos", func(b *testing.B) {
		chip, err := ssc.MustTH5(200).Deradix(2)
		if err != nil {
			b.Fatal(err)
		}
		cl, err := topo.HomogeneousClos(512, chip)
		if err != nil {
			b.Fatal(err)
		}
		benchCycleAtLoad(b, cl, 0.9)
	})
}

// BenchmarkSimCycleKnee pins per-cycle cost at the saturation knee
// (offered 0.75 on the Clos: latency has turned up but the network
// still drains) — the operating point bisection knee searches evaluate
// most often.
func BenchmarkSimCycleKnee(b *testing.B) {
	benchCycleAtLoad(b, benchClos(b), 0.75)
}

// BenchmarkSimCycleLowLoad pins per-cycle cost below the knee on the
// 1024-port Clos of radix-64 sub-switches (offered 0.15), the regime
// most of every Section VI latency-load curve sits in and the 128-port
// guards miss: few routers hold flits, so the cost is visiting — the
// arrivals stripes, the ports switch allocation scans, one injection
// trial per terminal — rather than allocation work.
func BenchmarkSimCycleLowLoad(b *testing.B) {
	chip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := topo.HomogeneousClos(1024, chip)
	if err != nil {
		b.Fatal(err)
	}
	benchCycleAtLoad(b, cl, 0.15)
}

// BenchmarkSimRunSaturated pins whole-run cost of Run on 1024-port
// fabrics past saturation, the regime the Section VI sweeps spend their
// wall-clock in. One op is one complete Run: warmup, measurement and
// the (bounded) drain; network construction and observer attachment
// are excluded by timer stops. The 4x4 flattened butterfly of
// full-radix chips puts 64 terminals on each of 16 radix-256 routers,
// so its case is the whole-run guard of four-word port masks (the
// clos case's radix-64 routers use one); the clos/timeline and
// clos/attribution cases price those observers against the bare clos
// case.
//
// allocs/op is per-run growth to steady capacity (source queues, the
// packet table); the steady-state cycle itself allocates nothing —
// that contract is gated differentially by TestRunSteadyStateAllocs,
// which a whole-run benchmark cannot isolate.
func BenchmarkSimRunSaturated(b *testing.B) {
	closChip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		b.Fatal(err)
	}
	clos, err := topo.HomogeneousClos(1024, closChip)
	if err != nil {
		b.Fatal(err)
	}
	fbfly, err := topo.FlattenedButterfly(4, 4, ssc.MustTH5(200))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		NumVCs: 2, BufPerPort: 16, PacketFlits: 2,
		RCIngress: 1, RCOther: 1, PipeDelay: 1, TermDelay: 1,
		WarmupCycles: 80, MeasureCycles: 240, DrainCycles: 64, Seed: 7,
	}
	for _, tc := range []struct {
		name   string
		top    *topo.Topology
		attach func(n *Network)
	}{
		{"clos", clos, func(*Network) {}},
		{"fbfly", fbfly, func(*Network) {}},
		{"clos/timeline", clos, func(n *Network) { n.AttachTimeline(obs.NewTimeline(32, 64)) }},
		{"clos/attribution", clos, func(n *Network) {
			n.AttachAttribution()
		}},
	} {
		inj, err := SyntheticInjector(traffic.Uniform(tc.top.ExternalPorts()), cfg.PacketFlits)(0.9)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, err := Build(tc.top, ConstantLatency(4), cfg)
				if err != nil {
					b.Fatal(err)
				}
				tc.attach(n)
				b.StartTimer()
				cycles += n.Run(inj, 0.9).Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
		})
	}
}
