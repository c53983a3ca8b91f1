package sim

import (
	"strconv"
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
// the 3x3 flattened butterfly near 0.83), where the Section VI sweeps
// spend their wall-clock: every input port holds flits, most VCs are
// active, and switch allocation runs every router every cycle. This is
// the regime the low-load BenchmarkSimCycle guard does not cover.
func BenchmarkSimCycleSaturated(b *testing.B) {
	b.Run("clos", func(b *testing.B) { benchCycleAtLoad(b, benchClos(b), 0.9) })
	b.Run("fbfly", func(b *testing.B) { benchCycleAtLoad(b, benchFbfly(b), 0.9) })
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

// BenchmarkSimShardedSaturated pins whole-run cost of the sharded
// engine on a 1024-port Clos past saturation — the regime the Section
// VI sweeps spend their wall-clock in, at the scale sharding targets.
// One op is one complete RunSharded: shard setup, warmup, measurement
// and the (bounded) drain; network construction is excluded by timer
// stops. shards=1 delegates to the serial Run, so the shards=1 /
// shards=4 pair is the serial-vs-sharded comparison benchjson's
// -shard-speedup gate reads from BENCH_sim.json re-pins. The gate only
// arms when the run had GOMAXPROCS >= 4 — on fewer cores the epoch
// barriers cost wall-clock instead of hiding it, and the numbers
// measure barrier overhead, not speedup. Link latency 4 gives a
// 4-cycle conservative-lookahead epoch, the realistic regime for
// wafer-scale reaches (serial results are latency-for-latency
// comparable since both run the same channels).
//
// allocs/op is the one-time sharding setup (per-shard layout, ring
// slabs, outboxes); the steady-state loop itself allocates nothing —
// that contract is gated by TestRunShardedSteadyStateAllocs, which a
// whole-run benchmark cannot isolate.
func BenchmarkSimShardedSaturated(b *testing.B) {
	closChip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		b.Fatal(err)
	}
	clos, err := topo.HomogeneousClos(1024, closChip)
	if err != nil {
		b.Fatal(err)
	}
	// 4x4 flattened butterfly of full-radix chips: 16 nodes x 64
	// external ports = 1024 ports on 16 radix-256 routers.
	fbfly, err := topo.FlattenedButterfly(4, 4, ssc.MustTH5(200))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		top  *topo.Topology
	}{{"clos", clos}, {"fbfly", fbfly}} {
		cfg := Config{
			NumVCs: 2, BufPerPort: 16, PacketFlits: 2,
			RCIngress: 1, RCOther: 1, PipeDelay: 1, TermDelay: 1,
			WarmupCycles: 80, MeasureCycles: 240, DrainCycles: 64, Seed: 7,
		}
		inj, err := SyntheticInjector(traffic.Uniform(tc.top.ExternalPorts()), cfg.PacketFlits)(0.9)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []int{1, 2, 4, 8} {
			b.Run(tc.name+"/shards="+strconv.Itoa(s), func(b *testing.B) {
				b.ReportAllocs()
				var cycles int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					n, err := Build(tc.top, ConstantLatency(4), cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					st, err := n.RunSharded(inj, 0.9, s)
					if err != nil {
						b.Fatal(err)
					}
					cycles += st.Cycles
				}
				b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
			})
		}
	}
}

// benchShardedObserved is the shared body of the observer-on sharded
// whole-run benchmarks: the 1024-port Clos of BenchmarkSimShardedSaturated
// past saturation, with the named observers attached before RunSharded.
// Comparing against the matching BenchmarkSimShardedSaturated/clos
// subtest quantifies the observer overhead on the sharded path; the
// shards=1 / shards=4 pair quantifies it on the serial path it
// delegates to.
//
// allocs/op is one-time setup (sharding layout plus the per-shard
// observer instances the coordinator merges); the steady-state loop
// with observers attached allocates nothing — that contract is gated
// differentially by TestRunShardedObserverAllocs, which a whole-run
// benchmark cannot isolate.
func benchShardedObserved(b *testing.B, attach func(n *Network)) {
	b.Helper()
	closChip, err := ssc.MustTH5(200).Deradix(4)
	if err != nil {
		b.Fatal(err)
	}
	clos, err := topo.HomogeneousClos(1024, closChip)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		NumVCs: 2, BufPerPort: 16, PacketFlits: 2,
		RCIngress: 1, RCOther: 1, PipeDelay: 1, TermDelay: 1,
		WarmupCycles: 80, MeasureCycles: 240, DrainCycles: 64, Seed: 7,
	}
	inj, err := SyntheticInjector(traffic.Uniform(clos.ExternalPorts()), cfg.PacketFlits)(0.9)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []int{1, 4} {
		b.Run("clos/shards="+strconv.Itoa(s), func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, err := Build(clos, ConstantLatency(4), cfg)
				if err != nil {
					b.Fatal(err)
				}
				attach(n)
				b.StartTimer()
				st, err := n.RunSharded(inj, 0.9, s)
				if err != nil {
					b.Fatal(err)
				}
				cycles += st.Cycles
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
		})
	}
}

// BenchmarkSimShardedTimelineOn pins whole-run cost of the sharded
// engine with the time-resolved sampler attached (window 32, ring 64 —
// deep enough that compaction fires during the run, exercising the
// coordinator-closed-window merge path).
func BenchmarkSimShardedTimelineOn(b *testing.B) {
	benchShardedObserved(b, func(n *Network) {
		n.AttachTimeline(obs.NewTimeline(32, 64))
	})
}

// BenchmarkSimShardedAttributionOn pins whole-run cost of the sharded
// engine with congestion attribution attached: per-shard stage
// decomposition and blame counters folded at the final barrier.
func BenchmarkSimShardedAttributionOn(b *testing.B) {
	benchShardedObserved(b, func(n *Network) {
		if err := n.AttachAttribution(n.NewAttribution()); err != nil {
			b.Fatal(err)
		}
	})
}
