package main

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"time"

	"waferswitch/internal/core"
	"waferswitch/internal/expt"
	"waferswitch/internal/mapping"
	"waferswitch/internal/sim"
	"waferswitch/internal/ssc"
	"waferswitch/internal/tech"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
	"waferswitch/internal/wafer"
)

// heapAllocs returns the bytes allocated on the heap since the process
// started.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// repeat times fn n times and returns the median in milliseconds.
func repeat(n int, fn func() error) (float64, error) {
	ms := make([]float64, n)
	for i := range ms {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms[i] = msSince(t0)
	}
	return median(ms), nil
}

// runProbes times each layer's public calls on fixed inputs, in a fresh
// process so the first sim.Build pays for its route tables. The inputs
// are the workloads' own in miniature, and the same whichever workload
// is traced, so a probe means the same thing on every workload.
func runProbes(seed int64, smoke bool) (map[string]float64, error) {
	m := map[string]float64{}

	// topo: the Clos the sweep workloads build in their setup.
	var cl *topo.Topology
	var err error
	if m["topo.build_ms"], err = repeat(5, func() (err error) { cl, err = simClos(); return err }); err != nil {
		return nil, err
	}

	// sim construction: the first Build computes the route tables, the
	// rest share them; Reset rewinds a built network for the next point.
	warm, measure := 1000, 4000
	if smoke {
		warm, measure = 100, 200
	}
	low := fabrics(seed, warm, measure, 3*measure)[0]
	a0, t0 := heapAllocs(), time.Now()
	n, err := sim.Build(cl, sim.ConstantLatency(low.link), low.cfg)
	if err != nil {
		return nil, err
	}
	m["sim.build_cold_ms"] = msSince(t0)
	m["sim.build_alloc_mb"] = float64(heapAllocs()-a0) / 1e6
	if m["sim.build_warm_ms"], err = repeat(5, func() error {
		_, err := sim.Build(cl, sim.ConstantLatency(low.link), low.cfg)
		return err
	}); err != nil {
		return nil, err
	}
	resetMs, _ := repeat(21, func() error { n.Reset(seed); return nil })
	m["sim.reset_us"] = resetMs * 1e3

	// sim kernel: one waferscale point below the knee and one past it.
	if smoke {
		measure = 100
	} else {
		measure = 1000
	}
	sat := fabrics(seed, warm, measure, 3*measure)[0]
	for _, k := range []struct {
		suffix string
		f      fabric
		load   float64
	}{{"low", low, 0.15}, {"sat", sat, 0.95}} {
		if err := kernelProbe(m, cl, k.f, k.load, k.suffix); err != nil {
			return nil, err
		}
	}
	if err := sweepProbe(m, cl, sat); err != nil {
		return nil, err
	}

	// traffic: the NERSC mini-app traces fig24 replays.
	if m["traffic.nersc_ms"], err = repeat(3, func() error { _, err := traffic.NERSCTraces(512); return err }); err != nil {
		return nil, err
	}

	// mapping: Algorithm 1 on the paper's largest Clos, one restart.
	mapPorts := 8192
	if smoke {
		mapPorts = 1024
	}
	big, err := topo.HomogeneousClos(mapPorts, ssc.MustTH5(200))
	if err != nil {
		return nil, err
	}
	rows, cols := topo.NearSquare(len(big.Nodes))
	t0 = time.Now()
	p, err := mapping.Best(big, rows, cols, 1, seed)
	if err != nil {
		return nil, err
	}
	m["mapping.best_8192_ms"] = msSince(t0)
	m["mapping.maxload_8192"] = float64(p.MaxLoad())

	// core: the fig25 constrained-optimized Clos search, and one design.
	params := core.Params{
		Substrate: wafer.Substrate{SideMM: 300}, WSI: tech.SiIF.Scaled(2), ExternalIO: tech.OpticalIO,
		Chiplet: ssc.MustTH5(200), Cooling: tech.WaterCooling, MapRestarts: 1, Seed: seed,
	}
	t0 = time.Now()
	if _, err := core.MaxPorts(params, core.AllConstraints); err != nil {
		return nil, err
	}
	m["core.max_ports_ms"] = msSince(t0)
	t0 = time.Now()
	if _, err := core.Evaluate(params, mapPorts, core.NoPower); err != nil {
		return nil, err
	}
	m["core.evaluate_8192_ms"] = msSince(t0)

	// obs: fig22 and fig24 with every observer against the same pair run
	// plain, alternated so host drift falls on both sides.
	if m["obs.overhead_frac"], err = obsOverhead(seed, smoke); err != nil {
		return nil, err
	}
	return m, nil
}

// kernelProbe runs one point and records host time per simulated
// terminal-cycle and per measured packet, the cycles simulated and the
// share of them spent draining.
func kernelProbe(m map[string]float64, cl *topo.Topology, f fabric, load float64, suffix string) error {
	n, err := sim.Build(cl, sim.ConstantLatency(f.link), f.cfg)
	if err != nil {
		return err
	}
	inj, err := sim.SyntheticInjector(traffic.Uniform(closPorts), packetFlits)(load)
	if err != nil {
		return err
	}
	t0 := time.Now()
	st := n.Run(inj, load)
	ns := float64(time.Since(t0).Nanoseconds())
	if st.Cycles == 0 || st.Completed == 0 {
		return fmt.Errorf("kernel probe at load %g simulated %d cycles, %d packets", load, st.Cycles, st.Completed)
	}
	m["sim.ns_per_term_cycle_"+suffix] = ns / float64(st.Cycles*closPorts)
	m["sim.ns_per_packet_"+suffix] = ns / float64(st.Completed)
	m["sim.cycles_"+suffix] = float64(st.Cycles)
	m["sim.drain_frac_"+suffix] = float64(st.Cycles-int64(f.cfg.WarmupCycles+f.cfg.MeasureCycles)) / float64(st.Cycles)
	return nil
}

// sweepProbe runs lowload's loads on one fabric through the traced point
// loop and records the time the workers spent in sim.Run, and its share
// of both workers' time over the sweep; Build, Reset and idle workers
// take the rest.
func sweepProbe(m map[string]float64, cl *topo.Topology, f fabric) error {
	tr := newTracer()
	root := tr.begin("sweep probe", 0, 0, false)
	build := func() (*sim.Network, error) { return sim.Build(cl, sim.ConstantLatency(f.link), f.cfg) }
	injf := sim.SyntheticInjector(traffic.Uniform(closPorts), packetFlits)
	_, err := sweepStats(tr, root, f.name, build, injf, lowload.loads)
	tr.end(root)
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	var run int64
	for _, s := range spans {
		if s.Name == "sim.Run" {
			run += s.dur()
		}
	}
	m["sim.run_s"] = float64(run) / 1e9
	m["sim.run_share"] = float64(run) / float64(workers*spans[root-1].dur())
	return nil
}

func obsOverhead(seed int64, smoke bool) (float64, error) {
	ids, pairs := []string{"fig22", "fig24"}, 2
	if smoke {
		ids, pairs = []string{"ext-tail"}, 1
	}
	plain := expt.Options{Quick: true, Workers: workers, Seed: seed}
	observed := figs.opts
	observed.Seed = seed
	var tPlain, tObserved time.Duration
	for i := 0; i < pairs; i++ {
		for _, side := range []struct {
			o   expt.Options
			acc *time.Duration
		}{{plain, &tPlain}, {observed, &tObserved}} {
			t0 := time.Now()
			for _, id := range ids {
				t, err := expt.Run(id, side.o)
				if err != nil {
					return 0, err
				}
				if _, err := json.Marshal(t); err != nil {
					return 0, err
				}
			}
			*side.acc += time.Since(t0)
		}
	}
	return float64(tObserved)/float64(tPlain) - 1, nil
}
