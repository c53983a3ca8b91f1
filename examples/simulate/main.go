// Simulate: drive the cycle-level simulator directly.
//
// Builds a 512-port waferscale Clos and its discrete switch-network
// equivalent, sweeps offered load under uniform traffic, and prints the
// latency-load curves side by side (the paper's Fig 23 methodology).
package main

import (
	"fmt"
	"log"

	"waferswitch/internal/sim"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

func main() {
	const ports = 512
	chip, err := ssc.MustTH5(200).Deradix(4) // radix-64 sub-switches
	if err != nil {
		log.Fatal(err)
	}
	clos, err := topo.HomogeneousClos(ports, chip)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %s\n\n", clos.Name)

	// Waferscale switch: 1-cycle on-wafer hops, 11-cycle sub-switches
	// with proprietary routing (2-cycle ingress RC, 1-cycle elsewhere).
	wsCfg := sim.Config{
		NumVCs: 16, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 2, RCOther: 1, PipeDelay: 9, TermDelay: 8,
		WarmupCycles: 1000, MeasureCycles: 2000, Seed: 42,
	}
	// Equivalent discrete network: 8-cycle rack links, 15-cycle boxes
	// with full Layer-3 lookup at every hop.
	netCfg := sim.Config{
		NumVCs: 16, BufPerPort: 32, PacketFlits: 4,
		RCIngress: 4, RCOther: 4, PipeDelay: 11, TermDelay: 8,
		WarmupCycles: 1000, MeasureCycles: 2000, Seed: 42,
	}

	injf := sim.SyntheticInjector(traffic.Uniform(ports), 4)
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

	// Both fabrics' points run on one worker pool, longest first.
	res, err := sim.Sweeps([]sim.Series{
		{Name: "waferscale", Inject: injf, Loads: loads, Build: func() (*sim.Network, error) {
			return sim.Build(clos, sim.ConstantLatency(1), wsCfg)
		}},
		{Name: "network", Inject: injf, Loads: loads, Build: func() (*sim.Network, error) {
			return sim.Build(clos, sim.ConstantLatency(8), netCfg)
		}},
	}, sim.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	wsStats, netStats := res[0].Stats(), res[1].Stats()

	fmt.Println("load   WS latency  WS accepted   net latency  net accepted")
	for i := range loads {
		fmt.Printf("%.2f   %9.1f  %11.3f   %11.1f  %12.3f\n",
			loads[i], wsStats[i].AvgLatency, wsStats[i].Accepted,
			netStats[i].AvgLatency, netStats[i].Accepted)
	}
	fmt.Printf("\nsaturation throughput: waferscale %.3f vs network %.3f\n",
		sim.SaturationThroughput(wsStats), sim.SaturationThroughput(netStats))
	fmt.Println("(one cycle = 20 ns, as in the paper)")
}
