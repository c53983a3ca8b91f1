package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

func testMesh4x4(t *testing.T) *topo.Topology {
	t.Helper()
	chip, err := ssc.MustTH5(200).Deradix(8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.MeshTopo(4, 4, chip, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// shortTestConfig is a small router with short windows: a run on the
// test fabrics takes milliseconds.
func shortTestConfig() Config {
	return Config{
		NumVCs: 2, BufPerPort: 8, PacketFlits: 2,
		RCIngress: 1, RCOther: 1, PipeDelay: 1, TermDelay: 1,
		WarmupCycles: 40, MeasureCycles: 120, Seed: 17,
	}
}

// resetFamilies returns one topology per routing family: up/down BFS on
// the Clos, row-first minimal routing on the mesh and the flattened
// butterfly, and BFS minimal routing on the dragonfly (the family whose
// configurations can wormhole-deadlock — a Reset network must stall and
// hit the drain deadline exactly like a fresh one).
func resetFamilies(t *testing.T) map[string]*topo.Topology {
	t.Helper()
	chip16, err := ssc.MustTH5(200).Deradix(16)
	if err != nil {
		t.Fatal(err)
	}
	fbfly, err := topo.FlattenedButterfly(2, 3, chip16)
	if err != nil {
		t.Fatal(err)
	}
	dfly, err := topo.Dragonfly(3, 2, 1, 1, chip16)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topo.Topology{
		"clos":  testClos(t),
		"mesh":  testMesh4x4(t),
		"fbfly": fbfly,
		"dfly":  dfly,
	}
}

// TestResetEquivalence is the build-vs-reset equivalence suite. Each
// routing family keeps a small pool of networks and reuses it the way
// sweep workers reuse theirs: at shards=N the loads are dealt
// round-robin across N networks (the grid has three points, so N=4
// clamps to three), each network is Reset before every run, and every
// run must be indistinguishable — Stats, latency histogram, probe
// snapshot JSON, and the ordered delivery log — from a network freshly
// built for that load. The pool persists across N and grows only when
// a wider deal first needs a network, so the first network runs six
// times (reset-after-reset, and the low-after-high load transitions
// between deals) while the last one is Reset before it has ever run.
// The shards= key names the pool width; the subtest names are kept
// from when it was the single-sim engine's shard count.
func TestResetEquivalence(t *testing.T) {
	cfg := shortTestConfig()
	loads := []float64{0.1, 0.4, 0.7}
	for name, top := range resetFamilies(t) {
		t.Run(name, func(t *testing.T) {
			inj := func(load float64) Injector {
				return RateInjector{Load: load, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: cfg.PacketFlits}
			}
			var pool []*Network
			for _, shards := range []int{1, 2, 4} {
				for k, load := range loads {
					t.Run(fmt.Sprintf("shards=%d/load=%g", shards, load), func(t *testing.T) {
						run := func(n *Network) (Stats, string, []Delivery) {
							n.RecordDeliveries()
							n.AttachProbe()
							st := n.Run(inj(load), load)
							snap, err := json.Marshal(n.Snapshot())
							if err != nil {
								t.Fatal(err)
							}
							return st, string(snap), n.Deliveries()
						}
						fresh, err := Build(top, ConstantLatency(1), cfg)
						if err != nil {
							t.Fatal(err)
						}
						wantSt, wantSnap, wantDel := run(fresh)
						wantHist := fresh.LatencyHistogram()

						w := k % shards
						for len(pool) <= w {
							n, err := Build(top, ConstantLatency(1), cfg)
							if err != nil {
								t.Fatal(err)
							}
							pool = append(pool, n)
						}
						reused := pool[w]
						reused.Reset(cfg.Seed)
						gotSt, gotSnap, gotDel := run(reused)
						gotHist := reused.LatencyHistogram()

						if gotSt != wantSt {
							t.Errorf("stats diverge:\n  fresh %+v\n  reset %+v", wantSt, gotSt)
						}
						if !gotHist.Equal(&wantHist) {
							t.Errorf("latency histograms diverge: fresh n=%d sum=%g, reset n=%d sum=%g",
								wantHist.Count(), wantHist.Sum(), gotHist.Count(), gotHist.Sum())
						}
						if gotSnap != wantSnap {
							t.Errorf("probe snapshots diverge:\n  fresh %s\n  reset %s", wantSnap, gotSnap)
						}
						if len(gotDel) != len(wantDel) {
							t.Fatalf("delivery counts diverge: fresh %d, reset %d", len(wantDel), len(gotDel))
						}
						for i := range wantDel {
							if gotDel[i] != wantDel[i] {
								t.Fatalf("delivery log diverges at index %d: fresh %+v, reset %+v", i, wantDel[i], gotDel[i])
							}
						}
					})
				}
			}
		})
	}
}

// TestResetDetachesEveryObserver attaches every instrument a Network
// supports, runs a saturated point and Resets: the observers struct must
// come back zero, field by field, so an instrument added to it later is
// covered here without editing the test. The timeline's scratch array
// is kept for reattachment, and must come back zeroed.
func TestResetDetachesEveryObserver(t *testing.T) {
	cfg := shortTestConfig()
	n, err := Build(testClos(t), ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.AttachProbe()
	n.AttachTimeline(obs.NewTimeline(50, 0))
	n.Trace(obs.NewFlightRecorder(1024))
	n.AttachAttribution()
	if err := n.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	n.RecordDeliveries()
	n.ArmAbort()
	const load = 0.95
	if st := n.Run(RateInjector{Load: load, Pattern: traffic.Uniform(n.T), PacketFlits: cfg.PacketFlits}, load); st.Drained {
		t.Fatalf("load %g drained; the test needs a saturated point", load)
	}
	n.Reset(cfg.Seed)
	if v := reflect.ValueOf(n.observers); !v.IsZero() {
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				t.Errorf("Reset left observer %s attached", v.Type().Field(i).Name)
			}
		}
	}
	if n.tlChanFlits == nil {
		t.Error("Reset freed the timeline scratch; reattaching would allocate")
	}
	if slices.ContainsFunc(n.tlChanFlits, func(f int32) bool { return f != 0 }) {
		t.Error("Reset left timeline scratch nonzero")
	}
}

// TestBaseSeedSurvivesReseed: Reseed and Reset reseed the random
// streams only, so BaseSeed keeps returning the seed the network was
// built with, the one every sweep point's seed derives from.
func TestBaseSeedSurvivesReseed(t *testing.T) {
	cfg := shortTestConfig()
	n, err := Build(testClos(t), ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Reseed(cfg.Seed + 5)
	if got := n.BaseSeed(); got != cfg.Seed {
		t.Errorf("after Reseed, BaseSeed = %d, want the built seed %d", got, cfg.Seed)
	}
	n.Reset(cfg.Seed + 9)
	if got := n.BaseSeed(); got != cfg.Seed {
		t.Errorf("after Reset, BaseSeed = %d, want the built seed %d", got, cfg.Seed)
	}
}

// TestRouteCacheShared pins the immutable-topology split: two networks
// built from content-identical topologies — including a separately
// constructed copy, and builds under different simulator configs — must
// alias the same route tables (routes depend only on the topology, so
// the cache is keyed by topo.CanonicalHash), while a structurally
// different topology must not.
func TestRouteCacheShared(t *testing.T) {
	top := testClos(t)
	cfg := shortTestConfig()
	n1, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &n1.nextFlat[0] != &n2.nextFlat[0] {
		t.Error("two builds of the same topology do not share route tables")
	}
	copyTop := testClos(t) // fresh object, identical content
	cfg2 := cfg
	cfg2.NumVCs, cfg2.BufPerPort = 4, 16
	n3, err := Build(copyTop, ConstantLatency(3), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if &n1.nextFlat[0] != &n3.nextFlat[0] {
		t.Error("a content-identical topology copy does not share route tables")
	}
	mesh := testMesh4x4(t)
	if top.CanonicalHash() == mesh.CanonicalHash() {
		t.Fatal("clos and mesh hash identically; route-table separation is untestable")
	}
	m, err := Build(mesh, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &m.nextFlat[0] == &n1.nextFlat[0] {
		t.Error("different topologies share route tables")
	}
}

// TestSweepReuseAllocs is the differential allocation gate on warm
// sweeps: once a network is warm (built and swept once, so every
// internal slice has reached steady capacity), a further identical
// sweep served by Resetting it must allocate almost nothing — no Build,
// no Reset allocations, just the sweep engine's per-point result slices
// and the boxed per-point injectors — and in particular far less than a
// cold sweep that constructs its worker network.
func TestSweepReuseAllocs(t *testing.T) {
	top := testClos(t)
	cfg := shortTestConfig()
	build := func() (*Network, error) { return Build(top, ConstantLatency(1), cfg) }
	injf := SyntheticInjector(traffic.Uniform(top.ExternalPorts()), cfg.PacketFlits)
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	sweep := func(b Builder) func() {
		return func() {
			res, err := Sweep(b, injf, loads, SweepOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Points) != len(loads) {
				t.Fatalf("sweep returned %d points", len(res.Points))
			}
		}
	}

	cold := mallocs(sweep(build))
	n, err := build()
	if err != nil {
		t.Fatal(err)
	}
	// reuse hands out the one network, Reset to its built state.
	base := n.BaseSeed()
	reuse := func() (*Network, error) { n.Reset(base); return n, nil }
	sweep(reuse)() // warm: let every slice reach steady capacity
	warm := mallocs(sweep(reuse))
	if warm*4 > cold {
		t.Errorf("warm sweep allocated %d objects vs %d cold; reuse must eliminate per-sweep construction", warm, cold)
	}
	if perPoint := warm / uint64(len(loads)); perPoint > 32 {
		t.Errorf("warm sweep allocated %d objects (%d/point); the steady-state point path must be allocation-free beyond the engine's own bookkeeping",
			warm, perPoint)
	}
}
