package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
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

func shardTestConfig() Config {
	return Config{
		NumVCs: 2, BufPerPort: 8, PacketFlits: 2,
		RCIngress: 1, RCOther: 1, PipeDelay: 1, TermDelay: 1,
		WarmupCycles: 40, MeasureCycles: 120, Seed: 17,
	}
}

// TestPartitionRoutersProperties checks the structural contract for
// every feasible shard count on two topologies: cuts start at 0, end at
// R, are strictly ascending (every shard owns at least one router), and
// the matching terminal ranges tile [0, T).
func TestPartitionRoutersProperties(t *testing.T) {
	tops := map[string]*topo.Topology{
		"clos": testClos(t),
		"mesh": testMesh4x4(t),
	}
	for name, top := range tops {
		n, err := Build(top, ConstantLatency(1), shardTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		ts := n.termStarts()
		if ts[0] != 0 || ts[n.R] != n.T {
			t.Fatalf("%s: termStarts spans [%d,%d), want [0,%d)", name, ts[0], ts[n.R], n.T)
		}
		for r := 0; r < n.R; r++ {
			if ts[r+1] < ts[r] {
				t.Fatalf("%s: termStarts not monotone at router %d", name, r)
			}
		}
		for shards := 1; shards <= n.R; shards++ {
			cuts := n.partitionRouters(shards)
			if len(cuts) != shards+1 || cuts[0] != 0 || cuts[shards] != n.R {
				t.Fatalf("%s shards=%d: bad cut frame %v (R=%d)", name, shards, cuts, n.R)
			}
			for s := 0; s < shards; s++ {
				if cuts[s+1] <= cuts[s] {
					t.Fatalf("%s shards=%d: empty shard %d in cuts %v", name, shards, s, cuts)
				}
			}
		}
	}
}

// TestPartitionRoutersMeshRowAligned pins the grid fast path: on a
// row-major mesh with shards <= rows, every cut must fall on a row
// boundary — the minimum-crossing split.
func TestPartitionRoutersMeshRowAligned(t *testing.T) {
	n, err := Build(testMesh4x4(t), ConstantLatency(1), shardTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 4} {
		for _, c := range n.partitionRouters(shards) {
			if c%n.meshCols != 0 {
				t.Errorf("shards=%d: cut %d not row-aligned (cols=%d)", shards, c, n.meshCols)
			}
		}
	}
}

// TestRunShardedObserverErrors: the two remaining serial-only features
// — the flight recorder (a single globally ordered event ring) and
// convergence-bounded measurement — must be rejected with an error
// naming the serial path, before any goroutine is spawned. Timeline,
// attribution and the checker are shard-aware and covered by the
// positive equivalence tests below.
func TestRunShardedObserverErrors(t *testing.T) {
	top := testClos(t)
	inj := RateInjector{Load: 0.1, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}
	t.Run("tracer", func(t *testing.T) {
		n, err := Build(top, ConstantLatency(1), shardTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		n.Trace(obs.NewFlightRecorder(128))
		if _, err := n.RunSharded(inj, 0.1, 2); err == nil {
			t.Fatal("RunSharded accepted a flight recorder")
		} else if !strings.Contains(err.Error(), "shards=1") {
			t.Fatalf("error %q does not name the serial path", err)
		}
	})
	t.Run("convergence", func(t *testing.T) {
		cfg := shardTestConfig()
		cfg.ConvergeRelErr = 0.05
		n, err := Build(top, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.RunSharded(inj, 0.1, 2); err == nil {
			t.Fatal("RunSharded accepted convergence-bounded measurement")
		} else if !strings.Contains(err.Error(), "shards=1") {
			t.Fatalf("error %q does not name the serial path", err)
		}
	})
}

// TestRunShardedTimelineByteIdentical: a timeline attached to a sharded
// run must produce the identical sample series — every window's
// injected/ejected/retired counts, latency sum, P99, top utilization and
// occupancy, rendered to the same JSON bytes — as the serial run, for
// shard counts that do and do not divide the router count, and for a
// sampler small enough that compaction (interval doubling) fires
// mid-run.
func TestRunShardedTimelineByteIdentical(t *testing.T) {
	top := testClos(t)
	cfg := shardTestConfig()
	inj := RateInjector{Load: 0.4, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}
	samplers := []struct {
		name               string
		interval, capacity int
	}{
		{"plain", 16, 64},
		{"compacting", 8, 8},
	}
	for _, sp := range samplers {
		ser, err := Build(top, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		stl := obs.NewTimeline(sp.interval, sp.capacity)
		ser.AttachTimeline(stl)
		serSt := ser.Run(inj, 0.4)
		want, err := json.Marshal(stl.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", sp.name, shards), func(t *testing.T) {
				shn, err := Build(top, ConstantLatency(1), cfg)
				if err != nil {
					t.Fatal(err)
				}
				htl := obs.NewTimeline(sp.interval, sp.capacity)
				shn.AttachTimeline(htl)
				shSt, err := shn.RunSharded(inj, 0.4, shards)
				if err != nil {
					t.Fatal(err)
				}
				if shSt != serSt {
					t.Fatalf("stats diverge:\n  serial  %+v\n  sharded %+v", serSt, shSt)
				}
				got, err := json.Marshal(htl.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("timeline snapshots diverge:\n  serial  %s\n  sharded %s", want, got)
				}
			})
		}
	}
}

// TestRunShardedAttributionByteIdentical: congestion attribution on a
// sharded run — per-stage stall cycles, per-router heatmap rows, blame
// counters including cross-shard blame on boundary channels — must
// snapshot to the same JSON bytes as the serial run.
func TestRunShardedAttributionByteIdentical(t *testing.T) {
	top := testClos(t)
	cfg := shardTestConfig()
	inj := RateInjector{Load: 0.4, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}

	ser, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sat := ser.NewAttribution()
	if err := ser.AttachAttribution(sat); err != nil {
		t.Fatal(err)
	}
	serSt := ser.Run(inj, 0.4)
	want, err := json.Marshal(sat.Snapshot(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 4} {
		shn, err := Build(top, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		hat := shn.NewAttribution()
		if err := shn.AttachAttribution(hat); err != nil {
			t.Fatal(err)
		}
		shSt, err := shn.RunSharded(inj, 0.4, shards)
		if err != nil {
			t.Fatal(err)
		}
		if shSt != serSt {
			t.Fatalf("shards=%d: stats diverge:\n  serial  %+v\n  sharded %+v", shards, serSt, shSt)
		}
		got, err := json.Marshal(hat.Snapshot(8))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("shards=%d: attribution snapshots diverge:\n  serial  %s\n  sharded %s", shards, want, got)
		}
	}
}

// TestRunShardedSaturatedObservers drives a sharded run into the
// early-abort path with timeline and attribution attached: the timeline
// must carry the serial truncation mark, the attribution snapshot must
// match byte for byte, and the backpressure root-cause report plus the
// saturation post-mortem — captured automatically on the non-drained
// sharded run — must equal the serial ones.
func TestRunShardedSaturatedObservers(t *testing.T) {
	top := testClos(t)
	cfg := shardTestConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 2000
	inj := RateInjector{Load: 0.95, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}

	run := func(shards int) (Stats, string, string, string, string, error) {
		n, err := Build(top, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetAbort(&AbortOptions{})
		tl := obs.NewTimeline(32, 64)
		n.AttachTimeline(tl)
		at := n.NewAttribution()
		if err := n.AttachAttribution(at); err != nil {
			t.Fatal(err)
		}
		var st Stats
		if shards > 1 {
			st, err = n.RunSharded(inj, 0.95, shards)
			if err != nil {
				return st, "", "", "", "", err
			}
		} else {
			st = n.Run(inj, 0.95)
		}
		tj, err := json.Marshal(tl.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		aj, err := json.Marshal(at.Snapshot(8))
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(n.Backpressure())
		if err != nil {
			t.Fatal(err)
		}
		return st, string(tj), string(aj), string(bj), n.SaturationPostMortem(st), nil
	}

	serSt, serTL, serAt, serBP, serPM, _ := run(1)
	if !serSt.Aborted {
		t.Fatalf("saturation case did not abort; test is vacuous (stats %+v)", serSt)
	}
	shSt, shTL, shAt, shBP, shPM, err := run(4)
	if err != nil {
		t.Fatal(err)
	}
	if shSt != serSt {
		t.Fatalf("stats diverge:\n  serial  %+v\n  sharded %+v", serSt, shSt)
	}
	if shTL != serTL {
		t.Errorf("truncated timeline snapshots diverge:\n  serial  %s\n  sharded %s", serTL, shTL)
	}
	if shAt != serAt {
		t.Errorf("attribution snapshots diverge:\n  serial  %s\n  sharded %s", serAt, shAt)
	}
	if shBP != serBP {
		t.Errorf("backpressure reports diverge:\n  serial  %s\n  sharded %s", serBP, shBP)
	}
	if shPM != serPM {
		t.Errorf("saturation post-mortems diverge:\n  serial  %s\n  sharded %s", serPM, shPM)
	}
}

// TestRunShardedCheckerClean: the invariant checker riding a sharded run
// of a deadlock-free configuration must pass — same conservation, credit
// and VC-integrity scans at the serial cadence, no spurious findings —
// and must not perturb the run's stats.
func TestRunShardedCheckerClean(t *testing.T) {
	for name, top := range map[string]*topo.Topology{"clos": testClos(t), "mesh": testMesh4x4(t)} {
		t.Run(name, func(t *testing.T) {
			cfg := shardTestConfig()
			inj := RateInjector{Load: 0.4, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}
			ser, err := Build(top, ConstantLatency(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			serSt := ser.Run(inj, 0.4)

			shn, err := Build(top, ConstantLatency(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := shn.Check(CheckOptions{Every: 7}); err != nil {
				t.Fatal(err)
			}
			shSt, err := shn.RunSharded(inj, 0.4, 3)
			if err != nil {
				t.Fatal(err)
			}
			if v := shn.CheckViolations(); len(v) != 0 {
				t.Fatalf("sharded checker found %d violations on a clean run; first: %s", len(v), v[0])
			}
			if shSt != serSt {
				t.Fatalf("checker perturbed sharded stats:\n  unchecked serial %+v\n  checked sharded  %+v", serSt, shSt)
			}
		})
	}
}

// TestRunShardedProbeMerge: a probe attached to a sharded run must
// report exactly the serial counters — per-router stalls and occupancy,
// per-channel flits, injected/ejected totals and the cycle count —
// after the deterministic shard merge.
func TestRunShardedProbeMerge(t *testing.T) {
	top := testClos(t)
	cfg := shardTestConfig()
	inj := RateInjector{Load: 0.4, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}

	ser, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := ser.NewProbe()
	if err := ser.AttachProbe(sp); err != nil {
		t.Fatal(err)
	}
	serSt := ser.Run(inj, 0.4)

	shn, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hp := shn.NewProbe()
	if err := shn.AttachProbe(hp); err != nil {
		t.Fatal(err)
	}
	shSt, err := shn.RunSharded(inj, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if shSt != serSt {
		t.Fatalf("stats diverge:\n  serial  %+v\n  sharded %+v", serSt, shSt)
	}
	if hp.Cycles != sp.Cycles || hp.Injected != sp.Injected || hp.Ejected != sp.Ejected {
		t.Fatalf("probe totals diverge: serial cycles=%d inj=%d ej=%d, sharded cycles=%d inj=%d ej=%d",
			sp.Cycles, sp.Injected, sp.Ejected, hp.Cycles, hp.Injected, hp.Ejected)
	}
	if !reflect.DeepEqual(hp.Routers, sp.Routers) {
		for r := range sp.Routers {
			if hp.Routers[r] != sp.Routers[r] {
				t.Fatalf("router %d counters diverge: serial %+v, sharded %+v", r, sp.Routers[r], hp.Routers[r])
			}
		}
	}
	if !reflect.DeepEqual(hp.Channels, sp.Channels) {
		for c := range sp.Channels {
			if hp.Channels[c] != sp.Channels[c] {
				t.Fatalf("channel %d counters diverge: serial %+v, sharded %+v", c, sp.Channels[c], hp.Channels[c])
			}
		}
	}
}

// TestRunShardedSteadyStateAllocs gates the sharded steady state's
// zero-alloc contract. A whole-run benchmark cannot see it — setup
// legitimately allocates the per-shard layouts, ring slabs and
// outboxes — so this measures differentially: a run with 2400 extra
// measurement cycles must not allocate meaningfully more than a short
// one. The shared packet table is preallocated to the live-packet
// bound, shard freelists are capacity-bounded, and outboxes stabilize
// after warmup, so the only tolerated growth is the barrier-schedule
// slice (amortized appends) and runtime-internal jitter.
func TestRunShardedSteadyStateAllocs(t *testing.T) {
	top := testClos(t)
	inj := RateInjector{Load: 0.4, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}
	runAllocs := func(measure int) uint64 {
		cfg := shardTestConfig()
		cfg.MeasureCycles = measure
		n, err := Build(top, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := n.RunSharded(inj, 0.4, 4); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	base, long := runAllocs(600), runAllocs(3000)
	if extra := int64(long) - int64(base); extra > 128 {
		t.Errorf("2400 extra steady-state cycles cost %d allocations (base run %d, long run %d); the sharded steady state must not allocate per cycle",
			extra, base, long)
	}
}

// TestRunShardedObserverAllocs extends the differential zero-alloc gate
// to the observer-on sharded steady state: with a timeline and an
// attribution collector attached, 2400 extra measurement cycles must
// stay allocation-free on the cycle path. Tolerated growth is the
// timeline's amortized sample appends (the long run closes ~75 more
// windows) plus runtime jitter.
func TestRunShardedObserverAllocs(t *testing.T) {
	top := testClos(t)
	inj := RateInjector{Load: 0.4, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}
	runAllocs := func(measure int) uint64 {
		cfg := shardTestConfig()
		cfg.MeasureCycles = measure
		n, err := Build(top, ConstantLatency(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.AttachTimeline(obs.NewTimeline(32, 128))
		if err := n.AttachAttribution(n.NewAttribution()); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := n.RunSharded(inj, 0.4, 4); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	base, long := runAllocs(600), runAllocs(3000)
	if extra := int64(long) - int64(base); extra > 128 {
		t.Errorf("2400 extra observer-on steady-state cycles cost %d allocations (base run %d, long run %d); observers must not allocate per cycle",
			extra, base, long)
	}
}

// TestRunShardedAbortEquivalence: with the early-abort detector armed,
// a saturated sharded run must abort at exactly the serial check cycle
// with identical Stats — the detector's decisions see globally merged
// counters at the serial cadence.
func TestRunShardedAbortEquivalence(t *testing.T) {
	top := testClos(t)
	cfg := shardTestConfig()
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 2000
	inj := RateInjector{Load: 0.95, Pattern: traffic.Uniform(top.ExternalPorts()), PacketFlits: 2}

	ser, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ser.SetAbort(&AbortOptions{})
	serSt := ser.Run(inj, 0.95)

	shn, err := Build(top, ConstantLatency(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	shn.SetAbort(&AbortOptions{})
	shSt, err := shn.RunSharded(inj, 0.95, 4)
	if err != nil {
		t.Fatal(err)
	}
	if shSt != serSt {
		t.Fatalf("aborted stats diverge:\n  serial  %+v\n  sharded %+v", serSt, shSt)
	}
	if !serSt.Aborted {
		t.Fatalf("abort case did not abort; test is vacuous (stats %+v)", serSt)
	}
}
