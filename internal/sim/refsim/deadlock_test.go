package refsim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
)

// The invariant checker surfaced one finding when run across the
// simulator's existing configurations: BFS minimal routing on the
// flattened butterfly and dragonfly is not deadlock-free. With a single
// VC, minimal buffers and near-saturation load, wormhole channel
// dependencies close a cycle and the network wedges. This is a modeling
// property, not a simulator bug — those topologies need escape VCs or
// Valiant routing, which the simulator intentionally does not implement
// (the paper's waferscale switch is a Clos) — so the behaviour is
// documented here and pinned: the watchdog must detect the wedge, both
// simulator implementations must wedge identically, and the
// deadlock-free families must never wedge. Spec.DeadlockFree encodes
// the split and the fuzz harness disables the watchdog accordingly.

// deadlockSpec is a pinned (seed, config) tuple that deterministically
// deadlocks: dragonfly g=4 a=2 h=2 p=1, single VC, Buf == Pkt, load
// 0.95 (found by scanning; wedges within ~200 cycles).
func deadlockSpec() Spec {
	return Spec{Family: "dfly", Size: 1, Pattern: "uniform",
		LinkLat: 1, VCs: 1, Buf: 2, Pkt: 2, RCI: 1, RCO: 1,
		Pipe: 0, Term: 1, Warmup: 100, Measure: 1500, Drain: 4000,
		Seed: 2, Load: 0.95}
}

// TestKnownDeadlockDetected: the watchdog must flag the pinned
// dragonfly deadlock and dump the stuck routers.
func TestKnownDeadlockDetected(t *testing.T) {
	s := deadlockSpec()
	top, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := s.Injector(top.ExternalPorts())
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.Build(top, sim.ConstantLatency(s.LinkLat), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(sim.CheckOptions{Watchdog: 1200}); err != nil {
		t.Fatal(err)
	}
	st := n.Run(inj, s.Load)
	if st.Drained {
		t.Fatalf("pinned deadlock config drained: %+v (spec %s)", st, s)
	}
	errv := n.CheckErr()
	if errv == nil {
		t.Fatalf("watchdog missed the pinned deadlock (spec %s)", s)
	}
	if !strings.Contains(errv.Error(), "deadlock") || !strings.Contains(errv.Error(), "router") {
		t.Fatalf("deadlock report incomplete: %v", errv)
	}
}

// TestDeadlockDumpIncludesFlightRecorder: with a flight recorder
// attached, the watchdog's dump must quote each stuck router's last
// lifecycle events — the post-mortem showing what the router was doing
// when progress stopped.
func TestDeadlockDumpIncludesFlightRecorder(t *testing.T) {
	s := deadlockSpec()
	top, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := s.Injector(top.ExternalPorts())
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.Build(top, sim.ConstantLatency(s.LinkLat), s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Check(sim.CheckOptions{Watchdog: 1200}); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(1 << 14)
	n.Trace(rec)
	n.Run(inj, s.Load)
	errv := n.CheckErr()
	if errv == nil {
		t.Fatalf("watchdog missed the pinned deadlock (spec %s)", s)
	}
	msg := errv.Error()
	if !strings.Contains(msg, "trace:") {
		t.Fatalf("deadlock dump has no flight-recorder excerpt:\n%v", msg)
	}
	// The excerpt lines are rendered TraceEvents; at least one must name
	// a pipeline stage.
	if !strings.Contains(msg, " rc ") && !strings.Contains(msg, " va ") && !strings.Contains(msg, " st ") {
		t.Errorf("trace excerpt lines carry no pipeline stage:\n%v", msg)
	}
	// And the traced wedge still exports as Chrome trace JSON.
	var buf bytes.Buffer
	if err := n.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("wedge trace is invalid JSON: %v", err)
	}
}

// TestKnownDeadlockEquivalent: both simulators must wedge identically
// on the pinned config — the deadlock is part of the modeled behaviour,
// so the differential contract covers it too.
func TestKnownDeadlockEquivalent(t *testing.T) {
	s := deadlockSpec()
	rep, err := s.Diff()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("simulators diverge on the pinned deadlock:\n%s", rep.Summary())
	}
	if rep.Opt.Drained {
		t.Fatalf("pinned deadlock config drained: %+v", rep.Opt)
	}
}

// TestDeadlockFreeFamiliesNeverWedge: the same adversarial pressure
// (single VC, Buf == Pkt, load 0.95) must never trip the watchdog on
// the deadlock-free families — up/down Clos routing and mesh DOR have
// acyclic channel dependencies regardless of load.
func TestDeadlockFreeFamiliesNeverWedge(t *testing.T) {
	for _, fam := range []string{"clos", "mesh"} {
		for size := 0; size < 3; size++ {
			for seed := int64(1); seed <= 3; seed++ {
				s := deadlockSpec()
				s.Family = fam
				s.Size = size
				s.Seed = seed
				if !s.DeadlockFree() {
					t.Fatalf("%s not marked deadlock-free", fam)
				}
				top, err := s.Build()
				if err != nil {
					t.Fatal(err)
				}
				inj, err := s.Injector(top.ExternalPorts())
				if err != nil {
					t.Fatal(err)
				}
				n, err := sim.Build(top, sim.ConstantLatency(s.LinkLat), s.Config())
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Check(sim.CheckOptions{Watchdog: 1200}); err != nil {
					t.Fatal(err)
				}
				n.Run(inj, s.Load)
				if err := n.CheckErr(); err != nil {
					t.Fatalf("%s (spec %s): checker fired on a deadlock-free family: %v", fam, s, err)
				}
			}
		}
	}
}
