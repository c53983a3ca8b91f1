package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for wsbench: the benchmark
// re-executes its own binary with -child for every rep.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smoke.json")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	if code := run([]string{"-smoke", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("wsbench -smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	t.Logf("smoke run took %v", time.Since(start).Round(time.Millisecond))
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in results, want %d", len(res.Workloads), len(workloads))
	}
	for _, wr := range res.Workloads {
		if wr.Attempted == 0 || wr.Failed != 0 || wr.Metrics["fail_frac"].Median != 0 {
			t.Errorf("%s: attempted %d failed %d fail_frac %v", wr.Name, wr.Attempted, wr.Failed, wr.Metrics["fail_frac"].Median)
		}
		for _, d := range layerDefs {
			if _, ok := wr.Layers[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, d.name)
			}
		}
	}
}

// A single-workload run ends with one JSON line carrying exactly the
// metrics BENCHMARK.json lists, with its units.
func TestSingleWorkloadLineMatchesSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, wsbench runs %v", names, have)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "designspace", "--seed", "2", "--seconds", "1", "--trace", trace, "-smoke"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exited %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line resultLine
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics emitted, BENCHMARK.json lists %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %v", m.Name, nameRE)
			}
			got, ok := line.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %s: %s not emitted", trace, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("trace %s: %s unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

// The traced pass drives sweep points with its own loop so that each
// point gets a span; it must simulate exactly what sim.Sweep does.
func TestTracedLoopMatchesSweep(t *testing.T) {
	for _, spec := range []sweepSpec{lowload, saturated} {
		run, err := spec.setup(3, true)
		if err != nil {
			t.Fatal(err)
		}
		untraced := run(nil, 0)
		tr := newTracer()
		traced := run(tr, tr.begin("run", 0, 0, false))
		if f := append(untraced.failures(), traced.failures()...); len(f) > 0 {
			t.Errorf("loads %v: failures %v", spec.loads, f)
		}
		if untraced.digest != traced.digest {
			t.Errorf("loads %v: traced loop digest %s, sim.Sweep %s", spec.loads, traced.digest, untraced.digest)
		}
		count := map[string]int{}
		for _, s := range tr.snapshot() {
			if s.Op {
				count["op"]++
			} else {
				count[s.Name]++
			}
		}
		if ops := spec.ops(true); count["op"] != ops || count["sim.Run"] != ops || count["sim.Build"]+count["sim.Reset"] != ops {
			t.Errorf("loads %v: span counts %v for %d points", spec.loads, count, ops)
		}
		if count["sim.Build"] > 2*workers {
			t.Errorf("loads %v: %d builds, want at most one per worker per fabric", spec.loads, count["sim.Build"])
		}
	}
}
