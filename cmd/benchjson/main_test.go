package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkSimCycle-8   \t 1234\t    987.6 ns/op\t       0 B/op\t       0 allocs/op\t      1.000 cycles/op")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if b.Name != "SimCycle" || b.Procs != 8 || b.Iterations != 1234 {
		t.Errorf("parsed %+v", b)
	}
	want := map[string]float64{"ns/op": 987.6, "B/op": 0, "allocs/op": 0, "cycles/op": 1}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Errorf("%s = %v, want %v", unit, b.Metrics[unit], v)
		}
	}

	// No -procs suffix (GOMAXPROCS=1) and sub-benchmark names.
	b, ok = parseLine("BenchmarkSweep/serial 	 5	 200 ns/op")
	if !ok || b.Name != "Sweep/serial" || b.Procs != 1 || b.Metrics["ns/op"] != 200 {
		t.Errorf("parsed %+v ok=%v", b, ok)
	}

	for _, bad := range []string{
		"PASS",
		"ok  \twaferswitch/internal/sim\t7.4s",
		"goos: linux",
		"BenchmarkBroken-4 notanumber 5 ns/op",
		"BenchmarkNoMetrics-4 100",
	} {
		if _, ok := parseLine(bad); ok {
			t.Errorf("line %q wrongly accepted as a benchmark", bad)
		}
	}
}

// bench builds a one-benchmark Output for the compare tests.
func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Procs: 1, Iterations: 1,
		Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

// benchB is bench with an explicit B/op, for the zero-alloc byte guard.
func benchB(name string, ns, allocs, bytes float64) Benchmark {
	b := bench(name, ns, allocs)
	b.Metrics["B/op"] = bytes
	return b
}

func TestCompare(t *testing.T) {
	base := &Output{Benchmarks: []Benchmark{
		bench("SimSteadyState", 46000, 0),
		bench("SweepSerial", 235000000, 100),
	}}
	cases := []struct {
		name       string
		fresh      *Output
		violations int
	}{
		{"unchanged", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 46000, 0),
			bench("SweepSerial", 235000000, 100),
		}}, 0},
		{"within tolerance", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 52000, 0), // +13%
			bench("SweepSerial", 240000000, 100),
		}}, 0},
		{"ns regression", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 60000, 0), // +30%
			bench("SweepSerial", 235000000, 100),
		}}, 1},
		{"alloc regression on zero-alloc baseline", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 46000, 2),
			bench("SweepSerial", 235000000, 100),
		}}, 1},
		// A nonzero-alloc baseline may drift within tolerance plus the
		// absolute slack (parallel sweeps legitimately swing by up to a
		// network build depending on which workers win points)...
		{"alloc drift on nonzero baseline", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 46000, 0),
			bench("SweepSerial", 235000000, 150),
		}}, 0},
		// ...but an order-of-magnitude allocation jump — per-point network
		// construction creeping back into a warm sweep — trips the gate
		// even with ns/op unchanged.
		{"alloc regression on nonzero baseline", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 46000, 0),
			bench("SweepSerial", 235000000, 18000),
		}}, 1},
		{"missing benchmark", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 46000, 0),
		}}, 1},
		{"new benchmark passes freely", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 46000, 0),
			bench("SweepSerial", 235000000, 100),
			bench("SweepAdaptive", 1, 5000),
		}}, 0},
		{"everything at once", &Output{Benchmarks: []Benchmark{
			bench("SimSteadyState", 999999, 3), // ns + allocs
		}}, 3}, // plus SweepSerial missing
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := compare(base, tc.fresh, 15)
			if len(got) != tc.violations {
				t.Errorf("got %d violations, want %d: %v", len(got), tc.violations, got)
			}
		})
	}
}

func TestCompareBytesOnZeroAllocBaseline(t *testing.T) {
	base := &Output{Benchmarks: []Benchmark{
		benchB("SimCycleSaturated/clos", 32000, 0, 900),
		benchB("SweepSerial", 235000000, 100, 4096),
	}}
	cases := []struct {
		name       string
		fresh      *Output
		violations int
	}{
		// B/op on a zero-alloc benchmark is amortized warmup bytes and
		// jitters with the iteration count; tolerance plus the absolute
		// slack must absorb that.
		{"jitter within slack", &Output{Benchmarks: []Benchmark{
			benchB("SimCycleSaturated/clos", 32000, 0, 1400), // 900*1.15+512 = 1547
			benchB("SweepSerial", 235000000, 100, 4096),
		}}, 0},
		{"bytes leak on zero-alloc baseline", &Output{Benchmarks: []Benchmark{
			benchB("SimCycleSaturated/clos", 32000, 0, 6000),
			benchB("SweepSerial", 235000000, 100, 4096),
		}}, 1},
		// A nonzero-alloc baseline is not byte-gated: its B/op is real
		// steady-state allocation, already visible through allocs/op.
		{"bytes drift on nonzero baseline", &Output{Benchmarks: []Benchmark{
			benchB("SimCycleSaturated/clos", 32000, 0, 900),
			benchB("SweepSerial", 235000000, 100, 90000),
		}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := compare(base, tc.fresh, 15)
			if len(got) != tc.violations {
				t.Errorf("got %d violations, want %d: %v", len(got), tc.violations, got)
			}
		})
	}
}

func TestGeomeanDelta(t *testing.T) {
	base := &Output{Benchmarks: []Benchmark{
		bench("A", 1000, 0),
		bench("B", 2000, 0),
		bench("OnlyInBase", 500, 0),
	}}
	fresh := &Output{Benchmarks: []Benchmark{
		bench("A", 500, 0),  // 0.5x
		bench("B", 4000, 0), // 2x
		bench("OnlyInFresh", 123, 0),
	}}
	ratio, count, ok := geomeanDelta(base, fresh)
	if !ok || count != 2 {
		t.Fatalf("ok=%v count=%d, want ok over 2 common benchmarks", ok, count)
	}
	// geomean(0.5, 2) = 1: the improvement and the regression cancel.
	if ratio < 0.999 || ratio > 1.001 {
		t.Errorf("ratio = %v, want 1", ratio)
	}

	if _, _, ok := geomeanDelta(base, &Output{}); ok {
		t.Error("geomean over zero common benchmarks should report !ok")
	}
}

func TestParseDocument(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: waferswitch
cpu: Imaginary CPU @ 3.0GHz
BenchmarkSimCycle-4         	     100	   1000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	waferswitch	1.1s
pkg: waferswitch/internal/sim
BenchmarkSimSteadyState-4   	     200	    500 ns/op
PASS
`
	out, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Goos != "linux" || out.Goarch != "amd64" || out.CPU != "Imaginary CPU @ 3.0GHz" {
		t.Errorf("header: %+v", out)
	}
	if len(out.Packages) != 2 || out.Packages[1] != "waferswitch/internal/sim" {
		t.Errorf("packages: %v", out.Packages)
	}
	if len(out.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(out.Benchmarks))
	}
	if out.Benchmarks[0].Name != "SimCycle" || out.Benchmarks[0].Metrics["allocs/op"] != 0 {
		t.Errorf("first benchmark: %+v", out.Benchmarks[0])
	}
	if out.Benchmarks[1].Name != "SimSteadyState" || out.Benchmarks[1].Metrics["ns/op"] != 500 {
		t.Errorf("second benchmark: %+v", out.Benchmarks[1])
	}
}

// Results of one benchmark run with -count N reduce to the median of
// each metric and of the iteration count, at the first result's place;
// a benchmark run once, or under other procs, keeps its own result.
func TestParseMedians(t *testing.T) {
	in := `pkg: waferswitch
BenchmarkMappingOptimize-2   	     100	  11000000 ns/op	   61280 B/op	      12 allocs/op
BenchmarkSimCycle-2          	   10000	    110000 ns/op	      64 B/op	       0 allocs/op
BenchmarkMappingOptimize-2   	     110	  30000000 ns/op	   61280 B/op	      12 allocs/op
BenchmarkMappingOptimize-2   	      90	  10000000 ns/op	   61000 B/op	      12 allocs/op
BenchmarkMappingOptimize-2   	     120	  12000000 ns/op	   61280 B/op	      13 allocs/op	 1.5 cycles/op
BenchmarkSimCycle-4          	   20000	     90000 ns/op	      64 B/op	       0 allocs/op
`
	out, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(out.Benchmarks), out.Benchmarks)
	}
	opt := out.Benchmarks[0]
	want := map[string]float64{"ns/op": 11500000, "B/op": 61280, "allocs/op": 12, "cycles/op": 1.5}
	if opt.Name != "MappingOptimize" || opt.Procs != 2 || opt.Iterations != 105 || len(opt.Metrics) != len(want) {
		t.Fatalf("reduced benchmark %+v", opt)
	}
	for unit, v := range want {
		if opt.Metrics[unit] != v {
			t.Errorf("%s = %v, want the median %v", unit, opt.Metrics[unit], v)
		}
	}
	if c := out.Benchmarks[1]; c.Name != "SimCycle" || c.Procs != 2 || c.Metrics["ns/op"] != 110000 {
		t.Errorf("single result changed: %+v", c)
	}
	if c := out.Benchmarks[2]; c.Name != "SimCycle" || c.Procs != 4 || c.Metrics["ns/op"] != 90000 {
		t.Errorf("result under other procs merged: %+v", c)
	}
}
