// Command wsbench is the repository's benchmark. It times the paper's
// simulator sweeps, figure runs and design-space search end to end,
// checks their outputs against pinned digests and the paper's bands, and
// makes a traced pass that attributes the time to each layer. Every rep
// runs in a fresh child process, one child at a time. See
// bench/README.md.
//
//	bash bench/run.sh                                 # every workload, round by round, then the traced pass
//	bash bench/run.sh -o head.json -trace-out trace.json
//	bash bench/run.sh -compare base.json head.json
//	bash bench/run.sh --workload lowload --seed 3 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with a one-line JSON result (default: every workload, then the traced pass)")
	seed := fs.Int64("seed", 1, "input seed, passed to sim.Config.Seed and expt.Options.Seed (designspace runs at expt's default seed)")
	seconds := fs.Int("seconds", 30, "measured seconds per workload: reps start, round by round across the workloads, until about this long has been measured")
	trace := fs.Int("trace", 0, "with -workload: 1 reports the traced pass's per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans to this file as Chrome trace-event JSON")
	out := fs.String("o", "", "write the results to this file as JSON, for -compare")
	compare := fs.Bool("compare", false, "compare two results files: -compare base.json head.json")
	pin := fs.Bool("pin", false, "merge results files into a baseline, printed for bench/wsbench/baseline.json: -pin a.json b.json ...")
	smoke := fs.Bool("smoke", false, "one rep of each workload with shrunken windows and fewer experiments, no digest pins")
	child := fs.String("child", "", "internal: run one rep of this workload (or \"probes\") in this process")
	setupOnly := fs.Bool("setup-only", false, "internal, with -child: stop after set-up")
	traced := fs.Bool("traced", false, "internal, with -child: record spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "wsbench:", err)
		return 1
	}

	if *child != "" {
		if err := runChild(childArgs{*child, *seed, *smoke, *setupOnly, *traced}, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: wsbench -compare base.json head.json")
			return 2
		}
		spec, err := loadSpec()
		if err != nil {
			return fail(err)
		}
		base, err := readResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		head, err := readResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compareResults(stdout, base, head, spec) {
			return 1
		}
		return 0
	}
	if *pin {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "usage: wsbench -pin results.json...")
			return 2
		}
		if err := writePin(stdout, fs.Args()); err != nil {
			return fail(err)
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "wsbench: -trace takes 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "wsbench: -seconds must be at least 1")
		return 2
	}

	pins, err := loadBaseline()
	if err != nil {
		return fail(err)
	}
	p := plan{seed: *seed, smoke: *smoke}
	if !p.smoke {
		p.budget = time.Duration(*seconds) * time.Second
	}
	if *name == "" {
		p.budget *= time.Duration(len(workloads))
		return runAll(p, pins, *traceOut, *out, stdout, stderr)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return fail(err)
	}
	if *trace == 1 {
		// One untraced rep, to take the traced rep's overhead against.
		p.budget = 0
	}
	return runOne(w, p, *trace == 1, pins, *traceOut, *out, stdout, stderr)
}

// runAll measures every workload round by round, then makes the traced
// pass, and prints the report.
func runAll(p plan, pins *baseline, traceOut, out string, stdout, stderr io.Writer) int {
	sets := measure(workloads, p, stderr)
	layers, groups, err := tracedPass(sets, p, stderr)
	res := collect(sets, layers, pins, p)
	res.Host.CPU = cpuModel()
	printReport(stdout, res, sets)
	ok := err == nil
	if err != nil {
		fmt.Fprintln(stderr, "wsbench: traced pass:", err)
	}
	for _, s := range sets {
		ok = ok && s.correct(pins, p.seed, p.smoke)
	}
	if err := writeOutputs(res, groups, traceOut, out); err != nil {
		fmt.Fprintln(stderr, "wsbench:", err)
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne measures one workload, prints the report, and ends with the
// one-line JSON result: the end-to-end medians, or with traced the
// per-layer metrics of an untraced rep, a traced rep and the probes.
func runOne(w *workload, p plan, traced bool, pins *baseline, traceOut, out string, stdout, stderr io.Writer) int {
	sets := measure([]*workload{w}, p, stderr)
	var layers map[string]map[string]float64
	var groups []traceGroup
	if traced {
		var err error
		if layers, groups, err = tracedPass(sets, p, stderr); err != nil {
			fmt.Fprintln(stderr, "wsbench: traced pass:", err)
			return 1
		}
		if layers[w.name] == nil {
			fmt.Fprintln(stderr, "wsbench: the traced pass reported no per-layer metrics")
			return 1
		}
	}
	s := sets[0]
	if len(s.reps) == 0 {
		fmt.Fprintln(stderr, "wsbench: no rep completed")
		return 1
	}
	res := collect(sets, layers, pins, p)
	printReport(stdout, res, sets)
	if err := writeOutputs(res, groups, traceOut, out); err != nil {
		fmt.Fprintln(stderr, "wsbench:", err)
		return 1
	}
	b, err := json.Marshal(lineFor(s, res.Workloads[0], s.correct(pins, p.seed, p.smoke), traced))
	if err != nil {
		fmt.Fprintln(stderr, "wsbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func writeOutputs(res *results, groups []traceGroup, traceOut, out string) error {
	if traceOut != "" && groups != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := writeChromeTrace(f, groups); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if out != "" {
		return writeResults(out, res)
	}
	return nil
}
