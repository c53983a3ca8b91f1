// Command wsswitch runs the reproduction experiments of "Waferscale
// Network Switches" (ISCA 2024) and prints the corresponding tables.
//
// Usage:
//
//	wsswitch list              list all experiment ids
//	wsswitch <id> [...]        run one or more experiments (e.g. fig7 table9)
//	wsswitch all               run every experiment
//	wsswitch -quick <id>       run at reduced scale (seconds, not minutes)
//	wsswitch -seed N <id>      change the deterministic seed
//	wsswitch -json <id>        emit machine-readable JSON (tables + raw
//	                           sim stats + per-router/per-channel probes)
//	wsswitch -v <id>           structured progress logs on stderr
//	wsswitch -workers N <id>   cap the worker goroutines experiments fan
//	                           sweep points across (0 = one per CPU,
//	                           1 = serial; results are identical)
//	wsswitch -cpuprofile f ... write a pprof CPU profile of the run
//	                           (samples carry experiment/worker/point
//	                           pprof labels)
//	wsswitch -memprofile f ... write a pprof heap profile after the run
//	wsswitch -replay "spec"    re-run a differential-test case (as printed
//	                           by a failing equivalence test or fuzz run)
//	                           through the optimized and reference
//	                           simulators and report agreement
//	wsswitch -replay "spec" -trace f.json
//	                           additionally record the optimized run's
//	                           packet lifecycle and write Chrome
//	                           trace-event JSON (open in ui.perfetto.dev);
//	                           -replay takes no other flag or argument
//	wsswitch -http :8080 ...   serve live introspection while running:
//	                           /metrics (Prometheus text), /timeline
//	                           (sampler series JSON), /attribution and
//	                           /heatmap (congestion attribution),
//	                           /debug/pprof, /debug/vars (expvar);
//	                           SIGINT/SIGTERM drain the server and exit 0
//	wsswitch -timeline N ...   attach time-resolved samplers (N-cycle
//	                           windows) to sweeps; series attach to
//	                           -json tables as <series>_timeline
//	wsswitch -attribution ...  attach congestion attribution to sweeps
//	                           (implied by -http): per-stage latency
//	                           decomposition, per-router blame heatmap
//	                           and backpressure root-cause reports attach
//	                           to -json tables as <series>_attribution;
//	                           saturated points add a post-mortem note
//	wsswitch -adaptive <id>    adaptive sweep engine: early-abort the
//	                           drain budget of saturated points and find
//	                           saturation knees by bisection instead of
//	                           walking the whole load grid (same
//	                           saturation throughput, fraction of the
//	                           time)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"waferswitch/internal/expt"
	"waferswitch/internal/obs"
	"waferswitch/internal/sim/refsim"
)

// jsonOutput is the top-level shape of `wsswitch -json`: the options the
// experiments ran with plus one entry per experiment. Failed experiments
// report their error instead of a table.
type jsonOutput struct {
	Options     expt.Options `json:"options"`
	Experiments []jsonResult `json:"experiments"`
}

type jsonResult struct {
	ID    string      `json:"id"`
	Table *expt.Table `json:"table,omitempty"`
	Error string      `json:"error,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "run at reduced scale")
	seed := flag.Int64("seed", 1, "deterministic seed (nonzero)")
	jsonOut := flag.Bool("json", false, "emit results as JSON (tables, raw stats, probe snapshots)")
	verbose := flag.Bool("v", false, "structured progress logs (slog) on stderr")
	workers := flag.Int("workers", 0, "worker goroutines for parallel sweeps (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write heap profile to `file`")
	replay := flag.String("replay", "", "re-run a differential-test `spec` (as printed by a failing equivalence test or fuzz run) through both simulators and report")
	httpAddr := flag.String("http", "", "serve live introspection on `addr` (/metrics, /timeline, /attribution, /heatmap, /debug/pprof, /debug/vars) while experiments run")
	timeline := flag.Int("timeline", 0, "attach time-resolved samplers to simulator sweeps, one window per `cycles` (implied 200 by -http)")
	adaptive := flag.Bool("adaptive", false, "adaptive sweep engine: abort saturated points' drain budget early and locate saturation knees by bisection (same saturation throughput, fraction of the wall-clock)")
	attribution := flag.Bool("attribution", false, "attach congestion attribution to simulator sweeps (implied by -http): per-stage latency decomposition, blame heatmap, backpressure root-cause reports")
	trace := flag.String("trace", "", "with -replay: write the run's packet-lifecycle events as Chrome trace-event JSON to `file` (view in Perfetto)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if *replay != "" {
		// A replay runs its spec and nothing else: the spec's own tokens
		// (timeline=, attribution=) ask for instruments, so any other
		// flag or argument would be silently ignored.
		var extra []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "replay" && f.Name != "trace" {
				extra = append(extra, "-"+f.Name)
			}
		})
		if extra = append(extra, args...); len(extra) > 0 {
			fmt.Fprintf(os.Stderr, "wsswitch: -replay runs its spec alone (only -trace may join it); refusing %s\n", strings.Join(extra, " "))
			return 2
		}
		return runReplay(*replay, *trace)
	}
	if *trace != "" {
		fmt.Fprintln(os.Stderr, "wsswitch: -trace requires -replay")
		return 2
	}
	// Refuse values the experiments would silently replace, so the -json
	// options block records exactly what ran.
	var bad string
	switch {
	case *seed == 0:
		bad = "-seed 0 would run seed 1; give a nonzero seed"
	case *workers < 0:
		bad = fmt.Sprintf("-workers %d: want 0 (one per CPU) or more", *workers)
	case *timeline < 0:
		bad = fmt.Sprintf("-timeline %d: want 0 (off) or a positive window", *timeline)
	}
	if bad != "" {
		fmt.Fprintf(os.Stderr, "wsswitch: %s\n", bad)
		return 2
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	opts := expt.Options{Quick: *quick, Seed: *seed, Probe: *jsonOut, Workers: *workers,
		TimelineInterval: *timeline, Adaptive: *adaptive, Attribution: *attribution}
	if *verbose {
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
			Level: slog.LevelDebug,
		}))
	}
	if *httpAddr != "" {
		if opts.TimelineInterval <= 0 {
			opts.TimelineInterval = 200 // live /timeline needs samplers
		}
		opts.Attribution = true // live /attribution and /heatmap need collectors
		opts.Live = &obs.Live{}
		srv, err := startServer(*httpAddr, opts.Live)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsswitch: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "wsswitch: introspection server on http://%s (/metrics /timeline /attribution /heatmap /debug/pprof /debug/vars)\n", srv.Addr())
		// Graceful shutdown: SIGINT/SIGTERM stop the listener, let
		// in-flight scrapes finish (bounded), and exit 0 — so supervisors
		// that TERM a monitored run don't lose the final scrape or see a
		// failure exit.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			sig := <-sigc
			signal.Stop(sigc) // a second signal kills the process normally
			fmt.Fprintf(os.Stderr, "wsswitch: %v: draining introspection server\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "wsswitch: shutdown: %v\n", err)
			}
			os.Exit(0)
		}()
	}

	var ids []string
	switch args[0] {
	case "list":
		for _, id := range expt.IDs() {
			fmt.Println(id)
		}
		return 0
	case "all":
		ids = expt.IDs()
	default:
		ids = args
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsswitch: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wsswitch: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	failed := false
	out := jsonOutput{Options: opts}
	for _, id := range ids {
		t, err := expt.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsswitch: %v\n", err)
			out.Experiments = append(out.Experiments, jsonResult{ID: id, Error: err.Error()})
			failed = true
			continue
		}
		out.Experiments = append(out.Experiments, jsonResult{ID: t.ID, Table: t})
		if !*jsonOut {
			fmt.Println(t.Render())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "wsswitch: encoding JSON: %v\n", err)
			failed = true
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsswitch: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "wsswitch: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runReplay re-runs a differential-test case from its printed spec
// tuple: both simulators, full comparison, invariant checker on the
// optimized run. Exit 0 when they agree, 1 on divergence or invariant
// violation — so a fuzz finding reproduces outside the fuzzer with
// nothing but the one-line spec — and 2 on a spec no run can use: one
// ParseSpec refuses, or whose topology, config or injector cannot be
// built (Diff's only errors). With traceFile set, a flight recorder
// rides along on the optimized run and its packet-lifecycle events are
// written as Chrome trace-event JSON, so a fuzz-found wedging spec
// turns into a Perfetto-viewable trace; the ring retains the final
// events leading into a wedge, which is what the post-mortem needs.
func runReplay(spec, traceFile string) int {
	s, err := refsim.ParseSpec(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsswitch: %v\n", err)
		return 2
	}
	var rec *obs.FlightRecorder
	if traceFile != "" {
		rec = obs.NewFlightRecorder(0)
	}
	rep, err := s.DiffTraced(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsswitch: replay: %v\n", err)
		return 2
	}
	fmt.Print(rep.Summary())
	if rec != nil {
		f, err := os.Create(traceFile)
		if err == nil {
			err = obs.WriteChromeTrace(f, rec.Events())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsswitch: replay trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: wrote %d events to %s (%d older events dropped from the ring) — open in ui.perfetto.dev\n",
			rec.Len(), traceFile, rec.Dropped())
	}
	if !rep.OK() {
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: wsswitch [flags] <command>

commands:
  list            list all experiment ids
  all             run every experiment
  <id> [...]      run specific experiments (fig5..fig28, table1..table9)

examples:
  wsswitch fig7                     # max ports per external I/O scheme
  wsswitch -quick all               # the full suite at reduced scale
  wsswitch -json fig22 > fig22.json # tables + stats + probe counters
  wsswitch -v -quick fig23          # watch simulation progress
  wsswitch -workers 1 fig22         # force serial execution (same results)
  wsswitch -cpuprofile cpu.out fig24
  wsswitch -replay "family=clos size=0 pattern=uniform link=1 vcs=2 buf=8 pkt=2 rci=1 rco=1 pipe=1 term=1 warmup=50 measure=150 drain=0 seed=42 load=0.25"
  wsswitch -replay "..." -trace out.json   # packet-lifecycle trace for Perfetto
  wsswitch -http :8080 fig21               # watch the sweep saturate in real time
  wsswitch -timeline 100 -json fig22       # time-resolved series in the JSON
  wsswitch -adaptive fig21                 # bisection saturation search + early aborts
  wsswitch -attribution -json fig22        # stage latency breakdown + blame heatmap
`)
	flag.PrintDefaults()
}
