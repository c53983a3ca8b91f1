package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// childReport is what a child prints as its last line of standard
// output: one rep of a workload, or the layer probes.
type childReport struct {
	// RunStartNs is the wall clock (Unix ns) at which the run phase
	// started; the parent subtracts its exec time to get setup_s.
	RunStartNs int64  `json:"run_start_ns"`
	WallNs     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Ops        int    `json:"ops"`
	// Failures has one "op: reason" entry per failed op.
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"digest,omitempty"`
	TermCycles int64              `json:"term_cycles,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Probes     map[string]float64 `json:"probes,omitempty"`
}

// childArgs selects what a child runs.
type childArgs struct {
	name      string // a workload, or "probes"
	seed      int64
	smoke     bool
	setupOnly bool
	traced    bool
}

const probesChild = "probes"

// runChild runs one rep (or the probes) in this process and prints the
// report.
func runChild(a childArgs, stdout io.Writer) error {
	var rep childReport
	if a.name == probesChild {
		p, err := runProbes(a.seed, a.smoke)
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		rep.Probes = p
		return json.NewEncoder(stdout).Encode(rep)
	}
	w, err := lookupWorkload(a.name)
	if err != nil {
		return err
	}
	run, err := w.spec.setup(a.seed, a.smoke)
	if err != nil {
		return fmt.Errorf("setup %s: %w", a.name, err)
	}
	rep.RunStartNs = time.Now().UnixNano()
	if !a.setupOnly {
		var tr *tracer
		if a.traced {
			tr = newTracer()
		}
		a0, t0 := heapAllocs(), time.Now()
		root := tr.begin("run "+a.name, 0, 0, false)
		out := run(tr, root)
		tr.end(root)
		rep.WallNs = time.Since(t0).Nanoseconds()
		rep.AllocBytes = heapAllocs() - a0
		rep.Ops, rep.Failures, rep.Digest, rep.TermCycles = len(out.ops), out.failures(), out.digest, out.termCycles
		rep.Spans = tr.snapshot()
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// rep is one child's report plus what the parent measured of it.
type rep struct {
	childReport
	setupS float64 // exec to the start of the run phase, host seconds
	cpuS   float64 // user+sys, whole child
	rssMB  float64 // peak resident set
}

func (r *rep) wallS() float64 { return float64(r.WallNs) / 1e9 }

// spawn runs one child to completion: the benchmark's load always comes
// from one child process at a time, with GOMAXPROCS=workers.
func spawn(a childArgs) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", a.name, "-seed", strconv.FormatInt(a.seed, 10)}
	for _, f := range []struct {
		on   bool
		flag string
	}{{a.smoke, "-smoke"}, {a.setupOnly, "-setup-only"}, {a.traced, "-traced"}} {
		if f.on {
			args = append(args, f.flag)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", a.name, err)
	}
	r := &rep{}
	line := bytes.TrimSpace(out.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal(line, &r.childReport); err != nil {
		return nil, fmt.Errorf("child %s: report: %w", a.name, err)
	}
	r.setupS = float64(r.RunStartNs-start.UnixNano()) / 1e9
	// Linux reports Maxrss in KiB.
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		r.rssMB = float64(ru.Maxrss) * 1024 / 1e6
	}
	return r, nil
}
