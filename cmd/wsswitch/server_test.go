package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"waferswitch/internal/expt"
	"waferswitch/internal/obs"
)

// get fetches a path from the server and returns status + body.
func get(t *testing.T, srv *server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// The introspection server must expose /metrics (Prometheus text),
// /timeline (series JSON), /attribution, /heatmap, expvar and pprof —
// while an experiment runs and reports into the shared obs.Live,
// without changing its results relative to a plain run.
func TestServerEndpointsDuringRun(t *testing.T) {
	live := &obs.Live{}
	srv, err := startServer("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Before any point completes, the attribution endpoints 404.
	if code, _ := get(t, srv, "/attribution"); code != http.StatusNotFound {
		t.Errorf("/attribution before any point: status %d, want 404", code)
	}
	if code, _ := get(t, srv, "/heatmap"); code != http.StatusNotFound {
		t.Errorf("/heatmap before any point: status %d, want 404", code)
	}

	// Baseline: the experiment without any introspection attached.
	plain, err := expt.Run("fig21", expt.Options{Quick: true, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Poll the endpoints concurrently with the instrumented run.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			get(t, srv, "/metrics")
			get(t, srv, "/timeline")
			get(t, srv, "/attribution")
			get(t, srv, "/heatmap")
		}
	}()
	served, err := expt.Run("fig21", expt.Options{Quick: true, Seed: 3, Workers: 2,
		Live: live, TimelineInterval: 100, Attribution: true})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(plain.Rows) != fmt.Sprint(served.Rows) {
		t.Errorf("live serving perturbed results:\nplain  %v\nserved %v", plain.Rows, served.Rows)
	}

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"# TYPE wsswitch_points_total gauge", "wsswitch_points_total",
		"wsswitch_points_done", "wsswitch_elapsed_seconds", "wsswitch_eta_seconds",
		"wsswitch_timelines",
		"wsswitch_attributed_packets", "wsswitch_stage_cycles_total",
		`wsswitch_stage_latency_mean_cycles{stage="credit_stall"}`,
		`wsswitch_stage_latency_p99_cycles{stage="serialization"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if s := live.Progress(); s.Done == 0 || s.Done != s.Total {
		t.Errorf("progress after the run: %d/%d", s.Done, s.Total)
	}

	code, body = get(t, srv, "/timeline")
	if code != http.StatusOK {
		t.Fatalf("/timeline: status %d", code)
	}
	var all map[string]*obs.TimelineSnapshot
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatalf("/timeline not valid JSON: %v", err)
	}
	if len(all) == 0 {
		t.Fatal("/timeline has no series after a timeline-enabled run")
	}
	var name string
	for n, snap := range all {
		if len(snap.Samples) > 0 {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatal("every /timeline series is empty")
	}
	if !strings.HasPrefix(name, "fig21/") || !strings.Contains(name, "/load=") {
		t.Errorf("series name %q not in fig21/<cell>/load=<l> form", name)
	}

	code, body = get(t, srv, "/timeline?name="+name)
	if code != http.StatusOK {
		t.Fatalf("/timeline?name=%s: status %d", name, code)
	}
	var one obs.TimelineSnapshot
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatalf("single-series /timeline not valid JSON: %v", err)
	}
	// The run is over, so the series is final: the named request serves
	// exactly its entry of the full listing.
	oneJSON, _ := json.Marshal(&one)
	allJSON, _ := json.Marshal(all[name])
	if string(oneJSON) != string(allJSON) {
		t.Errorf("/timeline?name=%s differs from its /timeline entry:\n%s\n%s", name, oneJSON, allJSON)
	}
	if code, _ = get(t, srv, "/timeline?name=nope"); code != http.StatusNotFound {
		t.Errorf("unknown series returned status %d, want 404", code)
	}

	// /attribution: merged stage breakdown with blame rankings.
	code, body = get(t, srv, "/attribution")
	if code != http.StatusOK {
		t.Fatalf("/attribution: status %d\n%s", code, body)
	}
	var attribDoc struct {
		Attribution *obs.AttributionSnapshot `json:"attribution"`
	}
	if err := json.Unmarshal([]byte(body), &attribDoc); err != nil {
		t.Fatalf("/attribution not valid JSON: %v", err)
	}
	if attribDoc.Attribution == nil || attribDoc.Attribution.Packets == 0 {
		t.Fatalf("/attribution has no packets after an attribution-enabled run:\n%s", body)
	}
	var sumShares float64
	for _, st := range attribDoc.Attribution.Stages {
		sumShares += st.Share
	}
	if sumShares < 0.999 || sumShares > 1.001 {
		t.Errorf("/attribution stage shares sum to %g, want 1", sumShares)
	}

	// /heatmap: the per-router stall matrix alone.
	code, body = get(t, srv, "/heatmap")
	if code != http.StatusOK {
		t.Fatalf("/heatmap: status %d\n%s", code, body)
	}
	var hm obs.Heatmap
	if err := json.Unmarshal([]byte(body), &hm); err != nil {
		t.Fatalf("/heatmap not valid JSON: %v", err)
	}
	if len(hm.Columns) == 0 || len(hm.Rows) == 0 {
		t.Errorf("/heatmap empty: %d columns, %d rows", len(hm.Columns), len(hm.Rows))
	}
	for i, row := range hm.Rows {
		if len(row) != len(hm.Columns) {
			t.Fatalf("/heatmap row %d has %d cells for %d columns", i, len(row), len(hm.Columns))
		}
	}

	// expvar and pprof ride on the server's own mux.
	code, body = get(t, srv, "/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "wsswitch.progress") {
		t.Errorf("/debug/vars status %d, wsswitch.progress present: %v", code, strings.Contains(body, "wsswitch.progress"))
	}
	if code, _ = get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}
}

// Shutdown must stop accepting new connections while letting an
// in-flight request run to completion with a full response — the
// SIGINT/SIGTERM drain path.
func TestServerGracefulShutdown(t *testing.T) {
	srv, err := startServer("127.0.0.1:0", &obs.Live{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Put a request in flight: send the headers but hold back the final
	// CRLF so the server has read bytes (the connection is active, not
	// idle) but no handler has run yet.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /metrics HTTP/1.1\r\nHost: wsswitch\r\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the server read the partial request

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// New connections must be refused once the listener closes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("server still accepting connections after Shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight request still completes with a full response.
	if _, err := fmt.Fprintf(conn, "Connection: close\r\n\r\n"); err != nil {
		t.Fatalf("completing in-flight request: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading drained response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "wsswitch_points_total") {
		t.Errorf("drained response: status %d body %q", resp.StatusCode, body)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// A traced replay must write valid Chrome trace-event JSON for the
// pinned wedging spec (both simulators wedge alike, so it exits 0); a
// spec no run can use must exit 2, so a script can tell it from a
// divergence (exit 1).
func TestWriteReplayTraceWedgingSpec(t *testing.T) {
	// Each token overrides one key of a tuple that runs (later keys win).
	const base = "family=clos size=0 pattern=uniform link=1 vcs=2 buf=8 pkt=2 rci=1 rco=1 pipe=0 term=1 warmup=10 measure=40 seed=1 load=0.25"
	for _, tc := range []struct{ name, tok string }{
		{"bad-size-exits-2", "size=-1"},
		{"bad-vcs=0-exits-2", "vcs=0"},
		{"bad-vcs=65-exits-2", "vcs=65"},
		{"bad-buf=0-exits-2", "buf=0"},
		{"bad-pkt=0-exits-2", "pkt=0"},
		{"bad-buf=70000-exits-2", "buf=70000"},
		{"bad-term=-1-exits-2", "term=-1"},
		{"bad-pipe=-1-exits-2", "pipe=-1"},
		{"bad-warmup=-1-exits-2", "warmup=-1"},
		{"bad-measure=0-exits-2", "measure=0"},
		{"bad-drain=-5-exits-2", "drain=-5"},
		{"bad-rci=-3-exits-2", "rci=-3"},
		{"bad-link=-3-exits-2", "link=-3"},
		{"bad-family-exits-2", "family=bogus"},
		{"bad-pattern-exits-2", "pattern=bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code := runReplay(base+" "+tc.tok, ""); code != 2 {
				t.Fatalf("runReplay with %s returned %d, want 2", tc.tok, code)
			}
		})
	}
	t.Run("good-spec-exits-0", func(t *testing.T) {
		if code := runReplay(base, ""); code != 0 {
			t.Fatalf("runReplay(%q) returned %d, want 0", base, code)
		}
	})
	spec := "family=dfly size=1 pattern=uniform link=1 vcs=1 buf=2 pkt=2 rci=1 rco=1 pipe=0 term=1 warmup=100 measure=1500 drain=4000 seed=2 load=0.95"
	out := filepath.Join(t.TempDir(), "wedge.json")
	if code := runReplay(spec, out); code != 0 {
		t.Fatalf("traced replay of the wedging spec returned %d, want 0", code)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 10 {
		t.Errorf("wedge trace has only %d events", len(doc.TraceEvents))
	}
}

// runCLI runs args through run() on fresh flags and returns its exit
// code and what it wrote to stdout and stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	defer func(args []string, fs *flag.FlagSet, out, errf *os.File) {
		os.Args, flag.CommandLine, os.Stdout, os.Stderr = args, fs, out, errf
	}(os.Args, flag.CommandLine, os.Stdout, os.Stderr)
	os.Args = append([]string{"wsswitch"}, args...)
	flag.CommandLine = flag.NewFlagSet("wsswitch", flag.ContinueOnError)
	dir := t.TempDir()
	var err error
	if os.Stdout, err = os.Create(filepath.Join(dir, "stdout")); err != nil {
		t.Fatal(err)
	}
	defer os.Stdout.Close()
	if os.Stderr, err = os.Create(filepath.Join(dir, "stderr")); err != nil {
		t.Fatal(err)
	}
	defer os.Stderr.Close()
	code = run()
	out, err := os.ReadFile(os.Stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	errb, err := os.ReadFile(os.Stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(errb)
}

// -replay runs its spec and nothing else: any other flag, or a
// positional argument, is refused with exit 2 instead of being silently
// ignored. -trace is the one flag it takes.
func TestReplayRefusesOtherArgs(t *testing.T) {
	const spec = "family=clos size=0 pattern=uniform link=1 vcs=2 buf=8 pkt=2 rci=1 rco=1 pipe=0 term=1 warmup=10 measure=40 seed=1 load=0.25"
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"flags", []string{"-quick", "-json", "-attribution", "-workers", "3", "-replay", spec}, 2},
		{"argument", []string{"-replay", spec, "fig7"}, 2},
		{"trace", []string{"-replay", spec, "-trace", filepath.Join(t.TempDir(), "t.json")}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, _ := runCLI(t, tc.args...); code != tc.want {
				t.Errorf("wsswitch %s exited %d, want %d", strings.Join(tc.args, " "), code, tc.want)
			}
		})
	}
}

// list and all take no argument, like -replay: an extra one is refused
// with exit 2 and a message naming it, instead of being ignored.
func TestListAllRefuseExtraArgs(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		want  int
		extra string
	}{
		{[]string{"list", "fig7"}, 2, "fig7"},
		{[]string{"-quick", "all", "fig7", "table9"}, 2, "fig7 table9"},
		{[]string{"list"}, 0, ""},
	} {
		code, _, stderr := runCLI(t, tc.args...)
		if code != tc.want || !strings.Contains(stderr, tc.extra) {
			t.Errorf("wsswitch %s exited %d with %q, want %d and a message naming %q",
				strings.Join(tc.args, " "), code, stderr, tc.want, tc.extra)
		}
	}
}

// A flag value the experiments would replace with another (seed 0 runs
// seed 1, negative workers run one per CPU, a negative timeline runs
// none, or 200-cycle windows under -http) is refused with exit 2 and a
// message naming the flag, so the -json options block records exactly
// what ran.
func TestRefusesSubstitutedValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"seed", []string{"-quick", "-json", "-seed", "0", "fig7"}, "-seed"},
		{"workers", []string{"-quick", "-json", "-workers", "-3", "fig7"}, "-workers"},
		{"timeline", []string{"-quick", "-timeline", "-5", "fig7"}, "-timeline"},
		{"timeline-http", []string{"-quick", "-timeline", "-5", "-http", "127.0.0.1:0", "fig7"}, "-timeline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, msg := runCLI(t, tc.args...); code != 2 || !strings.Contains(msg, tc.flag+" ") {
				t.Errorf("wsswitch %s exited %d with %q, want 2 and a message naming %s",
					strings.Join(tc.args, " "), code, msg, tc.flag)
			}
		})
	}
}

// The -json options block records the timeline interval the sweeps ran
// with, given by -timeline or implied by -http, and leaves it out when
// no sampler ran.
func TestJSONOptionsRecordTimeline(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-json", "-workers", "1", "fig7"}, `{"quick":true,"seed":1,"workers":1}`},
		{[]string{"-quick", "-json", "-workers", "1", "-timeline", "100", "fig7"}, `{"quick":true,"seed":1,"workers":1,"timeline_interval":100}`},
		{[]string{"-quick", "-json", "-workers", "1", "-http", "127.0.0.1:0", "fig7"}, `{"quick":true,"seed":1,"workers":1,"attribution":true,"timeline_interval":200}`},
	} {
		code, stdout, stderr := runCLI(t, tc.args...)
		var out struct{ Options json.RawMessage }
		if err := json.Unmarshal([]byte(stdout), &out); code != 0 || err != nil {
			t.Fatalf("wsswitch %s exited %d (%v): %s", strings.Join(tc.args, " "), code, err, stderr)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, out.Options); err != nil {
			t.Fatal(err)
		}
		if compact.String() != tc.want {
			t.Errorf("wsswitch %s: options %s, want %s", strings.Join(tc.args, " "), compact.String(), tc.want)
		}
	}
}

// /debug/vars is process-wide, so it must report the feed of the most
// recently started server, not the first one's.
func TestDebugVarsFollowLatestServer(t *testing.T) {
	first, err := startServer("127.0.0.1:0", &obs.Live{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	live := &obs.Live{}
	live.AddTotal(7)
	second, err := startServer("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	for _, srv := range []*server{first, second} {
		code, body := get(t, srv, "/debug/vars")
		var vars struct {
			Progress obs.ProgressSnapshot `json:"wsswitch.progress"`
		}
		if err := json.Unmarshal([]byte(body), &vars); code != http.StatusOK || err != nil {
			t.Fatalf("/debug/vars status %d: %v", code, err)
		}
		if vars.Progress.Total != 7 {
			t.Errorf("/debug/vars reports points_total %d, want the latest server's 7", vars.Progress.Total)
		}
	}
}
