package main

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"sync/atomic"

	"waferswitch/internal/obs"
)

// server is the live introspection endpoint behind `wsswitch -http`:
// Prometheus-text /metrics, streaming /timeline, and the congestion
// /attribution and /heatmap views fed by the running experiment suite,
// plus the stdlib /debug/pprof and /debug/vars (expvar) handlers.
// Everything it reads is concurrency-safe snapshot state of one
// obs.Live, so serving a request never perturbs simulation results.
// Handlers register on the server's own mux (not http.DefaultServeMux),
// so a process can start servers repeatedly (tests do) without
// handler-collision panics.
type server struct {
	ln   net.Listener
	srv  *http.Server
	live *obs.Live
}

// expvar.Publish panics on duplicate names, so the progress/timeline
// vars register once per process even if a server is started twice
// (tests do), and read the feed in varsLive, which every startServer
// sets: /debug/vars reports the most recently started server's feed.
var (
	publishVars sync.Once
	varsLive    atomic.Pointer[obs.Live]
)

// startServer listens on addr and serves the live feed in a background
// goroutine. The returned server reports the bound address (Addr), so
// addr may use port 0.
func startServer(addr string, live *obs.Live) (*server, error) {
	s := &server{live: live}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/timeline", s.timeline)
	mux.HandleFunc("/attribution", s.attribution)
	mux.HandleFunc("/heatmap", s.heatmap)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wsswitch: -http %s: %w", addr, err)
	}
	s.ln = ln
	varsLive.Store(live)
	publishVars.Do(func() {
		expvar.Publish("wsswitch.progress", expvar.Func(func() any { return varsLive.Load().Progress() }))
		expvar.Publish("wsswitch.timelines", expvar.Func(func() any { return varsLive.Load().TimelineNames() }))
	})
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown/Close
	return s, nil
}

// Addr returns the bound listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately (in-flight handlers are abandoned).
func (s *server) Close() error { return s.srv.Close() }

// Shutdown drains the server gracefully: the listener stops accepting
// immediately and in-flight requests run to completion (bounded by ctx).
// The SIGINT/SIGTERM path uses it so a scrape in progress gets its
// response before the process exits.
func (s *server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// metrics serves the experiment pool's progress in Prometheus text
// exposition format: points completed/total, elapsed and extrapolated
// remaining seconds, per-worker current experiment, the number of live
// timeline series, and — once a point has completed — per-stage
// latency totals over the completed points.
func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.live.Progress()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP wsswitch_points_total Simulation points announced by the experiment suite.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_points_total gauge\n")
	fmt.Fprintf(w, "wsswitch_points_total %d\n", snap.Total)
	fmt.Fprintf(w, "# HELP wsswitch_points_done Simulation points completed.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_points_done gauge\n")
	fmt.Fprintf(w, "wsswitch_points_done %d\n", snap.Done)
	fmt.Fprintf(w, "# HELP wsswitch_elapsed_seconds Wall time since the first point was announced.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_elapsed_seconds gauge\n")
	fmt.Fprintf(w, "wsswitch_elapsed_seconds %g\n", snap.ElapsedSeconds)
	fmt.Fprintf(w, "# HELP wsswitch_eta_seconds Remaining time extrapolated from the completion rate.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_eta_seconds gauge\n")
	fmt.Fprintf(w, "wsswitch_eta_seconds %g\n", snap.ETASeconds)
	fmt.Fprintf(w, "# HELP wsswitch_worker_busy Pool workers and their current experiment point.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_worker_busy gauge\n")
	for _, ws := range snap.Workers {
		fmt.Fprintf(w, "wsswitch_worker_busy{worker=%q,running=%q} 1\n", ws.Worker, ws.Running)
	}
	fmt.Fprintf(w, "# HELP wsswitch_timelines Registered live timeline series.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_timelines gauge\n")
	fmt.Fprintf(w, "wsswitch_timelines %d\n", len(s.live.TimelineNames()))
	asnap := s.live.Attribution(0)
	if asnap == nil {
		return
	}
	fmt.Fprintf(w, "# HELP wsswitch_attributed_packets Measured packets with a per-stage latency decomposition.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_attributed_packets counter\n")
	fmt.Fprintf(w, "wsswitch_attributed_packets %d\n", asnap.Packets)
	fmt.Fprintf(w, "# HELP wsswitch_stage_cycles_total Latency cycles attributed to each pipeline stage.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_stage_cycles_total counter\n")
	for _, st := range asnap.Stages {
		fmt.Fprintf(w, "wsswitch_stage_cycles_total{stage=%q} %g\n", st.Stage, st.Share*asnap.TotalCycles)
	}
	fmt.Fprintf(w, "# HELP wsswitch_stage_latency_mean_cycles Mean per-packet cycles spent in each stage.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_stage_latency_mean_cycles gauge\n")
	for _, st := range asnap.Stages {
		fmt.Fprintf(w, "wsswitch_stage_latency_mean_cycles{stage=%q} %g\n", st.Stage, st.Latency.Mean)
	}
	fmt.Fprintf(w, "# HELP wsswitch_stage_latency_p99_cycles P99 per-packet cycles spent in each stage.\n")
	fmt.Fprintf(w, "# TYPE wsswitch_stage_latency_p99_cycles gauge\n")
	for _, st := range asnap.Stages {
		fmt.Fprintf(w, "wsswitch_stage_latency_p99_cycles{stage=%q} %g\n", st.Stage, st.Latency.P99)
	}
}

// timeline streams the sampler series of running (and finished)
// simulation points as JSON: every registered series by default, one
// series with ?name=<series>. Sampler snapshots exclude the open window
// and copy under the sampler's lock, so polling this endpoint while a
// sweep executes is safe and shows the saturation curve forming in real
// time.
func (s *server) timeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if name := r.URL.Query().Get("name"); name != "" {
		snap, ok := s.live.Timeline(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown timeline %q (see /timeline for all)", name), http.StatusNotFound)
			return
		}
		enc.Encode(snap) //nolint:errcheck // client gone
		return
	}
	enc.Encode(s.live.Timelines()) //nolint:errcheck // client gone
}

// attribution serves the live congestion attribution: the merged stage
// breakdown and blame rankings over completed sweep points, plus the
// backpressure root-cause reports of points that failed to drain, keyed
// by point name. 404 until the first point completes.
func (s *server) attribution(w http.ResponseWriter, _ *http.Request) {
	snap := s.live.Attribution(8)
	if snap == nil {
		http.Error(w, "no sweep point completed yet", http.StatusNotFound)
		return
	}
	out := struct {
		Attribution  *obs.AttributionSnapshot           `json:"attribution"`
		Backpressure map[string]*obs.BackpressureReport `json:"backpressure,omitempty"`
	}{snap, s.live.Reports()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client gone
}

// heatmap serves just the per-router stall matrix of the live
// attribution — rows are routers, columns the stall/blame kinds — the
// compact form a dashboard renders as a color matrix.
func (s *server) heatmap(w http.ResponseWriter, _ *http.Request) {
	snap := s.live.Attribution(0)
	if snap == nil || snap.Heatmap == nil {
		http.Error(w, "no sweep point completed yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap.Heatmap) //nolint:errcheck // client gone
}
