# Developer entry points. `make check` is the pre-commit gate the
# ROADMAP's verify instructions reference: vet + formatting + the
# race-enabled simulator tests on top of the tier-1 suite.

GO ?= go

# Minimum total -short test coverage (percent). Ratcheted from 67.8 to
# 72.5 when the time-resolved observability layer landed, then to 73.0
# with the adaptive sweep engine, then to 73.5 with congestion
# attribution, then to 74.0 with shard-aware observability, then to 78.0
# (79.2% measured) when the simulator's duplicate latency sums went;
# `make cover` fails below it so coverage can only go up.
COVER_FLOOR ?= 78.0

.PHONY: all build test check vet fmt race bench bench-smoke bench-json bench-test cover fuzz-smoke staticcheck

all: build test

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check runs the static gates, the race detector over the concurrent
# packages, the differential-fuzz smoke runs, the coverage floor, a
# one-iteration pass over every guard benchmark so the benchmarks
# themselves cannot rot uncompiled or crash unnoticed between re-pins,
# and the tests of the bench/ module, which the root `go test ./...`
# does not reach because bench/ is a module of its own.
check: vet fmt staticcheck race fuzz-smoke cover bench-smoke bench-test

vet:
	$(GO) vet ./...

# staticcheck runs when the tool is on PATH and is skipped (with a
# notice) when it is not — the check gate must work in hermetic
# environments that cannot install tools.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# expt runs with -short: the full-suite test is redundant under race and
# the dedicated pool/parallel-sweep tests never skip. The adaptive sweep
# engine's tests (abort_test, saturation_test, and the expt adaptive
# determinism tests) live inside these packages, so the early-abort
# detector and bisection search run under the race detector on every
# check, as do sim.Pool's workers (sweeps and experiment grids), and
# the shared route cache. mapping and core join them for the
# process-wide memo of Algorithm 1 placements that the grid workers
# share; -short keeps mapping to 13-17 s on a 2-core host (76 s without
# it, for the long oracle cases), and the memo's own tests never skip.
# cmd/wsswitch joins them for the -http server: its handlers read the
# one obs.Live that pool workers write, and TestServerEndpointsDuringRun
# polls every endpoint mid-run (about 17 s of test time on a 2-core
# host). The last line repeats the pool's own tests ten times, and the
# Sweeps tests with them (about 28 s of test time on a 2-core host):
# several goroutines reach the pool's error slots, its dispatch counter
# and the Live calls, and Sweeps' workers write into the per-series
# result slots of every series at once; one pass can miss an
# interleaving.
race:
	$(GO) test -race ./internal/sim/... ./internal/obs/... ./cmd/wsswitch/
	$(GO) test -race -short ./internal/expt/... ./internal/mapping/... ./internal/core/...
	$(GO) test -race -count=10 -run 'TestPoolEach|TestPoolOneWorker|TestSweepRecoversPanics|TestSweeps' ./internal/sim/ ./internal/expt/

# fuzz-smoke gives each differential fuzz target a short budget on top
# of the committed seed corpus: FuzzSimEquivalence diffs the optimized
# simulator against internal/sim/refsim, FuzzObservedEquivalence runs
# the same diff with the timeline and attribution observers attached to
# the optimized run (they must not perturb it), FuzzResetEquivalence
# dirties a network, Resets it and requires the rerun to match both a
# fresh build and the reference bit for bit, FuzzSweepDeterminism diffs
# parallel sweeps against serial ones. Failures print a replay spec for
# `wsswitch -replay`; FuzzParseSpec checks that ParseSpec never panics
# and that every spec it accepts prints a tuple that parses back equal.
fuzz-smoke:
	$(GO) test ./internal/sim/refsim -run NONE -fuzz 'FuzzSimEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/sim/refsim -run NONE -fuzz 'FuzzObservedEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/sim/refsim -run NONE -fuzz 'FuzzResetEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/sim/refsim -run NONE -fuzz 'FuzzSweepDeterminism$$' -fuzztime 10s
	$(GO) test ./internal/sim/refsim -run NONE -fuzz 'FuzzParseSpec$$' -fuzztime 10s

# cover enforces the total -short coverage floor (COVER_FLOOR).
cover:
	@$(GO) test -short -coverprofile=/tmp/wsswitch-cover.out ./... > /dev/null
	@total=$$($(GO) tool cover -func=/tmp/wsswitch-cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% fell below floor $(COVER_FLOOR)%"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem -short ./...

# bench-smoke runs every benchmark for exactly one iteration: no timing
# value, just proof that each one still builds, runs and reports. Cheap
# enough to sit inside `make check`.
bench-smoke:
	$(GO) test -run NONE -short -bench . -benchtime 1x ./...

# bench-test runs the tests of the wsbench benchmark program (about
# 35 s on a 2-core host).
bench-test:
	cd bench && $(GO) test ./...

# bench-json snapshots the guard benchmarks (simulator inner loop with
# the timeline/tracer/attribution on and off, the saturated/knee/
# low-load hot-loop guards, the whole-run Run guards on the 1024-port
# Clos and flattened butterfly and with the timeline/attribution
# observers attached, the sweep engine serial/parallel plus
# exhaustive/adaptive saturation
# pairs, and the mapping kernel's Algorithm 1 optimization of the
# 8192-port Clos and converged pass: ns/op, allocs/op, cycles/op) into
# BENCH_sim.json so the perf trajectory is machine-readable across
# commits. The *Off cases pin the disabled observability paths at 0
# allocs/op, and MappingConvergedPass pins Optimize at 0 allocs/op.
# benchjson -diff gates the fresh numbers against the committed
# baseline — >15% ns/op regressions, any allocation or beyond-tolerance
# B/op growth on a zero-alloc guard, or a silently dropped benchmark
# fail the target before the snapshot is overwritten (a geomean ns/op
# delta line prints either way). To intentionally re-pin after a known
# change:
# make bench-json DIFF_FLAGS=
DIFF_FLAGS ?= -diff BENCH_sim.json
bench-json:
	{ $(GO) test -run NONE -short -bench 'BenchmarkSimCycle$$|BenchmarkSimTimeline|BenchmarkSimTracer|BenchmarkSweepSerial$$|BenchmarkSweepParallel$$|BenchmarkSweepReuse$$|BenchmarkSweepExhaustive$$|BenchmarkSweepAdaptive$$|BenchmarkNetworkResetVsBuild$$|BenchmarkMappingOptimize$$|BenchmarkMappingConvergedPass$$' -benchmem . ; \
	  $(GO) test -run NONE -short -bench 'BenchmarkSimSteadyState|BenchmarkSimAttribution|BenchmarkSimCycleSaturated|BenchmarkSimCycleKnee$$|BenchmarkSimCycleLowLoad$$|BenchmarkSimRunSaturated' -benchmem ./internal/sim ; } \
	| $(GO) run ./cmd/benchjson $(DIFF_FLAGS) > BENCH_sim.json.tmp
	mv BENCH_sim.json.tmp BENCH_sim.json
	@echo wrote BENCH_sim.json
