GO ?= go

.PHONY: build build-examples fmt-check vet lint test race bench bench-smoke ci \
	fuzz-smoke cover golden golden-thrash bench-json bench-json-smoke \
	bench-compare bench-compare-smoke serve-smoke serve-chaos prop-soak \
	bench-check network-smoke

build:
	$(GO) build ./...

# Examples are main packages with no test files; build them explicitly
# so CI catches bit-rot (the smoke test in examples/ then runs them).
build-examples:
	$(GO) build ./examples/...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet: staticcheck (bug patterns and
# simplifications) and govulncheck (known-vulnerable symbols reachable
# from this module). The CI lint job always installs both; a local run
# skips a tool that is not on PATH rather than failing, so `make lint`
# stays useful on a fresh checkout:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

test:
	$(GO) test ./...

# The job benchmark (bench/, run by bench/run.sh) is its own module, so
# the root `go build ./...` never compiles it; vet and test it here so
# an API change in the simulator, serve or scenario packages cannot
# break it unnoticed. Offline, about 8 s.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The pairwise scan's workers write their pairs' meeting words straight
# into one shared Result, fold each chunk's tally into it under one
# lock, and draw their block rings from a process-wide pool, whose
# slots carry each window's hop mask and fill state from run to run, so
# its ring, chunk and cold-window tests, the dense-engine cancellation,
# session and concurrent-run tests, and the result-representation tests
# also run ten times over under -race.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestPairwiseRingAndChunks|TestPairwiseFillsOncePerWindow|TestPairwiseSkipsColdWindows|TestCancelMidRun|TestCancelSerialRun|TestCancelAfterEarlyExit|TestRunParallelDegenerate|TestSessionScratchReuse|TestConcurrentRunsOnOneEngine|TestSessionShrinkThenGrowHorizon|TestResultOneWordPerPair|TestMeetingAtSlotZero|TestCancelledTallyMatchesMeetings' ./internal/simulator

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One iteration per benchmark: proves every bench still runs without
# paying full measurement cost. CI uses the JSON variant below.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Benchmark trajectory: run the full suite and record the results as
# BENCH_<date>.json via cmd/benchjson (the raw output still streams to
# the terminal). Override BENCHTIME to trade accuracy for time.
BENCHTIME ?= 1s
BENCH_JSON = BENCH_$(shell date +%F).json
# Two steps (not a pipe) so a bench failure fails the target with its
# diagnostics printed; on success benchjson echoes the raw output, so
# the human-readable results still print either way.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... > bench.out \
		|| { cat bench.out; rm -f bench.out; exit 1; }
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < bench.out
	@rm -f bench.out

# One-iteration trajectory point: the CI bench smoke step, which both
# proves every bench runs and uploads the JSON as an artifact.
bench-json-smoke:
	$(MAKE) bench-json BENCHTIME=1x

# Regression gate on the committed benchmark trajectory: regenerate the
# trajectory point (bench-json), materialize the newest committed
# BENCH_*.json from git (the working-tree file may just have been
# overwritten by the same-day run), and diff them with cmd/benchjson
# -compare. Selection and content both come from HEAD (ls-tree, not
# ls-files) so a freshly staged-but-uncommitted point never selects a
# baseline `git show HEAD:` cannot produce. The glob is applied by
# grep, not as a pathspec — git ls-tree wildcard matching varies by
# git version (2.39 matches nothing). Thresholds are percentages;
# override for noisy hosts.
BENCH_BASE ?= $(shell git ls-tree --name-only HEAD | grep '^BENCH_.*\.json$$' | sort | tail -1)
BENCH_FAIL_OVER ?= 5
BENCH_FAIL_ALLOCS_OVER ?= 10
BENCH_FAIL_BYTES_OVER ?= 10
# Sign-aware unit=pct gates for custom b.ReportMetric units
# (space-separated): slots/sec is a throughput, so a negative threshold
# fails on falls — the engine benches may not silently lose 10% of
# their slot rate.
BENCH_METRIC_GATES ?= slots/sec=-10
# Absolute floors under the percentage gates (benchjson
# -min-ns-delta/-min-allocs-delta/-min-bytes-delta): a percentage of a
# tiny count is noise, so a violation also needs this much real
# movement.
BENCH_MIN_NS_DELTA ?= 0
BENCH_MIN_ALLOCS_DELTA ?= 8
BENCH_MIN_BYTES_DELTA ?= 256
bench-compare: bench-json
	@test -n "$(BENCH_BASE)" || { echo "no committed BENCH_*.json baseline"; exit 1; }
	@git show HEAD:$(BENCH_BASE) > bench-base.json
	$(GO) run ./cmd/benchjson -compare -fail-over $(BENCH_FAIL_OVER) \
		-fail-allocs-over $(BENCH_FAIL_ALLOCS_OVER) \
		-fail-bytes-over $(BENCH_FAIL_BYTES_OVER) \
		-min-ns-delta $(BENCH_MIN_NS_DELTA) \
		-min-allocs-delta $(BENCH_MIN_ALLOCS_DELTA) \
		-min-bytes-delta $(BENCH_MIN_BYTES_DELTA) \
		$(foreach g,$(BENCH_METRIC_GATES),-fail-metric-over $(g)) \
		bench-base.json $(BENCH_JSON) \
		|| { rm -f bench-base.json; exit 1; }
	@rm -f bench-base.json

# CI variant: one iteration per benchmark. Single-iteration wall times
# swing wildly on shared runners, so the ns and slots/sec gates are
# wide open there, and single-iteration allocation counts for
# multi-goroutine benchmarks move by a goroutine stack or one
# per-worker scratch buffer depending on scheduling — the absolute
# floors widen to sit above that noise. Real regressions this repo
# gates on (thousands of allocs, MBs per op) still trip it; the tight
# floors apply on full `make bench-compare` runs.
bench-compare-smoke:
	$(MAKE) bench-compare BENCHTIME=1x BENCH_FAIL_OVER=900 \
		BENCH_FAIL_ALLOCS_OVER=25 BENCH_FAIL_BYTES_OVER=25 \
		BENCH_MIN_NS_DELTA=1000000 \
		BENCH_MIN_ALLOCS_DELTA=128 BENCH_MIN_BYTES_DELTA=2097152 \
		BENCH_METRIC_GATES=slots/sec=-90

# Time-boxed coverage-guided fuzzing over the property oracles
# (internal/proptest), the math/rand-equivalent derivation RNG
# (internal/sweep) and the CLI parsers (cmd/benchjson, cmd/rvsim):
# each pkg:Target gets FUZZTIME of mutation on top of its committed
# seed corpus. Crashers land in the package's testdata/fuzz/ (CI
# uploads them as artifacts).
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	./internal/proptest:FuzzCompile \
	./internal/proptest:FuzzBlockEquivalence \
	./internal/proptest:FuzzEngineVsReference \
	./internal/proptest:FuzzScenarioEnv \
	./internal/sweep:FuzzSource \
	./cmd/benchjson:FuzzParseBenchLine \
	./cmd/benchjson:FuzzParseStream \
	./cmd/rvsim:FuzzParseAgentSpec
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; tgt=$${t##*:}; \
		echo "fuzzing $$pkg $$tgt for $(FUZZTIME)"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$tgt$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Property soak: every TestProp property at PROPTEST_ITERS iterations
# on an optimized build. Run it after any change to the scan kernel:
# go1.24.0 miscompiled the since-deleted posting scan in optimized
# builds only (-race and -N builds were correct), so `make race` cannot
# stand in for it. The nightly workflow runs it at
# PROPTEST_ITERS=100000, once on go.mod's Go release line and once on
# go1.24.0 exactly.
PROPTEST_ITERS ?= 1500
prop-soak:
	PROPTEST_ITERS=$(PROPTEST_ITERS) $(GO) test -count=1 -timeout 170m -run 'TestProp' ./internal/proptest

# Coverage with a floor on internal/... — the packages carrying the
# correctness arguments. The floor trails the current level (91%+) far
# enough to absorb noise but catches a PR that lands logic untested.
COVER_FLOOR ?= 85
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) }' \
		|| { echo "coverage below floor"; exit 1; }

# Regenerate the golden-report corpus (internal/experiments and
# cmd/rvsim testdata/golden) after an intentional output change; review
# the diff like any other code change.
golden:
	$(GO) test -run 'TestGolden' ./internal/experiments ./cmd/rvsim ./internal/serve -update -count=1

# Worst-case cache thrash: rerun the golden-report, warm-horizons and
# examples smoke suites with the shared table cache budgeted to a single
# byte, so every borrow evicts whatever came before. Outputs must stay
# byte-identical to the committed goldens — the cache budget is
# bookkeeping, never semantics. The warm-horizons golden (./internal/serve)
# re-runs one session at shorter and longer horizons under the same
# pressure.
golden-thrash:
	RV_TABLECACHE_BUDGET=1 $(GO) test -run 'TestGolden' ./internal/experiments ./cmd/rvsim ./internal/serve -count=1
	RV_TABLECACHE_BUDGET=1 $(GO) test -run 'TestExamplesRunToCompletion' ./examples -count=1

# End-to-end daemon smoke: boot rvserve on an ephemeral port, drive it
# with rvload, and assert the service contract — byte-identical check
# hashes across a daemon restart and a 1→8 worker change, nonzero
# table-cache hits, pinned=0 on every drain, and a throughput floor
# (SMOKE_MIN_RPS, default 1000 req/s) with p99 latency reported.
serve-smoke:
	sh scripts/serve_smoke.sh

# Chaos drain: the deterministic fault-injection suite — worker stalls,
# mid-job panics, engine-level cancellations, and a 1-byte cache budget
# under load — plus the per-kernel mid-run cancellation tests. Every
# drain must report zero leaked pins and every surviving job must stay
# byte-identical to a fault-free control run. Runs under -race and
# -count=1: the injected faults land on the same seams concurrent
# traffic does, and cached passes prove nothing about chaos.
serve-chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestCancel|TestShed|TestQuota|TestJobDeadline|TestJobTTLEviction' \
		./internal/serve ./internal/simulator
	$(GO) test -race -count=1 -run 'TestServeChaosDrain' ./cmd/rvserve

# Network-scale smoke, two fleets end to end, each run at one engine
# worker and at one worker per CPU, each report byte-compared with its
# committed expected file:
#   - the 1M-agent contact fleet (`rvsim -scenario sparse`: derivation,
#     contact graph, engine build, the pairwise scan over 167k eligible
#     in-range pairs, summary), 7–14 s and about 690 MiB per run
#     depending on host load; at one worker the pairwise scan is one
#     chunk with one block ring; at several, workers claim chunks of the
#     pair list; both skip the windows where a pair's hop masks are
#     disjoint;
#   - a 5,000-agent dense fleet (`rvsim -scenario churn-pu`), the
#     pairwise scan over its 4.1M meetable pairs of triangular pair
#     state, about 2.2–2.5 s and 234 MiB at one worker, 1.5–2.0 s and
#     172 MiB at the default.
# Timings are for a 2-vCPU host; the nightly workflow runs it, `make ci`
# does not.
network-smoke:
	@out=$$(mktemp); \
	$(GO) build -o $$out.rvsim ./cmd/rvsim \
		&& $$out.rvsim -scenario sparse -agents 1000000 -n 128 -horizon 512 -seed 3 -parallel 1 > $$out \
		&& cmp $$out cmd/rvsim/testdata/network-1m.txt \
		&& $$out.rvsim -scenario sparse -agents 1000000 -n 128 -horizon 512 -seed 3 > $$out \
		&& cmp $$out cmd/rvsim/testdata/network-1m.txt \
		&& $$out.rvsim -scenario churn-pu -agents 5000 -n 128 -horizon 4096 -seed 3 -parallel 1 > $$out \
		&& cmp $$out cmd/rvsim/testdata/network-5k-dense.txt \
		&& $$out.rvsim -scenario churn-pu -agents 5000 -n 128 -horizon 4096 -seed 3 > $$out \
		&& cmp $$out cmd/rvsim/testdata/network-5k-dense.txt; \
	status=$$?; rm -f $$out $$out.rvsim; exit $$status

# The exact sequence CI runs; keep local and CI invocations identical.
# bench-compare-smoke subsumes bench-json-smoke (it regenerates the
# trajectory point, then gates it against the committed baseline).
ci: fmt-check vet build build-examples bench-check race cover golden-thrash serve-smoke serve-chaos bench-compare-smoke
