# Tier-1 gate plus static, race, fuzz-smoke, and fault-injection checks.
#
#   make verify   build + unit tests + go vet + race suite + fuzz smoke + faults
#   make test     tier-1 only (what CI gates on)
#   make fuzz     short fuzz smoke (5s each): the XPath/XQuery parsers, the
#                 fused SQL/XML emitter against the tree serializer, and the
#                 group-join against a nested loop
#   make bench-vet  vet + build the read-only benchmark module against the
#                 engine, so API drift that breaks bench/ fails here first
#   make faults   the fault-injection and robustness tests, under -race
#   make crash    crash-recovery suite: WAL torn-tail/offset-sweep property
#                 tests plus the durability and snapshot-isolation tests,
#                 with IO faults injected, under -race
#   make diag-smoke  flight-recorder smoke: faultpoint-induced WAL fsync
#                 stall and latency-spike overload must each capture exactly
#                 one complete bundle; plus the metric-naming lint and the
#                 signal-surface golden
#   make bench    the paper-evaluation benchmarks
#   make bench-json  pushdown speedup measurements -> BENCH_pushdown.json
#   make bench-obs   observability overhead guard  -> BENCH_obs.json
#   make bench-obs-events  wide-event pipeline overhead guard -> BENCH_obs.json
#   make bench-exec  batched/morsel execution-engine guard -> BENCH_exec.json
#   make bench-wal   durable insert throughput per fsync policy -> BENCH_wal.json
#   make bench-serve serving-layer throughput guard -> BENCH_serve.json
#   make serve    xsltd over the demo database on :8080 (console on :6060)
#   make demo     paper Examples 1 and 2 end to end, streamed with stats
#   make console  the demo serving the live debug console on :6060

GO ?= go
FUZZTIME ?= 5s

.PHONY: verify test vet bench-vet race fuzz faults crash diag-smoke bench bench-json bench-obs bench-obs-events bench-exec bench-wal bench-serve demo console serve

verify: test vet bench-vet race fuzz faults crash diag-smoke bench-exec bench-serve bench-obs-events

test:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench/ is its own module (not covered by ./...) and is read-only to engine
# changes: it must keep compiling against whatever the engine exports.
bench-vet:
	cd bench && $(GO) vet . && $(GO) build -o /dev/null .

race:
	$(GO) test -race ./...

# Each target runs alone (-run '^$$' skips unit tests; the xpath package has
# two fuzz targets, so anchor the name).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/xpath
	$(GO) test -run '^$$' -fuzz '^FuzzParsePattern$$' -fuzztime $(FUZZTIME) ./internal/xpath
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/xquery
	$(GO) test -run '^$$' -fuzz '^FuzzEmitVsTree$$' -fuzztime $(FUZZTIME) ./internal/sqlxml
	$(GO) test -run '^$$' -fuzz '^FuzzJoinVsNestedLoop$$' -fuzztime $(FUZZTIME) ./internal/relstore

# The robustness suite arms faultpoints (degradation, breaker, panic
# containment, cancellation promptness) — run it under the race detector.
faults:
	$(GO) test -race -run 'TestRunContextCancel|TestParallelRunCancel|TestOneRowAggCancel|TestJoinFault|TestTimeout|TestMax|TestLimits|TestRecursionLimit|TestDegradation|TestCircuitBreaker|TestPanicContainment|TestCompileErrors|TestCursor|TestFault|TestGovernance|TestChainedStageFailure' .
	$(GO) test -race ./internal/faultpoint ./internal/governor

# Crash recovery: the WAL's torn-tail and every-byte-offset truncation
# property tests, the facade kill-and-replay/fault-matrix durability suite,
# and the MVCC snapshot-isolation races (posting-list views under inserts
# included) — all under the race detector.
crash:
	$(GO) test -race ./internal/wal
	$(GO) test -race -run 'TestGroupJoinViewsArePinned' ./internal/relstore
	$(GO) test -race -run 'TestOpenReopen|TestKillAndReplay|TestViewDDLSurvives|TestTornWrite|TestFsyncFault|TestRotateFault|TestCloseIdempotent|TestCloseDurable|TestConcurrentClose|TestGroupCommit|TestCursorIsolated|TestRunsRace|TestSnapshotPinsGauge|TestPostingViewsPinned' .

# Flight-recorder smoke: boot with the recorder armed, induce a WAL fsync
# stall (wal.fsync faultpoint) and a latency-spike overload, assert each
# captures exactly one bundle with every section; lint metric names
# (snake_case, xsltdb_/xsltd_ prefix, HELP text, counters end _total) and
# compare the whole signal surface — metric families, event fields, console
# pages, bundle sections — with serve/testdata/signal_surface.golden.
diag-smoke:
	$(GO) test -race -run 'TestDiagSmoke|TestDiagConsole|TestMetricNamingLint|TestSignalSurface' ./serve

bench:
	$(GO) test -bench . -benchmem -run xxx .

# Machine-readable pushdown measurements: index probe vs full-scan baseline
# through the public Run API, written to BENCH_pushdown.json.
bench-json:
	$(GO) run ./cmd/xsltbench -pushdown -json BENCH_pushdown.json

# Observability overhead guard: nil-trace fast path must stay under 2%
# estimated overhead (exits non-zero otherwise), compared against the
# committed BENCH_obs.json baseline; also runs the span-op microbenchmarks
# in internal/obs. Artifact: BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/xsltbench -obs-overhead -obs-baseline BENCH_obs.json
	$(GO) test -bench 'BenchmarkNilSpanOps|BenchmarkTracedSpanOps' -benchmem -run xxx ./internal/obs

# Wide-event pipeline guard: serving throughput with per-request events on
# (NDJSON sink) must stay within 3% of events-off on the cached mix (exits
# non-zero otherwise). Merges into the shared BENCH_obs.json artifact.
bench-obs-events:
	$(GO) run ./cmd/xsltbench -events-overhead -obs-baseline BENCH_obs.json

# Execution-engine guard: the batched scan must stay >=1.3x the row-at-a-time
# engine single-threaded, and the morsel-parallel scan >=2x when GOMAXPROCS>1
# (exits non-zero otherwise), compared against the committed BENCH_exec.json
# baseline. Artifact: BENCH_exec.json.
bench-exec:
	$(GO) run ./cmd/xsltbench -exec -exec-baseline BENCH_exec.json

# Durable insert throughput per WAL fsync policy (never / interval / always)
# against the in-memory baseline, plus replay speed. Artifact: BENCH_wal.json.
bench-wal:
	$(GO) run ./cmd/xsltbench -wal

# Serving-layer guard: the result cache must be >=2x the uncached mix's
# throughput over real HTTP (exits non-zero otherwise), compared against the
# committed BENCH_serve.json baseline. Artifact: BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/xsltbench -serve -serve-baseline BENCH_serve.json

# The serving daemon over the in-memory demo database: the paper stylesheet
# at http://localhost:8080/v1/transform/paper, console at :6060.
serve:
	$(GO) run ./cmd/xsltd -listen localhost:8080 -console-addr localhost:6060

demo:
	$(GO) run ./cmd/xsltdb demo -stream -stats

console:
	$(GO) run ./cmd/xsltdb demo -analyze -console-addr localhost:6060
