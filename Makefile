# Tier-1 gate plus static, race, fuzz-smoke, fault-injection and an
# end-to-end benchmark smoke. No target writes a tracked file.
#
#   make verify   gofmt gate + build + unit tests + go vet + bench-vet + race
#                 suite + fuzz smoke + faults + crash + diag-smoke + bench-smoke
#   make fmt      fails, listing the files, when gofmt would change any tracked
#                 .go file
#   make test     tier-1 only (what CI gates on)
#   make fuzz     short fuzz smoke (5s each): the XPath/XQuery parsers, the
#                 SQL/XML byte program against the tree serializer (random
#                 cells, and random bodies), the scalar aggregates' typed
#                 loops against a cell-by-cell boxed reference (which the
#                 program and the tree walk share), the group-join against a nested
#                 loop, the B+-tree index against a sorted (key, id) slice,
#                 the filter kernels against Pred.Matches on every access
#                 path (and the CASE WHEN masks against Filter.Matches),
#                 and xsltd's p.*/where= parameters (no 500, no panic,
#                 cached equals uncached)
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
#   make bench-smoke  every repo-benchmark workload for one second; each must
#                 answer correctly (no-rewrite oracle) with no failed request
#   make bench    the Go benchmarks (go test -bench), among them
#                 BenchmarkKernel (each filter kernel at a low and a middle
#                 constant), BenchmarkIndexJoin (200 probes into a cold
#                 200 000-key index, 1, 4 or 16 keys per join call: ns/probe),
#                 BenchmarkParallelRun's scan-int-0.1pct (v = 7)
#                 beside scan-int-mid-0.1pct (v = 500), and
#                 BenchmarkRunDeptWindow's scattered (same-text over
#                 employees inserted in random order, as serve_miss's are,
#                 the window moving every run) beside its same-text
#                 (employees inserted department by department); the
#                 paper's evaluation is the repo benchmark, bash bench/run.sh
#   make paper    BenchmarkPaperFigures: Run per paper figure case (and
#                 attrmap, choose) over 2 000-16 000 sales rows (16 000 is
#                 paper_figs' data), at workers=1 and workers=default
#   make allocs   the allocation sites of one Run (serve_miss's engine shape),
#                 from a memory profile kept in a temporary directory
#   make profile-paper  where Fig. 3's constructor time goes: CPU profiles of
#                 BenchmarkPaperFigures' avts, metric and total at 16 000
#                 rows, one at workers=1 and one at workers=default (the
#                 split of one large XMLAgg), each printed as pprof -top
#   make serve    xsltd over the demo database on :8080 (console on :6060)
#   make demo     paper Examples 1 and 2 end to end, streamed with stats
#   make console  the demo serving the live debug console on :6060

GO ?= go
FUZZTIME ?= 5s

.PHONY: verify fmt test vet bench-vet race fuzz faults crash diag-smoke bench-smoke bench paper allocs profile-paper demo console serve

verify: fmt test vet bench-vet race fuzz faults crash diag-smoke bench-smoke

fmt:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

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
	$(GO) test -run '^$$' -fuzz '^FuzzProgramVsTree$$' -fuzztime $(FUZZTIME) ./internal/sqlxml
	$(GO) test -run '^$$' -fuzz '^FuzzAggregateVsBoxed$$' -fuzztime $(FUZZTIME) ./internal/sqlxml
	$(GO) test -run '^$$' -fuzz '^FuzzJoinVsNestedLoop$$' -fuzztime $(FUZZTIME) ./internal/relstore
	$(GO) test -run '^$$' -fuzz '^FuzzBTreeVsModel$$' -fuzztime $(FUZZTIME) ./internal/relstore
	$(GO) test -run '^$$' -fuzz '^FuzzKernelVsMatches$$' -fuzztime $(FUZZTIME) ./internal/relstore
	$(GO) test -run '^$$' -fuzz '^FuzzTransformParams$$' -fuzztime $(FUZZTIME) ./serve

# The robustness suite arms faultpoints (degradation, persistent faults,
# panic containment — on the caller's goroutine and on a morsel worker's —
# cancellation promptness, bounded morsel look-ahead) — run it under the race
# detector.
faults:
	$(GO) test -race -run 'TestRunContextCancel|TestParallelRunCancel|TestOneRowAggCancel|TestJoinFault|TestTimeout|TestMax|TestLimits|TestRecursionLimit|TestDegradation|TestPersistentFault|TestPanicContainment|TestCompileErrors|TestCursor|TestFault|TestGovernance|TestChainedStageFailure' .
	$(GO) test -race -run 'TestMorselJobPanicIsContained|TestParallelLookaheadIsBounded|TestBatchFault|TestBatchGovernorCancel' ./internal/relstore
	$(GO) test -race ./internal/faultpoint ./internal/governor

# Crash recovery: the WAL's torn-tail and every-byte-offset truncation
# property tests (the facade's over a multi-segment log mixing DDL and
# inserts included), the facade kill-and-replay/fault-matrix durability suite,
# and the MVCC snapshot-isolation races (joins of a pinned snapshot under
# inserts into the very leaves they read included, and the 16-byte views of
# VARCHAR cells construction copies, under inserts right above the pin) —
# all under the race detector.
crash:
	$(GO) test -race ./internal/wal
	$(GO) test -race -run 'TestGroupJoinViewsArePinned|TestTextWideUnderAppends' ./internal/relstore
	$(GO) test -race -run 'TestOpenReopen|TestKillAndReplay|TestViewDDLSurvives|TestTornWrite|TestTruncateAcrossSegments|TestFsyncFault|TestRotateFault|TestCloseIdempotent|TestCloseDurable|TestConcurrentClose|TestGroupCommit|TestCursorIsolated|TestRunsRace|TestSnapshotPinsGauge|TestPostingViewsPinned' .

# Flight-recorder smoke: boot with the recorder armed, induce a WAL fsync
# stall (wal.fsync faultpoint) and a latency-spike overload in the admission
# window (with the event bus blocked, too), poll the monitor, and assert each
# captures exactly one bundle with every section and meters exactly the
# anomalies its ring recorded; lint metric names
# (snake_case, xsltdb_/xsltd_ prefix, HELP text, counters end _total) and
# compare the whole signal surface — metric families, event fields, console
# pages, bundle sections — with serve/testdata/signal_surface.golden. Every
# server owns its registry, so one pass says all a second one would.
diag-smoke:
	$(GO) test -race -run 'TestDiagSmoke|TestDiagConsole|TestMetricNamingLint|TestSignalSurface' ./serve

# End-to-end correctness over the repo benchmark: each workload runs for one
# timed second through bench/run.sh (the command BENCHMARK.json declares),
# and its JSON result line must read "correct":true — every response's bytes
# equal the no-rewrite oracle's — with "failed":0. All five take 20 s on a
# 2-vCPU Xeon once .bench_build/ holds the build, 36 s from a cold one. It
# writes only the gitignored .bench_build/ and bench/out/; a workload's
# stderr is kept in .bench_build/smoke-<w>.err.
WORKLOADS = serve_hit serve_miss lib_scan paper_figs mixed_rw

bench-smoke:
	@mkdir -p .bench_build
	@for w in $(WORKLOADS); do \
		line=$$(bash bench/run.sh --workload $$w --seconds 1 --trace 0 2>.bench_build/smoke-$$w.err | tail -n 1); \
		case "$$line" in \
		*'"correct":true,'*'"failed":0,'*) echo "bench-smoke $$w: ok";; \
		*) echo "bench-smoke $$w: FAILED: $$line"; tail -n 20 .bench_build/smoke-$$w.err; exit 1;; \
		esac; \
	done

bench:
	$(GO) test -bench . -benchmem -run '^$$' . ./internal/obs ./internal/relstore

paper:
	$(GO) test -bench '^BenchmarkPaperFigures$$' -benchmem -run '^$$' .

# Where a Run's allocations come from: BenchmarkRunDeptWindow/same-text
# (serve_miss's engine shape) with every allocation sampled, printed as pprof's top
# allocation sites of the run path, set-up excluded. Counts are totals over
# the benchmark's 1 001 runs (one warm-up, then 1 000): divide by 1 001 for
# allocations per run. The test binary and profile go to a temporary
# directory that is removed afterwards.
allocs:
	@dir=$$(mktemp -d); \
	$(GO) test -run '^$$' -bench '^BenchmarkRunDeptWindow$$/^same-text$$' -benchtime 1000x -benchmem \
		-memprofilerate 1 -memprofile $$dir/mem.out -o $$dir/xsltdb.test . && \
	$(GO) tool pprof -sample_index=alloc_objects -nodefraction 0 -focus 'CompiledTransform..run$$' -top $$dir/xsltdb.test $$dir/mem.out; \
	status=$$?; rm -rf $$dir; exit $$status

# Where the time of paper_figs' constructor-bound cases goes:
# BenchmarkPaperFigures' avts, metric and total (Fig. 3) at 16 000 sales
# rows, CPU-profiled twice — serial (workers=1), then at workers=default,
# where avts' and metric's one XMLAgg group is split across the morsel pool
# as paper_figs runs it — each printed as pprof's top functions after the
# benchmark lines. The benchmark's one-time set-up (loading 2 000-16 000
# rows) is in each profile too, a few per cent of it. The test binary and
# profiles go to a temporary directory that is removed afterwards.
profile-paper:
	@dir=$$(mktemp -d); status=0; \
	for w in 1 default; do \
		echo "== workers=$$w"; \
		$(GO) test -run '^$$' -bench "^BenchmarkPaperFigures$$/^(avts|metric|total)$$/^rows=16000$$/^workers=$$w$$" -benchtime 2s \
			-cpuprofile $$dir/cpu-$$w.out -o $$dir/xsltdb.test . && \
		$(GO) tool pprof -top -nodecount 30 $$dir/xsltdb.test $$dir/cpu-$$w.out || status=1; \
	done; \
	rm -rf $$dir; exit $$status

# The serving daemon over the in-memory demo database: the paper stylesheet
# at http://localhost:8080/v1/transform/paper, console at :6060.
serve:
	$(GO) run ./cmd/xsltd -listen localhost:8080 -console-addr localhost:6060

demo:
	$(GO) run ./cmd/xsltdb demo -stream -stats

console:
	$(GO) run ./cmd/xsltdb demo -analyze -console-addr localhost:6060
