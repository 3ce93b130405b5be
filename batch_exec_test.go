package xsltdb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/relstore"
	"repro/internal/xslt"
)

// batchABRows is sized above relstore.MorselMinRows so that worker counts
// above 1 actually engage the morsel-parallel scan path.
const batchABRows = relstore.MorselMinRows + 1000

// newWideDeptDB adds n departments (deptno 100..) with two employees each,
// one above the paper stylesheet's sal > 2000 and one below, indexed on
// dept.deptno and emp.deptno: enough driving rows for the morsel pool, every
// one running the correlated employee subquery. With the paper's two the
// view has n+2 rows.
func newWideDeptDB(tb testing.TB, n int) *Database {
	tb.Helper()
	d := newBigDeptDB(tb, n)
	emp := d.Rel().Table("emp")
	for i := 0; i < n; i++ {
		for e, sal := range []int64{1500, 3000 + int64(i%7)} {
			if _, err := emp.Insert(int64(100_000+2*i+e), fmt.Sprintf("E%d", i), "STAFF", sal, int64(100+i)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for table, col := range map[string]string{"dept": "deptno", "emp": "deptno"} {
		if err := d.CreateIndex(table, col); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// drivingPath is one way to reach a set of driving rows; a test of the
// parallel route runs over both of drivingPaths.
type drivingPath struct {
	name   string
	access string // the prefix of ExecStats.AccessPath
	opts   []RunOption
}

// drivingPaths selects the rows matching where through a full scan and
// through an index range on the column where names, which must be indexed.
func drivingPaths(where string) []drivingPath {
	return []drivingPath{
		{"full-scan", "TABLE SCAN", []RunOption{WithWhere(where), WithoutPushdown()}},
		{"index-range", "INDEX RANGE SCAN", []RunOption{WithWhere(where)}},
	}
}

// with is the path's options followed by extra.
func (p drivingPath) with(extra ...RunOption) []RunOption {
	return append(append([]RunOption{}, p.opts...), extra...)
}

// assertParallel fails unless es describes an execution over p that took
// the parallel route.
func assertParallel(t *testing.T, label string, p drivingPath, es ExecStats) {
	t.Helper()
	if es.MorselsExecuted == 0 || !strings.HasPrefix(es.AccessPath, p.access) {
		t.Fatalf("%s: access %q with %d morsels, want the parallel route over a %s", label, es.AccessPath, es.MorselsExecuted, p.name)
	}
}

// runRows runs ct and fails the test on error.
func runRows(t *testing.T, ct *CompiledTransform, opts ...RunOption) *Result {
	t.Helper()
	res, err := ct.Run(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameRows compares two runs row by row — the byte-identity contract.
func assertSameRows(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d differs:\n got  %q\n want %q", label, i, got[i], want[i])
		}
	}
}

// TestBatchByteIdentityAcrossKnobs is the A/B suite for the execution knobs
// that must never change output bytes: batch size (including 1, the
// row-at-a-time proxy), worker count (morsels off/on), and pushdown. The
// baseline is the fully serial row-at-a-time configuration.
func TestBatchByteIdentityAcrossKnobs(t *testing.T) {
	d := newKeyedDB(t, batchABRows)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategySQL {
		t.Fatalf("strategy = %v (%s)", ct.Strategy(), ct.FallbackReason())
	}
	baseline := runRows(t, ct, WithWorkers(1), WithBatchSize(1))
	if len(baseline.Rows) != batchABRows {
		t.Fatalf("baseline produced %d rows", len(baseline.Rows))
	}

	cases := []struct {
		label string
		opts  []RunOption
	}{
		{"default", nil},
		{"batch-257", []RunOption{WithBatchSize(257)}},
		{"batch-4096", []RunOption{WithBatchSize(4096)}},
		{"serial", []RunOption{WithWorkers(1)}},
		{"morsels-2", []RunOption{WithWorkers(2)}},
		{"morsels-4", []RunOption{WithWorkers(4)}},
		{"morsels-4-small-batches", []RunOption{WithWorkers(4), WithBatchSize(64)}},
		{"no-pushdown", []RunOption{WithoutPushdown()}},
		{"no-pushdown-morsels", []RunOption{WithoutPushdown(), WithWorkers(4)}},
	}
	for _, tc := range cases {
		res := runRows(t, ct, tc.opts...)
		assertSameRows(t, tc.label, baseline.Rows, res.Rows)
	}

	// The multi-worker run must actually have taken the morsel path, and
	// the batch counters must be live.
	morsel := runRows(t, ct, WithWorkers(4))
	if morsel.Stats.MorselsExecuted == 0 {
		t.Fatalf("workers=4 run executed no morsels: %+v", morsel.Stats)
	}
	if morsel.Stats.Batches == 0 || baseline.Stats.Batches == 0 {
		t.Fatal("Batches counter not populated")
	}
	if baseline.Stats.MorselsExecuted != 0 {
		t.Fatalf("serial baseline reported morsels: %+v", baseline.Stats)
	}
}

// TestBatchByteIdentityAcrossStrategies: all three execution strategies,
// with and without pushdown and with morsels on and off, must keep
// producing byte-identical rows now that every driving scan is batched.
func TestBatchByteIdentityAcrossStrategies(t *testing.T) {
	d := newKeyedDB(t, batchABRows)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	where := WithWhere("@id < 40")
	baseline := runRows(t, ct, where, WithWorkers(1), WithBatchSize(1))
	if len(baseline.Rows) != 40 {
		t.Fatalf("baseline rows = %d", len(baseline.Rows))
	}
	for _, strat := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
		forced, err := d.CompileTransform("rows", keyedSheet, WithForcedStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			label string
			opts  []RunOption
		}{
			{"pushdown", []RunOption{where}},
			{"no-pushdown", []RunOption{where, WithoutPushdown()}},
			{"no-pushdown-morsels", []RunOption{where, WithoutPushdown(), WithWorkers(4)}},
		} {
			res := runRows(t, forced, tc.opts...)
			assertSameRows(t, strat.String()+"/"+tc.label, baseline.Rows, res.Rows)
		}
	}
}

// TestBatchRunOptionValidation: negative knobs surface ErrBadRunOption
// before any execution.
func TestBatchRunOptionValidation(t *testing.T) {
	d := newKeyedDB(t, 3)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Run(context.Background(), WithWorkers(-1)); !errors.Is(err, ErrBadRunOption) {
		t.Fatalf("WithWorkers(-1): %v", err)
	}
	if _, err := ct.Run(context.Background(), WithBatchSize(-5)); !errors.Is(err, ErrBadRunOption) {
		t.Fatalf("WithBatchSize(-5): %v", err)
	}
}

// TestMorselRunCancelPrompt: the <100ms cancellation promptness contract
// with the morsel-parallel scan explicitly engaged — workers must stop
// pulling morsels and the merger must unwind promptly.
func TestMorselRunCancelPrompt(t *testing.T) {
	// A small batch size over a large table keeps the merger pulling
	// batches long enough that the cancel below always lands mid-run.
	d := newKeyedDB(t, relstore.MorselMinRows*8)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.EnableAfter("relstore.scan.batch", math.MaxInt32, nil)
	defer faultpoint.Reset()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ct.Run(ctx, WithWorkers(4), WithBatchSize(64))
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faultpoint.Hits("relstore.scan.batch") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("run never started scanning")
		}
		runtime.Gosched()
	}
	start := time.Now()
	cancel()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("morsel run did not return after cancel")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", elapsed)
	}
}

// TestBatchFaultNoTruncationMorsels: a fault at the batch fetch site fails
// a morsel-parallel run outright — the order-preserving merger must not
// hand the facade a silently truncated prefix.
func TestBatchFaultNoTruncationMorsels(t *testing.T) {
	d := newKeyedDB(t, batchABRows)
	ct, err := d.CompileTransform("rows", keyedSheet, WithForcedStrategy(StrategySQL))
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.EnableAfter("relstore.scan.batch", 2, errBoom)
	defer faultpoint.Reset()
	if _, err := ct.Run(context.Background(), WithWorkers(4)); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
}

// TestParallelConstructByteIdentity: the morsel pool's workers construct
// the serial run's bytes at every worker count, more workers than morsels
// included, over a view whose every row runs a correlated subquery, through a
// full scan and an index range alike, with the same index probes. The per-row
// fault point is hit on the consumer side once per row pulled (and once more
// at end of stream) however many workers constructed, and a fault there
// fails the run without a partial result.
func TestParallelConstructByteIdentity(t *testing.T) {
	const n = relstore.MorselMinRows + 57
	d := newWideDeptDB(t, n)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithForcedStrategy(StrategySQL))
	if err != nil {
		t.Fatal(err)
	}
	paths := drivingPaths("deptno >= 0")
	for _, path := range paths {
		baseline := runRows(t, ct, path.with(WithWorkers(1))...)
		if len(baseline.Rows) != n+2 || baseline.Stats.MorselsExecuted != 0 {
			t.Fatalf("%s baseline: %d rows, %d morsels", path.name, len(baseline.Rows), baseline.Stats.MorselsExecuted)
		}
		for _, workers := range []int{2, 3, 4, 64} {
			label := fmt.Sprintf("%s workers=%d", path.name, workers)
			res := runRows(t, ct, path.with(WithWorkers(workers))...)
			assertSameRows(t, label, baseline.Rows, res.Rows)
			assertParallel(t, label, path, res.Stats)
			if res.Stats.IndexProbes != baseline.Stats.IndexProbes {
				t.Fatalf("%s ran %d probes, serial ran %d", label, res.Stats.IndexProbes, baseline.Stats.IndexProbes)
			}
		}
	}

	defer faultpoint.Reset()
	faultpoint.EnableAfter("sqlxml.query.next", math.MaxInt32, nil)
	runRows(t, ct, paths[0].with(WithWorkers(4))...)
	if hits := faultpoint.Hits("sqlxml.query.next"); hits != n+3 {
		t.Fatalf("per-row fault point hit %d times under 4 workers, want once per row and at end of stream (%d)", hits, n+3)
	}

	faultpoint.EnableAfter("sqlxml.query.next", 40, errBoom)
	if res, err := ct.Run(context.Background(), paths[0].with(WithWorkers(4))...); !errors.Is(err, errBoom) || res.Rows != nil {
		t.Fatalf("err = %v with %d rows, want the injected fault and no rows", err, len(res.Rows))
	}
}
