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

// TestParallelConstructByteIdentity: the SQL strategy's construction fan-out
// — one goroutine and one buffer per worker over a contiguous chunk of the
// drained driving rows — emits the serial run's bytes at every worker count,
// more workers than rows included, over a view whose every row runs a
// correlated subquery. The per-row fault point, the fault-fails-the-run
// contract and the worker panic conversion all survive the chunking.
func TestParallelConstructByteIdentity(t *testing.T) {
	d := newBenchDeptDB(t, 57)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithForcedStrategy(StrategySQL))
	if err != nil {
		t.Fatal(err)
	}
	baseline := runRows(t, ct, WithWorkers(1))
	if len(baseline.Rows) != 59 {
		t.Fatalf("baseline produced %d rows", len(baseline.Rows))
	}
	for _, workers := range []int{2, 3, 4, 64} {
		res := runRows(t, ct, WithWorkers(workers))
		assertSameRows(t, fmt.Sprintf("workers=%d", workers), baseline.Rows, res.Rows)
		if res.Stats.IndexProbes != baseline.Stats.IndexProbes {
			t.Fatalf("workers=%d ran %d probes, serial ran %d", workers, res.Stats.IndexProbes, baseline.Stats.IndexProbes)
		}
	}

	defer faultpoint.Reset()
	faultpoint.EnableAfter("sqlxml.query.next", math.MaxInt32, nil)
	runRows(t, ct, WithWorkers(4))
	if hits := faultpoint.Hits("sqlxml.query.next"); hits != 59 {
		t.Fatalf("per-row fault point hit %d times under 4 workers, want once per row (59)", hits)
	}

	faultpoint.EnableAfter("sqlxml.query.next", 40, errBoom)
	if res, err := ct.Run(context.Background(), WithWorkers(4)); !errors.Is(err, errBoom) || res.Rows != nil {
		t.Fatalf("err = %v with %d rows, want the injected fault and no rows", err, len(res.Rows))
	}

	faultpoint.EnablePanic("sqlxml.query.next")
	if _, err := ct.Run(context.Background(), WithWorkers(4)); err == nil || !strings.Contains(err.Error(), "worker panic") {
		t.Fatalf("err = %v, want the worker's panic converted to an error", err)
	}
}
