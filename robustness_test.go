package xsltdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xslt"
)

// newBigDeptDB is the paper database scaled up: n extra departments, each a
// driving row of the dept_emp view, so a full transform produces n+2 rows.
func newBigDeptDB(tb testing.TB, n int) *Database {
	tb.Helper()
	d := NewDatabase()
	if err := sqlxml.SetupDeptEmp(d.Rel()); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := d.Insert("dept", int64(100+i), fmt.Sprintf("DEPT-%05d", i), "NOWHERE"); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		tb.Fatal(err)
	}
	return d
}

// errBoom is the injected strategy failure used by the degradation tests.
var errBoom = errors.New("injected fault")

// runWithStats runs once and splits the Result into the rows+stats shape
// many of these assertions are written against; stats stay available on
// failed runs (degradation counts, recovered panics).
func runWithStats(ct *CompiledTransform) ([]string, *ExecStats, error) {
	res, err := ct.Run(context.Background())
	if res == nil {
		return nil, nil, err
	}
	if err != nil {
		return nil, &res.Stats, err
	}
	return res.Rows, &res.Stats, nil
}

// TestRunContextCancelPrompt is the headline promptness contract: a Run
// over a 10k-row view must abort within 100ms of cancellation, returning an
// error that satisfies both ErrCanceled and context.Canceled.
func TestRunContextCancelPrompt(t *testing.T) {
	d := newBigDeptDB(t, 10_000)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategySQL {
		t.Fatalf("strategy = %v (%s)", ct.Strategy(), ct.FallbackReason())
	}

	// Arm a never-firing fault point purely for its hit counter, so the
	// test knows the scan is genuinely in flight before cancelling. The
	// batch engine hits the site once per batch, not per row, so even a
	// couple of hits means scanning is under way.
	faultpoint.EnableAfter("relstore.scan.batch", math.MaxInt32, nil)
	defer faultpoint.Reset()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ct.Run(ctx)
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
		t.Fatal("run did not return after cancel")
	}
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must also wrap context.Canceled", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", elapsed)
	}
}

// TestParallelRunCancel: the same contract on the parallel route, over a
// full scan and an index range — the consumer and every worker must stop.
func TestParallelRunCancel(t *testing.T) {
	d := newWideDeptDB(t, 4*relstore.MorselMinRows)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	for _, path := range drivingPaths("deptno >= 0") {
		// Gate on the consumer's batch pulls: small batches keep it pulling
		// long after the first morsels were built, so the cancel below
		// lands mid-run.
		site := map[string]string{"full-scan": "relstore.scan.batch", "index-range": "relstore.index.batch"}[path.name]
		faultpoint.EnableAfter(site, math.MaxInt32, nil)
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := ct.Run(ctx, path.with(WithWorkers(4), WithBatchSize(64))...)
			done <- outcome{res, err}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for faultpoint.Hits(site) < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: run never started scanning", path.name)
			}
			runtime.Gosched()
		}
		cancel()
		var got outcome
		select {
		case got = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: parallel run did not return after cancel", path.name)
		}
		if !errors.Is(got.err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", path.name, got.err)
		}
		assertParallel(t, path.name, path, got.res.Stats)
	}
}

// TestTimeoutOption: WithTimeout bounds the run's wall time and surfaces as
// ErrCanceled wrapping context.DeadlineExceeded.
func TestTimeoutOption(t *testing.T) {
	d := newBigDeptDB(t, 10_000)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ct.Run(context.Background())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, must also wrap context.DeadlineExceeded", err)
	}
}

// TestMaxRowsLimit: the rows budget aborts the run with a typed LimitError,
// through both Run and the cursor.
func TestMaxRowsLimit(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithMaxRows(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ct.Run(context.Background())
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("Run err = %v, want ErrLimitExceeded", err)
	}
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Kind != "rows" {
		t.Fatalf("err = %v, want *LimitError{Kind: rows}", err)
	}

	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(); err != nil {
		t.Fatalf("first row must fit the budget: %v", err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("second row = %v, want ErrLimitExceeded", err)
	}
}

// TestMaxOutputBytesLimit: the output budget aborts the run.
func TestMaxOutputBytesLimit(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithMaxOutputBytes(8))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ct.Run(context.Background())
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("err = %v, want ErrLimitExceeded", err)
	}
	var le *governor.LimitError
	if !errors.As(err, &le) || le.Kind != "output-bytes" {
		t.Fatalf("err = %v, want *LimitError{Kind: output-bytes}", err)
	}
}

// TestRecursionLimit: a stylesheet with unbounded template recursion must
// surface ErrRecursionLimit instead of overflowing the stack, under every
// strategy the compiler picks for it.
func TestRecursionLimit(t *testing.T) {
	const sheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="/"><xsl:call-template name="loop"/></xsl:template>
<xsl:template name="loop"><xsl:call-template name="loop"/></xsl:template>
</xsl:stylesheet>`
	d := newDeptDB(t)
	for _, opts := range [][]Option{
		nil,
		{WithMaxRecursionDepth(64)},
		{WithForcedStrategy(StrategyNoRewrite)},
	} {
		ct, err := d.CompileTransform("dept_emp", sheet, opts...)
		if err != nil {
			t.Fatalf("%v: %v", opts, err)
		}
		_, es, err := runWithStats(ct)
		if !errors.Is(err, ErrRecursionLimit) {
			t.Fatalf("%v: err = %v, want ErrRecursionLimit", opts, err)
		}
		// A recursion limit is a final verdict: the run must NOT have
		// degraded to a weaker strategy and tried again.
		if es.Degradations != 0 {
			t.Fatalf("%v: degradations = %d, want 0", opts, es.Degradations)
		}
	}
}

// TestDegradationOnInjectedFault is the acceptance scenario: a fault forced
// into the SQL plan's row construction degrades the run through the chain,
// still produces the correct result, and records the fall in ExecStats.
func TestDegradationOnInjectedFault(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategySQL {
		t.Fatalf("strategy = %v (%s)", ct.Strategy(), ct.FallbackReason())
	}
	wantRes, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Rows

	// Fail the SQL plan three rows into the scan — a mid-stream fault, not
	// an open-time one.
	faultpoint.EnableAfter("sqlxml.query.next", 1, errBoom)
	defer faultpoint.Reset()

	got, es, err := runWithStats(ct)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("degraded run rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after degradation:\n%s\n%s", i, got[i], want[i])
		}
	}
	if es.StrategyUsed != StrategyXQuery {
		t.Fatalf("StrategyUsed = %v, want StrategyXQuery", es.StrategyUsed)
	}
	if es.Degradations != 1 {
		t.Fatalf("Degradations = %d, want 1", es.Degradations)
	}
	if es.String() == "" || !strings.Contains(es.String(), "degradations=1") {
		t.Fatalf("stats line must surface the degradation: %s", es.String())
	}
}

// TestPersistentFaultDegradesEveryRun: a strategy that fails on every run
// is attempted on every run — nothing remembers the failure — and every run
// still degrades to the same bytes.
func TestPersistentFaultDegradesEveryRun(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Rows

	faultpoint.Enable("sqlxml.query.next", errBoom)
	defer faultpoint.Reset()

	for i := 0; i < 12; i++ {
		hitsBefore := faultpoint.Hits("sqlxml.query.next")
		got, es, err := runWithStats(ct)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if es.Degradations != 1 || es.StrategyUsed != StrategyXQuery {
			t.Fatalf("run %d: degradations=%d strategy=%v", i, es.Degradations, es.StrategyUsed)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: degraded rows differ:\n%v\n%v", i, got, want)
		}
		if faultpoint.Hits("sqlxml.query.next") == hitsBefore {
			t.Fatalf("run %d skipped the SQL strategy", i)
		}
	}
}

// TestPanicContainment: an engine panic is recovered at the strategy
// boundary, counted, and handled by degradation; with a forced strategy it
// surfaces as ErrInternal with the captured stack.
func TestPanicContainment(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Rows

	faultpoint.EnablePanic("sqlxml.query.next")
	defer faultpoint.Reset()

	got, es, err := runWithStats(ct)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	if es.PanicsRecovered != 1 || es.Degradations != 1 {
		t.Fatalf("panics=%d degradations=%d, want 1/1", es.PanicsRecovered, es.Degradations)
	}

	// Forced strategy: nothing to degrade to, so the contained panic is
	// the caller's error — typed, with the stack attached.
	forced, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithForcedStrategy(StrategySQL))
	if err != nil {
		t.Fatal(err)
	}
	_, err = forced.Run(context.Background())
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("forced err = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) || len(ie.Stack) == 0 {
		t.Fatalf("err must carry an *InternalError with a stack, got %v", err)
	}
}

// TestPanicContainmentOnWorkers: a panic in a morsel worker's job — here the
// group-join every constructed department runs — cannot be recovered by the
// facade's boundary on the consumer's goroutine, so the pool contains it on
// the worker; it then fails its attempt like a panic raised on the
// consumer: typed, with the worker's stack, counted, and degraded from.
func TestPanicContainmentOnWorkers(t *testing.T) {
	d := newWideDeptDB(t, relstore.MorselMinRows)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.EnablePanic("relstore.join.batch")
	defer faultpoint.Reset()

	// Every strategy constructs on the workers, so each attempt panics there.
	res, err := ct.Run(context.Background(), WithWorkers(4))
	var ie *InternalError
	if !errors.As(err, &ie) || len(ie.Stack) == 0 || !strings.Contains(err.Error(), "faultpoint: injected panic") {
		t.Fatalf("err = %v, want an *InternalError carrying the worker's panic and stack", err)
	}
	if es := res.Stats; es.PanicsRecovered != 3 || es.Degradations != 2 || es.MorselsExecuted == 0 {
		t.Fatalf("panics=%d degradations=%d morsels=%d, want 3/2 on the parallel route", es.PanicsRecovered, es.Degradations, es.MorselsExecuted)
	}

	cur, err := ct.OpenCursor(context.Background(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrInternal) {
		t.Fatalf("cursor Next = %v, want ErrInternal", err)
	}
	cur.Close()
	if es := cur.Stats(); es.PanicsRecovered != 1 || es.StrategyUsed != StrategySQL {
		t.Fatalf("cursor: panics=%d strategy=%v, want 1 on the SQL strategy", es.PanicsRecovered, es.StrategyUsed)
	}
}

// TestCompileErrors: malformed stylesheets are typed ErrCompile with the
// parser's cause reachable underneath.
func TestCompileErrors(t *testing.T) {
	d := newDeptDB(t)
	_, err := d.CompileTransform("dept_emp", `<xsl:stylesheet`)
	if !errors.Is(err, ErrCompile) {
		t.Fatalf("err = %v, want ErrCompile", err)
	}
	if _, err := Transform("<a/>", `not a stylesheet`); !errors.Is(err, ErrCompile) {
		t.Fatalf("Transform err = %v, want ErrCompile", err)
	}
	if _, _, err := RewriteToXQuery(`<xsl:stylesheet`, `r := a`); !errors.Is(err, ErrCompile) {
		t.Fatalf("RewriteToXQuery err = %v, want ErrCompile", err)
	}
}

// TestCursorDoubleClose: Close is idempotent and Next after Close reports
// ErrCursorClosed, under the race detector.
func TestCursorDoubleClose(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cur.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, err := cur.Next(); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Next after Close = %v, want ErrCursorClosed", err)
	}
	if cur.Stats().RowsProduced != 1 {
		t.Fatalf("stats after close: %d rows", cur.Stats().RowsProduced)
	}
}

// TestCursorCloseDuringNext: closing from another goroutine while Next is
// in flight must release the iterators exactly once and leave the cursor in
// a coherent terminal state — run with -race.
func TestCursorCloseDuringNext(t *testing.T) {
	for _, opts := range [][]RunOption{nil, {WithWorkers(4)}} {
		d := newBigDeptDB(t, 2_000)
		ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := ct.OpenCursor(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, err := cur.Next(); err != nil {
					// Three legitimate terminal states: the drain won the
					// race (EOF), Close landed between rows (closed), or it
					// landed mid-pull (canceled). Anything else is a bug.
					if !errors.Is(err, io.EOF) && !errors.Is(err, ErrCursorClosed) && !errors.Is(err, ErrCanceled) {
						t.Errorf("Next during close race = %v", err)
					}
					return
				}
			}
		}()
		// Let the drain loop get going, then yank the cursor out from
		// under it.
		time.Sleep(2 * time.Millisecond)
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		_ = cur.Stats()
	}
}

// TestCursorCancelPrompt: cancelling the cursor's context aborts an
// in-flight Next within the promptness budget.
func TestCursorCancelPrompt(t *testing.T) {
	d := newBigDeptDB(t, 10_000)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := ct.OpenCursor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cancel()
	for {
		_, err := cur.Next()
		if err == nil {
			continue // a row already in flight may still be delivered
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		break
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cursor cancellation took %v, want < 100ms", elapsed)
	}
}

// TestCursorSurfacesMidStreamFault: a mid-stream fault terminates the
// cursor with the typed, sticky error — no silent truncation, no restart on a
// weaker strategy — however many cursors in a row meet it.
func TestCursorSurfacesMidStreamFault(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	for i := 0; i < 12; i++ {
		faultpoint.EnableAfter("sqlxml.query.next", 1, errBoom) // re-arm the pass budget
		cur, err := ct.OpenCursor(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(); err != nil {
			t.Fatalf("cursor %d first row: %v", i, err)
		}
		if _, err := cur.Next(); !errors.Is(err, errBoom) {
			t.Fatalf("cursor %d must surface the fault, got %v", i, err)
		}
		if _, err := cur.Next(); !errors.Is(err, errBoom) {
			t.Fatalf("cursor %d: the fault must be sticky, got %v", i, err)
		}
		if es := cur.Stats(); es.StrategyUsed != StrategySQL || es.Degradations != 0 {
			t.Fatalf("cursor %d stats: strategy=%v degradations=%d", i, es.StrategyUsed, es.Degradations)
		}
		cur.Close()
	}
}

// TestFaultMidScanNoTruncation guards the Err() contract end to end: a
// fault in the relstore scan must fail the run, never silently shorten it.
func TestFaultMidScanNoTruncation(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithForcedStrategy(StrategySQL))
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.EnableAfter("relstore.scan.batch", 1, errBoom)
	defer faultpoint.Reset()
	_, err = ct.Run(context.Background())
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
}

// TestGovernanceNotBreakerFailure: cancellations and limits say nothing
// about the strategy's health, so they never degrade — the failing strategy
// is the only one attempted, on every run.
func TestGovernanceNotBreakerFailure(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithMaxRows(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tr := obs.New()
		res, err := ct.Run(context.Background(), WithTrace(tr))
		if !errors.Is(err, ErrLimitExceeded) {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Stats.Degradations != 0 || tr.Find(StrategySQL.String()) == nil || tr.Find(StrategyXQuery.String()) != nil {
			t.Fatalf("run %d: a limit error degraded (degradations=%d):\n%s", i, res.Stats.Degradations, tr.Tree())
		}
		tr.Release()
	}
}

// TestLimitsBoundTheWork: a row or output budget stops an execution AT the
// row that exceeds it — under every strategy, and through Run exactly as
// through a cursor. Over 2 002 departments neither entry point may scan past
// the driving scan's first batch, and Run may not do more governed work than
// the cursor does (it used to scan, join and construct every row and only
// then count them).
func TestLimitsBoundTheWork(t *testing.T) {
	d := newBenchDeptDB(t, 2000)
	ctx := context.Background()
	limits := map[string]Option{"rows": WithMaxRows(3), "output-bytes": WithMaxOutputBytes(2000)}
	for kind, limit := range limits {
		for _, s := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
			t.Run(kind+"/"+s.String(), func(t *testing.T) {
				ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithForcedStrategy(s), limit)
				if err != nil {
					t.Fatal(err)
				}
				check := func(entry string, es ExecStats, err error) {
					t.Helper()
					var le *governor.LimitError
					if !errors.As(err, &le) || le.Kind != kind {
						t.Fatalf("%s: err = %v, want a %s LimitError", entry, err, kind)
					}
					if es.RowsScanned == 0 || es.RowsScanned > 1024 {
						t.Fatalf("%s scanned %d driving rows, want at most one batch (1024)", entry, es.RowsScanned)
					}
				}
				res, err := ct.Run(ctx)
				check("Run", res.Stats, err)
				cur, err := ct.OpenCursor(ctx)
				if err != nil {
					t.Fatal(err)
				}
				_, err = cur.Collect()
				check("cursor", cur.Stats(), err)
				if run, stream := res.Stats.GovTicks, cur.Stats().GovTicks; run > 2*stream {
					t.Fatalf("Run charged %d governor ticks, the cursor %d: Run must stop where the cursor stops", run, stream)
				}
			})
		}
	}

	// The parallel route stops the same way: the consumer stops at the
	// offending row and the workers never run more than the window of
	// morsels (two per worker) ahead of it, so over 32 morsels neither entry
	// point scans more than window + workers of them.
	t.Run("workers", func(t *testing.T) {
		const workers, morsel = 4, 4096
		kd := newKeyedDB(t, 32*morsel)
		ct, err := kd.CompileTransform("rows", keyedSheet, WithMaxRows(3))
		if err != nil {
			t.Fatal(err)
		}
		check := func(entry string, es ExecStats, err error) {
			t.Helper()
			if !errors.Is(err, ErrLimitExceeded) {
				t.Fatalf("%s: err = %v, want ErrLimitExceeded", entry, err)
			}
			if bound := int64((2*workers + workers) * morsel); es.MorselsExecuted == 0 || es.RowsScanned > bound {
				t.Fatalf("%s scanned %d rows in %d morsels, want the parallel route and at most %d", entry, es.RowsScanned, es.MorselsExecuted, bound)
			}
		}
		res, err := ct.Run(ctx, WithWorkers(workers))
		check("Run", res.Stats, err)
		cur, err := ct.OpenCursor(ctx, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		_, err = cur.Collect()
		check("cursor", cur.Stats(), err)
	})
}
