package xsltdb

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// collect drains a cursor without closing it implicitly via Collect, so
// tests can interleave assertions.
func collect(t *testing.T, c *Cursor) []string {
	t.Helper()
	var out []string
	for {
		row, err := c.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
	}
}

// executionCase is one row of the entry-point equivalence table: how the
// transform is compiled and what state the plan is put in before EACH entry
// point executes it.
type executionCase struct {
	name string
	opts []Option
	arm  func(t *testing.T, ct *CompiledTransform)
	// want checks that the scenario really happened.
	want func(es ExecStats) bool
}

func executionCases() []executionCase {
	forced := func(s Strategy) executionCase {
		return executionCase{
			name: s.String(), opts: []Option{WithForcedStrategy(s)},
			want: func(es ExecStats) bool { return es.StrategyUsed == s && es.Degradations == 0 },
		}
	}
	return []executionCase{
		forced(StrategySQL), forced(StrategyXQuery), forced(StrategyNoRewrite),
		{
			name: "panic-at-open",
			arm: func(t *testing.T, _ *CompiledTransform) {
				faultpoint.EnablePanic("sqlxml.query.open")
				t.Cleanup(faultpoint.Reset)
			},
			want: func(es ExecStats) bool {
				return es.StrategyUsed == StrategyXQuery && es.Degradations == 1 && es.PanicsRecovered == 1
			},
		},
	}
}

// assertEntriesAgree executes one case through a materializing and a
// streaming entry point and demands the same bytes, the same account of how
// the strategy was chosen, and — root name aside — the same span tree.
func assertEntriesAgree(t *testing.T, c executionCase, ct *CompiledTransform,
	run func(context.Context, ...RunOption) (*Result, error),
	open func(context.Context, ...RunOption) (*Cursor, error)) {
	t.Helper()
	arm := func() {
		if c.arm != nil {
			c.arm(t, ct)
		}
	}
	arm()
	runTrace := obs.New()
	defer runTrace.Release()
	res, err := run(context.Background(), WithTrace(runTrace))
	if err != nil {
		t.Fatal(err)
	}
	arm()
	curTrace := obs.New()
	defer curTrace.Release()
	cur, err := open(context.Background(), WithTrace(curTrace))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, cur)
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "cursor vs run", res.Rows, got)

	// What the chain walk decided, and the plan it drove, must not depend on
	// who pulls.
	decided := func(es ExecStats) ExecStats {
		return ExecStats{
			RowsProduced: es.RowsProduced, AccessPath: es.AccessPath,
			StrategyUsed: es.StrategyUsed, Degradations: es.Degradations, PanicsRecovered: es.PanicsRecovered,
		}
	}
	if r, s := decided(res.Stats), decided(cur.Stats()); r != s {
		t.Fatalf("run and cursor disagree:\nrun:    %+v\ncursor: %+v", r, s)
	}
	if !c.want(res.Stats) || res.Stats.AccessPath == "" {
		t.Fatalf("scenario did not take place: %+v", res.Stats)
	}
	runTree := strings.Replace(normalizeAnalyze(runTrace.Tree()), "run ", "cursor ", 1)
	if curTree := normalizeAnalyze(curTrace.Tree()); runTree != curTree {
		t.Fatalf("span trees differ beyond the root's name:\n--- run ---\n%s--- cursor ---\n%s", runTree, curTree)
	}
}

// TestCursorMatchesRunAllStrategies: the streaming cursor must be
// byte-identical to the materializing Run for every strategy — and agree
// with it on everything else a caller can observe, whether the strategy ran
// clean or panicked while opening.
func TestCursorMatchesRunAllStrategies(t *testing.T) {
	for _, c := range executionCases() {
		t.Run(c.name, func(t *testing.T) {
			d := newDeptDB(t)
			_ = d.CreateIndex("emp", "deptno")
			ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			assertEntriesAgree(t, c, ct, ct.Run, ct.OpenCursor)
		})
	}
}

// TestCursorMatchesRunOuterPath covers the Example 2 combined optimisation
// through the cursor.
func TestCursorMatchesRunOuterPath(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithOuterPath("table", "tr"))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.Rows
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cursor %v != run %v", got, want)
	}
}

// TestChainedCursorMatchesRun streams a two-stage pipeline over the same
// table of cases.
func TestChainedCursorMatchesRun(t *testing.T) {
	stage1 := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<report><xsl:for-each select="employees/emp"><row><xsl:value-of select="sal"/></row></xsl:for-each></report>
		</xsl:template>
	</xsl:stylesheet>`
	stage2 := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="report"><rich n="{count(row[. > 2000])}"/></xsl:template>
	</xsl:stylesheet>`
	for _, c := range executionCases() {
		t.Run(c.name, func(t *testing.T) {
			d := newDeptDB(t)
			ct, err := d.CompileTransform("dept_emp", stage1, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			chain, err := ct.Then(stage2)
			if err != nil {
				t.Fatal(err)
			}
			assertEntriesAgree(t, c, ct, chain.Run, chain.OpenCursor)
		})
	}
}

// TestChainedStageFailureIsBlameless: a deterministic error in a chained
// stage is returned once and says nothing about the first stage's strategy —
// no degradation re-runs the first stage on a weaker strategy — through the
// serial route, the parallel one and the cursor alike.
func TestChainedStageFailureIsBlameless(t *testing.T) {
	d := newWideDeptDB(t, relstore.MorselMinRows)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ct.Then(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="/"><x><xsl:value-of select="no-such-function(.)"/></x></xsl:template>
	</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...RunOption) (ExecStats, error) {
		res, err := chain.Run(context.Background(), opts...)
		return res.Stats, err
	}
	stream := func(opts ...RunOption) (ExecStats, error) {
		cur, err := chain.OpenCursor(context.Background(), opts...)
		if err != nil {
			return ExecStats{}, err
		}
		_, err = cur.Collect()
		return cur.Stats(), err
	}
	for _, e := range []struct {
		name  string
		entry func(...RunOption) (ExecStats, error)
		opts  []RunOption
	}{
		{"run", run, []RunOption{WithWorkers(1)}},
		{"run-parallel", run, []RunOption{WithWorkers(2)}},
		{"cursor", stream, []RunOption{WithWorkers(1)}},
	} {
		clean, err := ct.Run(context.Background(), e.opts...)
		if err != nil {
			t.Fatal(err)
		}
		es, err := e.entry(e.opts...)
		if err == nil || governor.IsGovernance(err) || !strings.Contains(err.Error(), "no-such-function") {
			t.Fatalf("%s: err = %v, want the stage's unknown-function error", e.name, err)
		}
		if es.StrategyUsed != StrategySQL || es.Degradations != 0 {
			t.Fatalf("%s: a stage failure was charged to the strategy: %+v", e.name, es)
		}
		if parallel := e.name == "run-parallel"; (es.MorselsExecuted > 0) != parallel {
			t.Fatalf("%s: %d morsels, parallel route %t", e.name, es.MorselsExecuted, parallel)
		}
		if es.RowsScanned > clean.Stats.RowsScanned {
			t.Fatalf("%s: scanned %d rows, a clean run scans %d — the first stage ran more than once",
				e.name, es.RowsScanned, clean.Stats.RowsScanned)
		}
	}
}

// TestChainedRunParallelMatchesSerial: a chained Run under WithWorkers
// constructs its first stage on the parallel route like a plain one, and
// passes each row through the stages as it is pulled, with the same bytes and
// the same final-row limit — over a full scan and an index range.
func TestChainedRunParallelMatchesSerial(t *testing.T) {
	const n = relstore.MorselMinRows + 50
	d := newKeyedDB(t, n)
	ct, err := d.CompileTransform("rows", keyedSheet, WithMaxRows(n))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ct.Then(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="hit"><HIT><xsl:value-of select="."/></HIT></xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range drivingPaths("@id >= 0") {
		serial, err := chain.Run(context.Background(), path.with(WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		parallel, err := chain.Run(context.Background(), path.with(WithWorkers(2), WithTrace(tr))...)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, path.name+": parallel vs serial chained run", serial.Rows, parallel.Rows)
		if len(parallel.Rows) != n || !strings.Contains(parallel.Rows[0], "<HIT>") {
			t.Fatalf("%s: rows = %d, first %q", path.name, len(parallel.Rows), parallel.Rows[0])
		}
		assertParallel(t, path.name, path, parallel.Stats)
		if !strings.Contains(tr.Tree(), "workers=2") {
			t.Fatalf("%s: the scan span does not report the workers:\n%s", path.name, tr.Tree())
		}
		tr.Release()
	}
}

// TestCursorMatchesRunParallel: on the parallel route, too, Run and the
// cursor deliver the same bytes, the same account and the same span tree.
func TestCursorMatchesRunParallel(t *testing.T) {
	d := newWideDeptDB(t, relstore.MorselMinRows+10)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range drivingPaths("deptno >= 0") {
		t.Run(path.name, func(t *testing.T) {
			c := executionCase{name: "parallel", want: func(es ExecStats) bool {
				return es.StrategyUsed == StrategySQL && es.MorselsExecuted > 0 && strings.HasPrefix(es.AccessPath, path.access)
			}}
			opts := path.with(WithWorkers(4))
			assertEntriesAgree(t, c, ct,
				func(ctx context.Context, o ...RunOption) (*Result, error) { return ct.Run(ctx, append(o, opts...)...) },
				func(ctx context.Context, o ...RunOption) (*Cursor, error) {
					return ct.OpenCursor(ctx, append(o, opts...)...)
				})
		})
	}
}

// TestCursorCloseStopsWorkers: a cursor closed mid-stream on the parallel
// route leaves no worker goroutine behind.
func TestCursorCloseStopsWorkers(t *testing.T) {
	d := newWideDeptDB(t, 4*relstore.MorselMinRows)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	cur, err := ct.OpenCursor(context.Background(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if es := cur.Stats(); es.MorselsExecuted == 0 {
		t.Fatalf("the cursor did not take the parallel route: %+v", es)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the cursor opened", runtime.NumGoroutine(), before)
		}
	}
}

// TestCursorEarlyClose: Close before exhaustion abandons the stream; Next
// afterwards reports ErrCursorClosed and Close stays idempotent.
func TestCursorEarlyClose(t *testing.T) {
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
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Next after Close = %v, want ErrCursorClosed", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	// The abandoned run's counters still reached the aggregate.
	if cur.Stats().RowsProduced != 1 {
		t.Fatalf("rows produced = %d", cur.Stats().RowsProduced)
	}
}

// TestCursorContextCancel: cancellation mid-iteration surfaces
// context.Canceled (sticky).
func TestCursorContextCancel(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := ct.OpenCursor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := cur.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if _, err := cur.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation must be sticky, got %v", err)
	}
}

// TestCursorPerRunStats: a cursor reports its own work, and the work lands
// in the database aggregate once finished.
func TestCursorPerRunStats(t *testing.T) {
	d := newDeptDB(t)
	_ = d.CreateIndex("emp", "deptno")
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats().IndexProbes
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	es := cur.Stats()
	if es.RowsProduced != int64(len(rows)) || es.RowsProduced == 0 {
		t.Fatalf("RowsProduced = %d, rows = %d", es.RowsProduced, len(rows))
	}
	if es.IndexProbes == 0 {
		t.Fatal("per-run stats should see the correlated index probes")
	}
	if es.RangeScans == 0 || es.FullScans == 0 {
		t.Fatalf("operator counters missing: %+v", es)
	}
	if d.Stats().IndexProbes != before+es.IndexProbes {
		t.Fatalf("aggregate = %d, want %d + %d", d.Stats().IndexProbes, before, es.IndexProbes)
	}
}

// TestRunWithStatsIsolated: two sequential runs each see only their own
// counters.
func TestRunWithStatsIsolated(t *testing.T) {
	d := newDeptDB(t)
	_ = d.CreateIndex("emp", "deptno")
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := runWithStats(ct)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := runWithStats(ct)
	if err != nil {
		t.Fatal(err)
	}
	if first.IndexProbes != second.IndexProbes || first.RowsProduced != second.RowsProduced {
		t.Fatalf("identical runs should report identical per-run stats: %+v vs %+v", first, second)
	}
	if first.Recompiles != 0 {
		t.Fatalf("no recompiles expected, got %d", first.Recompiles)
	}
}

// TestTypedErrors: the sentinel errors work with errors.Is through every
// public entry point.
func TestTypedErrors(t *testing.T) {
	d := NewDatabase()
	if err := d.Insert("missing", int64(1)); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.CreateIndex("missing", "a"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("CreateIndex: %v", err)
	}
	if err := d.CreateXMLView(&ViewDef{Name: "v", Table: "missing"}); !errors.Is(err, ErrNoTable) {
		t.Fatalf("CreateXMLView missing table: %v", err)
	}
	if _, err := d.CompileTransform("zz", "<x/>"); !errors.Is(err, ErrNoView) {
		t.Fatalf("CompileTransform: %v", err)
	}
	if _, err := d.MaterializeView("zz"); !errors.Is(err, ErrNoView) {
		t.Fatalf("MaterializeView: %v", err)
	}
	if _, err := d.DeriveSchema("zz"); !errors.Is(err, ErrNoView) {
		t.Fatalf("DeriveSchema: %v", err)
	}
	if err := d.ReplaceXMLView(&ViewDef{Name: "zz", Table: "t"}); !errors.Is(err, ErrNoView) {
		t.Fatalf("ReplaceXMLView: %v", err)
	}

	if err := d.CreateTable("t", TableColumn{Name: "v", Type: StringCol}); err != nil {
		t.Fatal(err)
	}
	view := &ViewDef{Name: "mixed", Table: "t", Body: &XMLElement{Name: "p", Children: []XMLExpr{
		&XMLLiteral{Text: "hello "},
		&XMLElement{Name: "b", Children: []XMLExpr{&XMLColumn{Name: "v"}}},
	}}}
	if err := d.CreateXMLView(view); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateXMLView(view); !errors.Is(err, ErrDuplicateView) {
		t.Fatalf("duplicate view: %v", err)
	}
	// Mixed content cannot reach SQL; forcing it must report the fallback.
	_, err := d.CompileTransform("mixed", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="p"><out/></xsl:template>
	</xsl:stylesheet>`, WithForcedStrategy(StrategySQL))
	if !errors.Is(err, ErrRewriteFellBack) {
		t.Fatalf("forced SQL on mixed view: %v", err)
	}
}

// TestPlanTagOption: WithPlanTag namespaces the plan-cache entry — identical
// compilations share a plan, tagged ones get their own — without changing
// the produced output.
func TestPlanTagOption(t *testing.T) {
	d := newDeptDB(t)
	base, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet,
		WithForcedStrategy(StrategyXQuery), WithOuterPath("table", "tr"))
	if err != nil {
		t.Fatal(err)
	}
	entriesBefore := len(d.PlanCacheEntries())
	same, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet,
		WithForcedStrategy(StrategyXQuery), WithOuterPath("table", "tr"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.PlanCacheEntries()); n != entriesBefore {
		t.Fatalf("identical compile added a cache entry: %d -> %d", entriesBefore, n)
	}
	tagged, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet,
		WithForcedStrategy(StrategyXQuery), WithOuterPath("table", "tr"), WithPlanTag("tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.PlanCacheEntries()); n != entriesBefore+1 {
		t.Fatalf("tagged compile must get its own cache entry: %d -> %d", entriesBefore, n)
	}
	if base.Strategy() != tagged.Strategy() {
		t.Fatalf("strategies differ: %v vs %v", base.Strategy(), tagged.Strategy())
	}
	a, err := same.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tagged.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
		t.Fatalf("outputs differ: %v vs %v", a.Rows, b.Rows)
	}
}

// TestPlanCacheHit: recompiling the same (view, version, stylesheet,
// options) is served from the cache, observable via the counters; a view
// redefinition misses.
func TestPlanCacheHit(t *testing.T) {
	d := newDeptDB(t)
	if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Fatalf("after first compile: %+v", s)
	}
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheHits != 1 {
		t.Fatalf("second compile should hit: %+v", s)
	}
	// Different plan options → different entry.
	if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithOuterPath("table", "tr")); err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheMisses != 2 {
		t.Fatalf("outer-path compile should miss: %+v", s)
	}
	// Governance options do not affect the plan → still a hit.
	if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithMaxRows(4)); err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheHits != 2 {
		t.Fatalf("governance-only compile should hit: %+v", s)
	}

	// Redefining the view invalidates: next compile is a miss, and the
	// existing transform recompiles against the new version exactly once.
	if err := d.ReplaceXMLView(sqlxmlDeptEmpViewCopy()); err != nil {
		t.Fatal(err)
	}
	missesBefore := d.PlanCacheStats().CacheMisses
	if _, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ct.Recompiles() != 1 {
		t.Fatalf("recompiles = %d", ct.Recompiles())
	}
	if s := d.PlanCacheStats(); s.CacheMisses != missesBefore+1 {
		t.Fatalf("post-replace run should compile fresh: %+v", s)
	}
	// A second transform of the same shape now hits the recompiled entry.
	if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
		t.Fatal(err)
	}
	if s := d.PlanCacheStats(); s.CacheMisses != missesBefore+1 {
		t.Fatalf("same-shape compile after recompile should hit: %+v", s)
	}
}

// TestPlanCacheSingleflight: concurrent first compilations of one key
// produce exactly one actual compile.
func TestPlanCacheSingleflight(t *testing.T) {
	d := newDeptDB(t)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := d.PlanCacheStats()
	if s.CacheMisses != 1 {
		t.Fatalf("singleflight should compile once, got %d misses", s.CacheMisses)
	}
	if s.CacheHits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", s.CacheHits, goroutines-1)
	}
}

// TestPlanCacheErrorNotCached: a failed compilation is retried, not served
// from the cache.
func TestPlanCacheErrorNotCached(t *testing.T) {
	d := newDeptDB(t)
	if _, err := d.CompileTransform("dept_emp", "not xml"); err == nil {
		t.Fatal("bad stylesheet should fail")
	}
	if _, err := d.CompileTransform("dept_emp", "not xml"); err == nil {
		t.Fatal("bad stylesheet should fail again")
	}
	if s := d.PlanCacheStats(); s.CacheMisses != 2 || s.Entries != 0 {
		t.Fatalf("errors must not be cached: %+v", s)
	}
}

// sqlxmlDeptEmpViewCopy returns a fresh equivalent of the dept_emp view so
// ReplaceXMLView bumps the version without changing semantics.
func sqlxmlDeptEmpViewCopy() *ViewDef {
	return sqlxml.DeptEmpView()
}

// TestConcurrentRunAndReplace is the -race regression for the old
// `*ct = *fresh` unsynchronized recompilation: many goroutines Run one
// shared transform while the view is redefined underneath them.
func TestConcurrentRunAndReplace(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := ct.Run(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.ReplaceXMLView(sqlxmlDeptEmpViewCopy()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Replaces no longer block behind in-flight runs (readers pin MVCC
	// snapshots), so the concurrent phase above may schedule every run
	// before the first version bump. All four replaces have completed by
	// now, so one more run deterministically observes the final version
	// and must recompile if none of the concurrent runs did.
	if _, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ct.Recompiles() == 0 {
		t.Fatal("at least one automatic recompilation expected")
	}
}

// TestConcurrentParallelExecAndStats is the -race regression for the shared
// Executor.Stats counter: runs on the parallel route from several goroutines,
// over a full scan and an index range, while another goroutine reads the
// aggregate.
func TestConcurrentParallelExecAndStats(t *testing.T) {
	d := newWideDeptDB(t, relstore.MorselMinRows)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = d.Stats().IndexProbes // concurrent aggregate reads
		}
	}()
	paths := drivingPaths("deptno >= 0")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(path drivingPath) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if res, err := ct.Run(context.Background(), path.with(WithWorkers(4))...); err != nil {
					errs <- err
					return
				} else if res.Stats.RowsProduced != relstore.MorselMinRows+2 || res.Stats.MorselsExecuted == 0 {
					errs <- fmt.Errorf("%s: %d rows, %d morsels", path.name, res.Stats.RowsProduced, res.Stats.MorselsExecuted)
					return
				}
			}
		}(paths[i%2])
	}
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
