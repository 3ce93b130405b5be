package xsltdb

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/governor"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xmltree"
	"repro/internal/xslt"
	"repro/internal/xsltmark"
)

// treeRows is the reference the fused SQL strategy is held to: the plan's
// trees from ExecQueryParallelSpec, each through Node.Serialize. Those
// trees come from the plan's tree program, which the compiler also builds;
// it is a reference because internal/sqlxml's tests hold every tree program
// to the expression walk there, node for node (FuzzTreeProgramVsWalk).
func treeRows(t *testing.T, d *Database, ct *CompiledTransform) []string {
	t.Helper()
	var sink relstore.Stats
	docs, err := d.exec.ExecQueryParallelSpec(ct.snapshot().plan, 0, &sink, governor.New(context.Background()), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(docs))
	for i, doc := range docs {
		var sb strings.Builder
		doc.Serialize(&sb, xmltree.SerializeOptions{OmitDecl: true})
		out[i] = sb.String()
	}
	return out
}

// assertFusedMatchesTrees runs ct every way the SQL strategy can execute —
// Run at 1, 2 and 4 construction workers, the cursor, WriteTo — and demands
// the tree reference's bytes from each.
func assertFusedMatchesTrees(t *testing.T, d *Database, ct *CompiledTransform) {
	t.Helper()
	want := treeRows(t, d, ct)
	for _, workers := range []int{1, 2, 4} {
		res := runRows(t, ct, WithWorkers(workers))
		if res.Stats.StrategyUsed != StrategySQL {
			t.Fatalf("ran %v, want the SQL strategy", res.Stats.StrategyUsed)
		}
		assertSameRows(t, fmt.Sprintf("workers=%d", workers), want, res.Rows)
		var sb strings.Builder
		if _, err := res.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		if wantBody := joinRows(want); sb.String() != wantBody {
			t.Fatalf("workers=%d: WriteTo wrote %q, want %q", workers, sb.String(), wantBody)
		}
	}
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "cursor", want, got)
}

func joinRows(rows []string) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestFusedMatchesTreesXSLTMark: every XSLTMark case that compiles to the
// SQL strategy emits exactly the bytes its tree plan serializes to.
func TestFusedMatchesTreesXSLTMark(t *testing.T) {
	ran := 0
	for _, c := range xsltmark.All() {
		if c.Rel == nil {
			continue
		}
		d, ct := compileCase(t, c, 60)
		if ct.Strategy() != StrategySQL {
			continue
		}
		ran++
		t.Run(c.Name, func(t *testing.T) { assertFusedMatchesTrees(t, d, ct) })
	}
	if ran < 5 {
		t.Fatalf("only %d XSLTMark cases reached the SQL strategy", ran)
	}
}

// TestFusedMatchesTreesPaper is the same identity for the paper's own
// example, over windows that exercise the probe and range access paths.
func TestFusedMatchesTreesPaper(t *testing.T) {
	d := newBenchDeptDB(t, 30)
	if err := d.CreateIndex("dept", "deptno"); err != nil {
		t.Fatal(err)
	}
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	assertFusedMatchesTrees(t, d, ct)
	all := runRows(t, ct)
	window := runRows(t, ct, WithWhere("deptno >= $lo and deptno < $hi"), WithParam("lo", 1005), WithParam("hi", 1012))
	// SetupDeptEmp's two departments come first, then 1000, 1001, ...
	assertSameRows(t, "window", all.Rows[2+5:2+12], window.Rows)
}

// deptWindow compiles the paper transform over a 20-employee-per-department
// database and returns the run options selecting a 25-department window.
func deptWindow(t *testing.T) (*CompiledTransform, []RunOption) {
	t.Helper()
	d := newBenchDeptDB(t, 100)
	if err := d.CreateIndex("dept", "deptno"); err != nil {
		t.Fatal(err)
	}
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	return ct, []RunOption{WithWhere("deptno >= $lo and deptno < $hi"), WithParam("lo", 1030), WithParam("hi", 1055)}
}

// TestRunAllocationCeiling pins what the fused pipeline, the group-join and
// binding instead of re-deriving buy: a Run over 25 departments of 20
// employees (≈ 8 000 allocations when every row was a tree, then a builder,
// then a string; ≈ 320 while every department planned, opened and copied its
// own index probe; ≈ 80 while every run re-lowered its WithWhere text,
// pinned a fresh snapshot and formatted its access path through fmt) stays
// under 25. What remains does not grow with the departments: the run's
// fixed costs — the options, the spec and its one predicate buffer, the
// cursor and the one pipeline the chain walk opens, the merged index range,
// the access-path string, the result strings (the where lowering and the
// snapshot are shared while nothing changes; the subquery plan and its group
// scratch come from a pool). The ceiling sits close to the 22 measured so
// that none of those can creep back unnoticed.
func TestRunAllocationCeiling(t *testing.T) {
	ct, opts := deptWindow(t)
	ctx := context.Background()
	if res := runRows(t, ct, opts...); len(res.Rows) != 25 {
		t.Fatalf("window selected %d departments, want 25", len(res.Rows))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ct.Run(ctx, opts...); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Run over 25 departments: %.0f allocs", allocs)
	ceiling := 25.0
	if poolsDropItems() {
		ceiling = 150 // the run's pooled buffers, batches and subquery plans are reallocated at random
	}
	if allocs > ceiling {
		t.Fatalf("Run allocated %.0f times per run, ceiling is %.0f", allocs, ceiling)
	}
}

// poolsDropItems reports whether sync.Pool is discarding a share of what is
// put into it, as it does — one Put in four — under the race detector, where
// an allocation count therefore says little about the code being measured.
func poolsDropItems() bool {
	var pool sync.Pool
	item := new(int)
	for i := 0; i < 64; i++ {
		pool.Put(item)
		if pool.Get() == nil {
			return true
		}
	}
	return false
}

// TestProgramCompiledOncePerPlan: the SQL strategy's byte program is built
// with the plan, not per run — 100 sequential runs and 8 concurrent ones
// share it — and a view replacement's recompile builds the next plan's own.
func TestProgramCompiledOncePerPlan(t *testing.T) {
	d := newBenchDeptDB(t, 5)
	before := sqlxml.ProgramsCompiled()
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	prog := ct.snapshot().prog
	if prog == nil {
		t.Fatal("the SQL plan has no program")
	}
	want := runRows(t, ct)
	for i := 0; i < 100; i++ {
		runRows(t, ct)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ct.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := sqlxml.ProgramsCompiled() - before; n != 1 {
		t.Fatalf("compile and 109 runs built %d programs, want 1", n)
	}
	if err := d.ReplaceXMLView(sqlxml.DeptEmpView()); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "after replace", want.Rows, runRows(t, ct).Rows)
	if n := sqlxml.ProgramsCompiled() - before; n != 2 || ct.snapshot().prog == prog {
		t.Fatalf("the recompiled plan built %d programs in all (want 2), same program: %t", n, ct.snapshot().prog == prog)
	}
}

// TestConstructAllocationsFlatInRows: constructing allocates nothing per
// row — an avts run over 16 000 sales rows allocates what one over 1 000
// does (its output buffer and group scratch are pooled, its result is one
// string).
func TestConstructAllocationsFlatInRows(t *testing.T) {
	if poolsDropItems() {
		t.Skip("sync.Pool drops items under the race detector: pooled buffers are reallocated at random")
	}
	allocs := func(rows int) float64 {
		d := NewDatabase()
		if err := xsltmark.SetupSalesDB(d.Rel(), rows); err != nil {
			t.Fatal(err)
		}
		view := xsltmark.SalesView()
		if err := d.CreateXMLView(view); err != nil {
			t.Fatal(err)
		}
		ct, err := d.CompileTransform(view.Name, xsltmark.ByName("avts").Stylesheet)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Strategy() != StrategySQL {
			t.Fatalf("avts compiled to %v", ct.Strategy())
		}
		// A collection empties sync.Pool, and pools refill by allocating: with
		// the collector off, the count is the construction's alone.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(10, func() {
			if _, err := ct.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(16_000)
	t.Logf("avts Run: %.0f allocs at 1 000 rows, %.0f at 16 000", small, large)
	if large > small+2 || small > large+2 {
		t.Fatalf("avts Run allocated %.0f times at 1 000 rows and %.0f at 16 000: construction allocates per row", small, large)
	}
}

// TestCursorNextAllocationCeiling: a streamed department row costs one
// string — its group was joined with the rest of its batch.
func TestCursorNextAllocationCeiling(t *testing.T) {
	ct, opts := deptWindow(t)
	cur, err := ct.OpenCursor(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(); err != nil { // first Next pays the scan's refill
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Cursor.Next per department: %.0f allocs", allocs)
	if allocs > 6 {
		t.Fatalf("Cursor.Next allocated %.0f times per row, ceiling is 6", allocs)
	}
}

// TestDegradedRunDropsAbandonedBytes: a SQL attempt that fails mid-stream,
// after emitting rows into its buffer, contributes nothing to the result the
// XQuery fallback then produces.
func TestDegradedRunDropsAbandonedBytes(t *testing.T) {
	d := newBenchDeptDB(t, 10)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	forced, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithForcedStrategy(StrategyXQuery))
	if err != nil {
		t.Fatal(err)
	}
	want := runRows(t, forced)

	faultpoint.EnableAfter("sqlxml.query.next", 6, errBoom)
	defer faultpoint.Reset()
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StrategyUsed != StrategyXQuery || res.Stats.Degradations != 1 {
		t.Fatalf("strategy=%v degradations=%d, want one degradation to XQuery", res.Stats.StrategyUsed, res.Stats.Degradations)
	}
	assertSameRows(t, "degraded", want.Rows, res.Rows)
	var sb strings.Builder
	if _, err := res.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != joinRows(want.Rows) {
		t.Fatalf("WriteTo after degradation wrote %d bytes, want the fallback's %d", sb.Len(), len(joinRows(want.Rows)))
	}
}

// writeCounter records what a Result writes and in how many writes.
type writeCounter struct {
	strings.Builder
	writes int
}

func (w *writeCounter) WriteString(s string) (int, error) {
	w.writes++
	return w.Builder.WriteString(s)
}

// TestChainedWriteTo: whatever strategy ran the first stage, WriteTo after a
// chained run writes the final stage's rows — every row followed by a
// newline — as the one string they are slices of.
func TestChainedWriteTo(t *testing.T) {
	d := newKeyedDB(t, 5)
	for _, s := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
		ct, err := d.CompileTransform("rows", keyedSheet, WithForcedStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		chain, err := ct.Then(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="hit"><HIT><xsl:value-of select="."/></HIT></xsl:template>
</xsl:stylesheet>`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chain.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var w writeCounter
		if _, err := res.WriteTo(&w); err != nil {
			t.Fatal(err)
		}
		if want := strings.Join(res.Rows, "\n") + "\n"; w.String() != want || !strings.Contains(want, "<HIT>") || w.writes != 1 {
			t.Fatalf("%v: WriteTo wrote %q in %d writes, want the chained rows %q in one", s, w.String(), w.writes, want)
		}
	}
}

var _ io.WriterTo = (*Result)(nil)
