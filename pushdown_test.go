package xsltdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// keyedViewDef is the pushdown fixture view: one document per driving row,
// exposing the indexed key as an attribute and the payload as a leaf child.
func keyedViewDef() *ViewDef {
	return &ViewDef{
		Name:  "rows",
		Table: "row",
		Body: &XMLElement{
			Name:  "row",
			Attrs: []XMLAttr{{Name: "id", Value: &XMLColumn{Name: "id"}}},
			Children: []XMLExpr{
				&XMLElement{Name: "name", Children: []XMLExpr{&XMLColumn{Name: "name"}}},
			},
		},
	}
}

// newKeyedDB builds row(id, name) with n rows, an index on id, and the
// keyed view — the selective-lookup scenario index pushdown exists for.
func newKeyedDB(tb testing.TB, n int) *Database {
	tb.Helper()
	d := NewDatabase()
	if err := d.CreateTable("row",
		TableColumn{Name: "id", Type: IntCol},
		TableColumn{Name: "name", Type: StringCol}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := d.Insert("row", int64(i), fmt.Sprintf("name-%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.CreateIndex("row", "id"); err != nil {
		tb.Fatal(err)
	}
	if err := d.CreateXMLView(keyedViewDef()); err != nil {
		tb.Fatal(err)
	}
	return d
}

const keyedSheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="row"><hit><xsl:value-of select="name"/></hit></xsl:template>
</xsl:stylesheet>`

// TestPushdownByteIdentical is the correctness contract: the pushed-down run
// and the WithoutPushdown full-scan baseline produce byte-identical rows,
// while their physical access paths (and scan work) differ as advertised.
func TestPushdownByteIdentical(t *testing.T) {
	const n = 300
	d := newKeyedDB(t, n)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategySQL {
		t.Fatalf("strategy = %v (%s)", ct.Strategy(), ct.FallbackReason())
	}

	pushed, err := ct.Run(context.Background(), WithWhere("@id = 123"))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ct.Run(context.Background(), WithWhere("@id = 123"), WithoutPushdown())
	if err != nil {
		t.Fatal(err)
	}
	if len(pushed.Rows) != 1 || pushed.Rows[0] != "<hit>name-123</hit>" {
		t.Fatalf("pushed rows = %v", pushed.Rows)
	}
	if len(baseline.Rows) != len(pushed.Rows) {
		t.Fatalf("baseline rows = %d, pushed = %d", len(baseline.Rows), len(pushed.Rows))
	}
	for i := range pushed.Rows {
		if pushed.Rows[i] != baseline.Rows[i] {
			t.Fatalf("row %d differs:\npushed:   %s\nbaseline: %s", i, pushed.Rows[i], baseline.Rows[i])
		}
	}

	if !strings.Contains(pushed.Stats.AccessPath, "INDEX PROBE row(id)") {
		t.Fatalf("pushed access path = %q, want an index probe", pushed.Stats.AccessPath)
	}
	if !strings.Contains(baseline.Stats.AccessPath, "TABLE SCAN") {
		t.Fatalf("baseline access path = %q, want a table scan", baseline.Stats.AccessPath)
	}
	if pushed.Stats.RowsScanned >= n/10 {
		t.Fatalf("index probe scanned %d heap rows; should be near zero", pushed.Stats.RowsScanned)
	}
	if baseline.Stats.RowsScanned < n {
		t.Fatalf("full-scan baseline scanned %d rows, want >= %d", baseline.Stats.RowsScanned, n)
	}
}

// TestPushdownRangeScan: an inequality lowers to an index range scan, again
// byte-identical with the full-scan baseline.
func TestPushdownRangeScan(t *testing.T) {
	d := newKeyedDB(t, 100)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	pushed, err := ct.Run(context.Background(), WithWhere("@id >= 90"))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ct.Run(context.Background(), WithWhere("@id >= 90"), WithoutPushdown())
	if err != nil {
		t.Fatal(err)
	}
	if len(pushed.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(pushed.Rows))
	}
	if fmt.Sprint(pushed.Rows) != fmt.Sprint(baseline.Rows) {
		t.Fatalf("range pushdown differs from baseline:\n%v\n%v", pushed.Rows, baseline.Rows)
	}
	if !strings.Contains(pushed.Stats.AccessPath, "INDEX RANGE SCAN row(id)") {
		t.Fatalf("access path = %q, want an index range scan", pushed.Stats.AccessPath)
	}
}

// TestExplainPlanRunOptions: ExplainPlan previews the per-run access path —
// including unbound parameters, rendered as :name placeholders.
func TestExplainPlanRunOptions(t *testing.T) {
	d := newKeyedDB(t, 50)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	plain := ct.ExplainPlan()
	if !strings.Contains(plain, "TABLE SCAN row") {
		t.Fatalf("unfiltered plan = %q, want a table scan", plain)
	}
	probe := ct.ExplainPlan(WithWhere("@id = $key"))
	if !strings.Contains(probe, "INDEX PROBE row(id)") || !strings.Contains(probe, ":key") {
		t.Fatalf("parameterized plan = %q, want an index probe on :key", probe)
	}
	forced := ct.ExplainPlan(WithWhere("@id = $key"), WithoutPushdown())
	if !strings.Contains(forced, "TABLE SCAN row") {
		t.Fatalf("WithoutPushdown plan = %q, want a table scan", forced)
	}
}

// TestWithParamOnePlanManyBindings is the bind-variable contract: one
// compiled plan serves every binding (no recompiles, no extra cache
// entries), each probing the index with its own value.
func TestWithParamOnePlanManyBindings(t *testing.T) {
	d := newKeyedDB(t, 50)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	missesBefore := d.PlanCacheStats().CacheMisses
	for _, k := range []int{3, 17, 42} {
		res, err := ct.Run(context.Background(), WithWhere("@id = $key"), WithParam("key", k))
		if err != nil {
			t.Fatalf("key=%d: %v", k, err)
		}
		want := fmt.Sprintf("<hit>name-%d</hit>", k)
		if len(res.Rows) != 1 || res.Rows[0] != want {
			t.Fatalf("key=%d: rows = %v, want [%s]", k, res.Rows, want)
		}
		if !strings.Contains(res.Stats.AccessPath, "INDEX PROBE row(id)") {
			t.Fatalf("key=%d: access path = %q", k, res.Stats.AccessPath)
		}
	}
	if misses := d.PlanCacheStats().CacheMisses; misses != missesBefore {
		t.Fatalf("parameterized runs must not recompile: misses %d -> %d", missesBefore, misses)
	}
	if ct.Recompiles() != 0 {
		t.Fatalf("recompiles = %d, want 0", ct.Recompiles())
	}
}

// TestRunOptionErrors: invalid run options fail fast with typed errors —
// before the execution chain runs (no strategy attempted, no degradation, no
// partial work).
func TestRunOptionErrors(t *testing.T) {
	d := newKeyedDB(t, 10)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  RunOption
		want error
	}{
		{"unbound param", WithWhere("@id = $key"), ErrUnboundParam},
		{"bad value type", WithParam("key", []int{1}), ErrBadRunOption},
		{"unknown column", WithWhere("bogus = 1"), ErrBadRunOption},
		{"disjunction", WithWhere("@id = 1 or @id = 2"), ErrBadRunOption},
	} {
		tr := obs.New()
		res, err := ct.Run(context.Background(), c.opt, WithTrace(tr))
		if !errors.Is(err, c.want) {
			t.Fatalf("%s err = %v, want %v", c.name, err, c.want)
		}
		if (res != nil && res.Stats.Degradations != 0) || tr.Find(ct.Strategy().String()) != nil {
			t.Fatalf("%s: a strategy was attempted:\n%s", c.name, tr.Tree())
		}
		tr.Release()
	}
	// The same validation guards the cursor before it opens.
	if _, err := ct.OpenCursor(context.Background(), WithWhere("@id = $key")); !errors.Is(err, ErrUnboundParam) {
		t.Fatalf("cursor unbound param err = %v, want ErrUnboundParam", err)
	}
}

// TestPushdownAllStrategiesAgree: a WithWhere predicate selects the same
// rows under every execution strategy — the SQL plan pushes it to the access
// path, the fallbacks filter the driving rows at view materialization.
func TestPushdownAllStrategiesAgree(t *testing.T) {
	d := newKeyedDB(t, 30)
	var outputs [][]string
	for _, s := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
		ct, err := d.CompileTransform("rows", keyedSheet, WithForcedStrategy(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		res, err := ct.Run(context.Background(), WithWhere("@id = 7"))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%v: rows = %v", s, res.Rows)
		}
		outputs = append(outputs, res.Rows)
	}
	for i := 1; i < len(outputs); i++ {
		if fmt.Sprint(outputs[i]) != fmt.Sprint(outputs[0]) {
			t.Fatalf("strategy %d output differs: %v vs %v", i, outputs[i], outputs[0])
		}
	}
}

// TestCursorPushdown: the streaming cursor takes the same run options and
// reports the same access path as Run.
func TestCursorPushdown(t *testing.T) {
	d := newKeyedDB(t, 200)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ct.OpenCursor(context.Background(), WithWhere("@id = $key"), WithParam("key", 55))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0] != "<hit>name-55</hit>" {
		t.Fatalf("rows = %v", rows)
	}
	es := cur.Stats()
	if !strings.Contains(es.AccessPath, "INDEX PROBE row(id)") {
		t.Fatalf("cursor access path = %q", es.AccessPath)
	}
	if es.RowsScanned >= 20 {
		t.Fatalf("cursor probe scanned %d heap rows", es.RowsScanned)
	}
}

// TestReplaceViewRacesParameterizedRuns is the -race contract for the new
// API: concurrent parameterized Runs and cursors race ReplaceXMLView; every
// execution either sees the old or the new view version, never a torn state,
// and the transform recompiles automatically afterwards.
func TestReplaceViewRacesParameterizedRuns(t *testing.T) {
	d := newKeyedDB(t, 40)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				key := (worker*10 + j) % 40
				res, err := ct.Run(context.Background(), WithWhere("@id = $key"), WithParam("key", key))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 {
					errs <- fmt.Errorf("key %d: %d rows", key, len(res.Rows))
					return
				}
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				cur, err := ct.OpenCursor(context.Background(), WithWhere("@id >= 35"))
				if err != nil {
					errs <- err
					return
				}
				if _, err := cur.Collect(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.ReplaceXMLView(keyedViewDef()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A run after the last replace must recompile against the new version.
	if _, err := ct.Run(context.Background(), WithWhere("@id = 1")); err != nil {
		t.Fatal(err)
	}
	if ct.Recompiles() == 0 {
		t.Fatal("at least one automatic recompilation expected")
	}
}

// TestChainedGovernanceOutputBytes: the chained stages run under the first
// stage's full governance — a pipeline whose chained stage expands its input
// past MaxOutputBytes must fail, even when the first stage's own output fits.
func TestChainedGovernanceOutputBytes(t *testing.T) {
	d := newKeyedDB(t, 4)
	ct, err := d.CompileTransform("rows", keyedSheet, WithMaxOutputBytes(200))
	if err != nil {
		t.Fatal(err)
	}
	const expander = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="hit"><big pad="xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"><xsl:value-of select="."/></big></xsl:template>
	</xsl:stylesheet>`
	chain, err := ct.Then(expander)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the first stage alone fits its budget.
	if res, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	} else if total := len(fmt.Sprint(res.Rows)); total > 200 {
		t.Fatalf("fixture broken: first stage already exceeds the budget (%d bytes)", total)
	}
	if _, err := chain.Run(context.Background()); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("chained run err = %v, want ErrLimitExceeded", err)
	}
	// The streaming pipeline enforces the same budget.
	cur, err := chain.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Collect(); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("chained cursor err = %v, want ErrLimitExceeded", err)
	}
}

// BenchmarkPushdownLookup is the acceptance benchmark: a single-document
// lookup by indexed key over a large table, pushed down versus the full-scan
// baseline.
func BenchmarkPushdownLookup(b *testing.B) {
	const n = 100_000
	d := newKeyedDB(b, n)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("index-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ct.Run(context.Background(),
				WithWhere("@id = $key"), WithParam("key", (i*7919)%n))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ct.Run(context.Background(),
				WithWhere("@id = $key"), WithParam("key", (i*7919)%n), WithoutPushdown())
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
		}
	})
}
