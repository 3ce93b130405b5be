package xsltdb

// The benchmark harness regenerates the paper's evaluation (§5):
//
//   - BenchmarkFigure2_*: the 'dbonerow' XSLTMark case — XSLT rewrite vs
//     no-rewrite across document sizes. The paper's 8M/16M/32M/64M stored
//     documents map to scale factors over the generated sales data; the
//     claim under test is the SHAPE: no-rewrite grows linearly with the
//     document, rewrite stays nearly flat thanks to the B-tree probe.
//   - BenchmarkFigure3_*: 'avts', 'chart', 'metric', 'total' — no value
//     index applies, yet the rewrite avoids materializing and walking the
//     DOM entirely.
//   - BenchmarkAblation*: the design choices DESIGN.md calls out.
//
// Run: go test -bench=. -benchmem  (cmd/xsltbench prints figure tables).

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"testing"

	"strings"

	"repro/internal/clobstore"
	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xmltree"
	"repro/internal/xq2sql"
	"repro/internal/xquery"
	"repro/internal/xschema"
	"repro/internal/xslt"
	"repro/internal/xsltmark"
	"repro/internal/xsltvm"
	"repro/internal/xtest"
)

// benchEnv packages a case loaded at a scale factor.
type benchEnv struct {
	db    *relstore.DB
	exec  *sqlxml.Executor
	view  *sqlxml.ViewDef
	sheet *xslt.Stylesheet
	// plan is the lowered SQL/XML query (rewrite path).
	plan *sqlxml.Query
	// rows is the materialized XMLType input (no-rewrite path input).
	rows []*xmltree.Node
	// module is the intermediate XQuery.
	module *xquery.Module
}

// loadCase builds everything both paths need, with the case's indexes.
func loadCase(tb testing.TB, name string, n int) *benchEnv {
	tb.Helper()
	c := xsltmark.ByName(name)
	if c == nil || c.Rel == nil {
		tb.Fatalf("case %q not database-backed", name)
	}
	db := relstore.NewDB()
	if err := c.Rel.Setup(db, n); err != nil {
		tb.Fatal(err)
	}
	for table, cols := range c.Rel.IndexCols {
		for _, col := range cols {
			if err := db.Table(table).CreateIndex(col); err != nil {
				tb.Fatal(err)
			}
		}
	}
	exec := sqlxml.NewExecutor(db)
	view := c.Rel.View()
	schema, err := exec.DeriveSchema(view)
	if err != nil {
		tb.Fatal(err)
	}
	sheet := xtest.Sheet(tb, c.Stylesheet)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := xq2sql.Translate(res.Module, view)
	if err != nil {
		tb.Fatalf("%s does not lower: %v", name, err)
	}
	rows, err := exec.MaterializeViewSpec(view, nil, &exec.Stats, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return &benchEnv{db: db, exec: exec, view: view, sheet: sheet, plan: plan, rows: rows, module: res.Module}
}

// runRewrite executes the SQL/XML plan (the paper's "rewrite" series).
func (e *benchEnv) runRewrite(tb testing.TB) {
	docs, err := e.exec.ExecQueryParallelSpec(e.plan, 0, &e.exec.Stats, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if len(docs) == 0 {
		tb.Fatal("no output")
	}
}

// runNoRewrite materializes the XMLType value and interprets the stylesheet
// over the DOM (the paper's "no-rewrite" series). Materialization cost is
// included, exactly as in the paper's functional XMLTransform() evaluation.
func (e *benchEnv) runNoRewrite(tb testing.TB) {
	rows, err := e.exec.MaterializeViewSpec(e.view, nil, &e.exec.Stats, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	eng := xslt.New(e.sheet)
	for _, row := range rows {
		if _, err := eng.Transform(row); err != nil {
			tb.Fatal(err)
		}
	}
}

// Figure2Sizes are the scale factors standing in for the paper's
// 8M/16M/32M/64M stored documents (rows of generated sales data).
var Figure2Sizes = []int{2000, 4000, 8000, 16000}

func BenchmarkFigure2(b *testing.B) {
	for _, n := range Figure2Sizes {
		env := loadCase(b, "dbonerow", n)
		b.Run(fmt.Sprintf("rows=%d/rewrite", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.runRewrite(b)
			}
		})
		b.Run(fmt.Sprintf("rows=%d/no-rewrite", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.runNoRewrite(b)
			}
		})
	}
}

// Figure3Cases are the four non-predicate cases of the paper's Figure 3.
var Figure3Cases = []string{"avts", "chart", "metric", "total"}

func BenchmarkFigure3(b *testing.B) {
	const n = 4000
	for _, name := range Figure3Cases {
		env := loadCase(b, name, n)
		b.Run(name+"/rewrite", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.runRewrite(b)
			}
		})
		b.Run(name+"/no-rewrite", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.runNoRewrite(b)
			}
		})
	}
}

// BenchmarkAblationTranslationModes compares the three XSLT→XQuery
// generation strategies executing FUNCTIONALLY over the same document:
// straightforward ([9] baseline), non-inline, and inline. This isolates the
// §3 rewrite quality from the §2 relational lowering.
func BenchmarkAblationTranslationModes(b *testing.B) {
	const n = 1000
	doc, err := xmltree.Parse(xsltmark.GenSalesDoc(n))
	if err != nil {
		b.Fatal(err)
	}
	// A realistic wide stylesheet: the dbaccess rules surrounded by thirty
	// templates for other document types (the situation §3.1 describes:
	// the straightforward translation re-tests every pattern per node,
	// while PE-driven modes prune to the instantiated set).
	var sb strings.Builder
	sb.WriteString(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">`)
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, `<xsl:template match="other%d/leaf%d"><x%d/></xsl:template>`, i, i, i)
	}
	sb.WriteString(`
		<xsl:template match="table"><html><xsl:apply-templates select="row"/></html></xsl:template>
		<xsl:template match="row"><tr><td><xsl:value-of select="id"/></td><td><xsl:value-of select="name"/></td></tr></xsl:template>
	</xsl:stylesheet>`)
	sheet := xtest.Sheet(b, sb.String())
	schema := mustSchema(b, xsltmark.SalesSchema)

	for _, mode := range []core.Mode{core.ModeStraightforward, core.ModeNonInline, core.ModeInline} {
		res, err := core.Rewrite(sheet, schema, mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := xquery.EvalModule(res.Module, xquery.NewEnv(xquery.Item(doc))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIndexVsScan isolates the B-tree's contribution to
// Figure 2: the same lowered dbonerow plan with and without the id index.
func BenchmarkAblationIndexVsScan(b *testing.B) {
	const n = 8000
	c := xsltmark.ByName("dbonerow")

	build := func(withIndex bool) *benchEnv {
		db := relstore.NewDB()
		if err := c.Rel.Setup(db, n); err != nil {
			b.Fatal(err)
		}
		if withIndex {
			if err := db.Table("sales").CreateIndex("id"); err != nil {
				b.Fatal(err)
			}
		}
		exec := sqlxml.NewExecutor(db)
		view := c.Rel.View()
		schema, _ := exec.DeriveSchema(view)
		res, err := core.Rewrite(xtest.Sheet(b, c.Stylesheet), schema, core.ModeAuto)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := xq2sql.Translate(res.Module, view)
		if err != nil {
			b.Fatal(err)
		}
		return &benchEnv{db: db, exec: exec, view: view, plan: plan}
	}

	withIdx := build(true)
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			withIdx.runRewrite(b)
		}
	})
	noIdx := build(false)
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			noIdx.runRewrite(b)
		}
	})
}

// BenchmarkAblationStreaming compares constructing the result directly from
// columns (the lowered plan) against materializing the XML view first and
// then running the GENERATED XQUERY functionally — isolating the benefit of
// skipping materialization even with an optimal query.
func BenchmarkAblationStreaming(b *testing.B) {
	const n = 4000
	env := loadCase(b, "avts", n)
	b.Run("streaming-sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.runRewrite(b)
		}
	})
	b.Run("materialize-then-xquery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := env.exec.MaterializeViewSpec(env.view, nil, &env.exec.Stats, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range rows {
				if _, err := xquery.EvalModule(env.module, xquery.NewEnv(xquery.Item(row))); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationVMvsInterpreter compares the two functional XSLT
// executors (tree-walking interpreter vs XSLTVM bytecode) on the paper's
// Example 1.
func BenchmarkAblationVMvsInterpreter(b *testing.B) {
	doc, err := xmltree.Parse(xslt.PaperDeptRow1)
	if err != nil {
		b.Fatal(err)
	}
	sheet := xtest.Sheet(b, xslt.PaperStylesheet)
	b.Run("interpreter", func(b *testing.B) {
		eng := xslt.New(sheet)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Transform(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vm", func(b *testing.B) {
		vm := newVM(b, sheet)
		for i := 0; i < b.N; i++ {
			if _, err := vm.Run(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRewriteCompilation measures CompileTransform with the plan
// cache in play: the first iteration pays the full pipeline (partial
// evaluation + generation + lowering), every further iteration is a cache
// hit — the compile-once/run-many cost the paper amortizes. Compare with
// BenchmarkPlanCache/miss for the uncached cost.
func BenchmarkRewriteCompilation(b *testing.B) {
	d := NewDatabase()
	if err := sqlxml.SetupDeptEmp(d.Rel()); err != nil {
		b.Fatal(err)
	}
	if err := d.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
		if err != nil {
			b.Fatal(err)
		}
		if ct.Strategy() != StrategySQL {
			b.Fatal("expected SQL strategy")
		}
	}
}

// newBenchDeptDB builds a dept/emp database with nDepts departments of 20
// employees each through the public API, with both indexes.
func newBenchDeptDB(b testing.TB, nDepts int) *Database {
	b.Helper()
	d := NewDatabase()
	if err := sqlxml.SetupDeptEmp(d.Rel()); err != nil {
		b.Fatal(err)
	}
	dept := d.Rel().Table("dept")
	emp := d.Rel().Table("emp")
	for dn := 1000; dn < 1000+nDepts; dn++ {
		if _, err := dept.Insert(int64(dn), fmt.Sprintf("D%d", dn), "CITY"); err != nil {
			b.Fatal(err)
		}
		for e := 0; e < 20; e++ {
			if _, err := emp.Insert(int64(dn*100+e), fmt.Sprintf("E%d", e), "STAFF",
				int64(500+(e*397)%4500), int64(dn)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := d.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		b.Fatal(err)
	}
	if err := d.CreateIndex("emp", "sal"); err != nil {
		b.Fatal(err)
	}
	if err := d.CreateIndex("emp", "deptno"); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkCursorVsRun compares materializing execution (Run) against the
// streaming cursor over the same compiled SQL plan: same work per row, but
// the cursor holds one row at a time.
func BenchmarkCursorVsRun(b *testing.B) {
	d := newBenchDeptDB(b, 200)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ct.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("cursor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := ct.OpenCursor(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				if _, err := cur.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				n++
			}
			_ = cur.Close()
			if n == 0 {
				b.Fatal("no rows")
			}
		}
	})
	// First-row latency: how much work before the first result is in hand.
	b.Run("cursor-first-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := ct.OpenCursor(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cur.Next(); err != nil {
				b.Fatal(err)
			}
			_ = cur.Close()
		}
	})
}

// BenchmarkRunDeptWindow is serve_miss's engine shape: a 25-department
// window of 2 000 departments × 20 employees, both deptno columns indexed —
// a two-sided driving range feeding one index join (EXPERIMENTS.md
// "Group-join" profiles this).
func BenchmarkRunDeptWindow(b *testing.B) {
	d := newBenchDeptDB(b, 2000)
	if err := d.CreateIndex("dept", "deptno"); err != nil {
		b.Fatal(err)
	}
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		b.Fatal(err)
	}
	opts := []RunOption{WithWhere("deptno >= $lo and deptno < $hi"), WithParam("lo", 2030), WithParam("hi", 2055)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ct.Run(context.Background(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 25 {
			b.Fatalf("window selected %d departments", len(res.Rows))
		}
	}
}

// BenchmarkParallelRuns hammers ONE shared compiled transform from all
// procs — the per-run stats sinks mean the goroutines never contend on a
// shared counter.
func BenchmarkParallelRuns(b *testing.B) {
	d := newBenchDeptDB(b, 50)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := ct.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanCache isolates the cache's effect: "hit" recompiles the same
// (view, stylesheet) — served from the cache; "miss" compiles a distinct
// stylesheet each iteration — the full pipeline every time.
func BenchmarkPlanCache(b *testing.B) {
	const sheetTmpl = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept"><out v="%d"><xsl:value-of select="dname"/></out></xsl:template>
	</xsl:stylesheet>`
	b.Run("hit", func(b *testing.B) {
		d := newBenchDeptDB(b, 2)
		if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := d.PlanCacheStats(); s.CacheHits < int64(b.N) {
			b.Fatalf("expected hits, got %+v", s)
		}
	})
	b.Run("miss", func(b *testing.B) {
		d := newBenchDeptDB(b, 2)
		for i := 0; i < b.N; i++ {
			if _, err := d.CompileTransform("dept_emp", fmt.Sprintf(sheetTmpl, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := d.PlanCacheStats(); s.CacheHits != 0 {
			b.Fatalf("expected no hits, got %+v", s)
		}
	})
}

// ---- small helpers ----

func mustSchema(tb testing.TB, compact string) *xschema.Schema {
	tb.Helper()
	s, err := xschema.ParseCompact(compact)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newVM(tb testing.TB, sheet *xslt.Stylesheet) *xsltvm.VM {
	tb.Helper()
	prog, err := xsltvm.Compile(sheet)
	if err != nil {
		tb.Fatal(err)
	}
	return xsltvm.New(prog)
}

// BenchmarkAblationStorageModels is the study the paper's §7.4 proposes:
// the same XSLT workload over the three physical XMLType storage models.
// The workload is Example-1-shaped: many dept documents, transform each.
//
//   - object-relational: base tables + view; the rewrite runs as a SQL plan
//   - tree: pre-parsed DOMs, functional interpretation (no parse cost)
//   - clob: serialized text, parse-then-interpret per transformation
//   - clob+pvindex: a path/value index pre-selects the documents a
//     predicate-bearing query needs, parsing only those
func BenchmarkAblationStorageModels(b *testing.B) {
	const nDepts = 200
	const empsPer = 20

	// Object-relational backing.
	db := relstore.NewDB()
	if err := sqlxml.SetupDeptEmp(db); err != nil {
		b.Fatal(err)
	}
	dept := db.Table("dept")
	emp := db.Table("emp")
	for d := 1000; d < 1000+nDepts; d++ {
		if _, err := dept.Insert(int64(d), fmt.Sprintf("D%d", d), "CITY"); err != nil {
			b.Fatal(err)
		}
		for e := 0; e < empsPer; e++ {
			if _, err := emp.Insert(int64(d*100+e), fmt.Sprintf("E%d", e), "STAFF",
				int64(500+(e*397)%4500), int64(d)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := emp.CreateIndex("sal"); err != nil {
		b.Fatal(err)
	}
	if err := emp.CreateIndex("deptno"); err != nil {
		b.Fatal(err)
	}
	exec := sqlxml.NewExecutor(db)
	view := sqlxml.DeptEmpView()
	schema, err := exec.DeriveSchema(view)
	if err != nil {
		b.Fatal(err)
	}
	sheet := xtest.Sheet(b, xslt.PaperStylesheet)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := xq2sql.Translate(res.Module, view)
	if err != nil {
		b.Fatal(err)
	}

	// CLOB / tree backing: the same documents, serialized.
	store := clobstore.New()
	docs, err := exec.MaterializeViewSpec(view, nil, &exec.Stats, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, doc := range docs {
		if _, err := store.Add(doc.String()); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.CreatePathIndex("/dept/employees/emp/sal"); err != nil {
		b.Fatal(err)
	}

	b.Run("object-relational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.ExecQueryParallelSpec(plan, 0, &exec.Stats, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		eng := xslt.New(sheet)
		for i := 0; i < b.N; i++ {
			for id := 0; id < store.Len(); id++ {
				doc, err := store.Tree(id)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Transform(doc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("clob", func(b *testing.B) {
		eng := xslt.New(sheet)
		for i := 0; i < b.N; i++ {
			for id := 0; id < store.Len(); id++ {
				doc, err := store.ParseDoc(id)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Transform(doc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// Selection workload: transform only the documents containing a very
	// high salary — the path/value index skips parsing the rest.
	const threshold = 4900
	b.Run("clob-pvindex-select", func(b *testing.B) {
		eng := xslt.New(sheet)
		for i := 0; i < b.N; i++ {
			ids, used, err := store.SelectDocs("/dept/employees/emp/sal",
				relstore.Pred{Op: relstore.CmpGe, Val: int64(threshold)})
			if err != nil || !used {
				b.Fatal("index not used")
			}
			for _, id := range ids {
				doc, err := store.ParseDoc(id)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Transform(doc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("clob-scan-select", func(b *testing.B) {
		eng := xslt.New(sheet)
		for i := 0; i < b.N; i++ {
			// No index available for this spelling: parse and test all.
			for id := 0; id < store.Len(); id++ {
				doc, err := store.ParseDoc(id)
				if err != nil {
					b.Fatal(err)
				}
				hit := false
				for _, sal := range doc.ElementsByName("sal") {
					if v, err2 := strconv.ParseInt(sal.StringValue(), 10, 64); err2 == nil && v >= threshold {
						hit = true
						break
					}
				}
				if hit {
					if _, err := eng.Transform(doc); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkAblationParallelism measures row-parallel SQL/XML execution (the
// paper's "parallel manner" aggregation remark): many departments, each an
// independent driving row of the Example 1 plan.
func BenchmarkAblationParallelism(b *testing.B) {
	db := relstore.NewDB()
	if err := sqlxml.SetupDeptEmp(db); err != nil {
		b.Fatal(err)
	}
	for d := 1000; d < 1400; d++ {
		if _, err := db.Table("dept").Insert(int64(d), fmt.Sprintf("D%d", d), "CITY"); err != nil {
			b.Fatal(err)
		}
		for e := 0; e < 40; e++ {
			if _, err := db.Table("emp").Insert(int64(d*100+e), "E", "S",
				int64(500+(e*397)%4500), int64(d)); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = db.Table("emp").CreateIndex("deptno")
	exec := sqlxml.NewExecutor(db)
	view := sqlxml.DeptEmpView()
	schema, err := exec.DeriveSchema(view)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Rewrite(xtest.Sheet(b, xslt.PaperStylesheet), schema, core.ModeAuto)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := xq2sql.Translate(res.Module, view)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.ExecQueryParallelSpec(plan, workers, &exec.Stats, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
