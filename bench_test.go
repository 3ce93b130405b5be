package xsltdb

// Go benchmarks over code that production runs: the XSLT→XQuery translation
// modes, the two functional XSLT executors, compilation and the plan cache,
// and Run / Cursor over the paper's dept/emp view (BenchmarkPushdownLookup
// lives with the pushdown tests). The paper's evaluation itself — rewrite vs
// no-rewrite over the Figure 2/3 cases — is the repo benchmark, bench/run.sh.
//
// Run: go test -bench=. -benchmem -run xxx  (make bench).

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xmltree"
	"repro/internal/xquery"
	"repro/internal/xschema"
	"repro/internal/xslt"
	"repro/internal/xsltmark"
	"repro/internal/xtest"
)

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
// employees each through the public API, with both indexes. A department's
// employees are inserted together, so they sit side by side in the heap.
func newBenchDeptDB(b testing.TB, nDepts int) *Database {
	return loadBenchDeptDB(b, nDepts, false)
}

// newScatteredDeptDB is newBenchDeptDB with the employees inserted in a
// seeded random order, as the repo benchmark inserts them (bench/gen.go):
// a department's employees are scattered over the heap, and constructing
// them misses the cache once per cell.
func newScatteredDeptDB(b testing.TB, nDepts int) *Database {
	return loadBenchDeptDB(b, nDepts, true)
}

func loadBenchDeptDB(b testing.TB, nDepts int, scatter bool) *Database {
	b.Helper()
	d := NewDatabase()
	if err := sqlxml.SetupDeptEmp(d.Rel()); err != nil {
		b.Fatal(err)
	}
	dept := d.Rel().Table("dept")
	emp := d.Rel().Table("emp")
	var emps [][]relstore.Value
	for dn := 1000; dn < 1000+nDepts; dn++ {
		if _, err := dept.Insert(int64(dn), fmt.Sprintf("D%d", dn), "CITY"); err != nil {
			b.Fatal(err)
		}
		for e := 0; e < 20; e++ {
			emps = append(emps, []relstore.Value{int64(dn*100 + e), fmt.Sprintf("E%d", e), "STAFF",
				int64(500 + (e*397)%4500), int64(dn)})
		}
	}
	if scatter {
		r := rand.New(rand.NewPCG(1, 2))
		r.Shuffle(len(emps), func(i, j int) { emps[i], emps[j] = emps[j], emps[i] })
	}
	for _, row := range emps {
		if _, err := emp.Insert(row...); err != nil {
			b.Fatal(err)
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
// "Group-join" profiles this). same-text sends one where text with the
// window bound through parameters, as serve_miss does, so the per-Database
// where memo lowers it once; fresh-text spells each window's bounds into
// its where text, so every Run misses the memo — the memo's losing side.
// alternating is the result-size hint's losing side: two goroutines share
// the transform, each alternating a wide window (500 departments) and the
// narrow one, so the last result's size is as often the other's as its own.
// These three run over employees inserted department by department;
// scattered is same-text over the same rows inserted in a random order, as
// serve_miss's are, with the window moving on every run, so that each
// employee's cells miss the core's caches.
func BenchmarkRunDeptWindow(b *testing.B) {
	open := func(b *testing.B, d *Database) *CompiledTransform {
		if err := d.CreateIndex("dept", "deptno"); err != nil {
			b.Fatal(err)
		}
		ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
		if err != nil {
			b.Fatal(err)
		}
		return ct
	}
	run := func(b *testing.B, ct *CompiledTransform, opts ...RunOption) {
		res, err := ct.Run(context.Background(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 25 {
			b.Fatalf("window selected %d departments", len(res.Rows))
		}
	}
	// sameText runs windows of one where text, bound through parameters:
	// windows[i%len(windows)] is run i's.
	sameText := func(b *testing.B, ct *CompiledTransform, windows ...int) {
		where := WithWhere("deptno >= $lo and deptno < $hi")
		opts := make([][]RunOption, len(windows))
		for i, lo := range windows {
			opts[i] = []RunOption{where, WithParam("lo", lo), WithParam("hi", lo+25)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, ct, opts[i%len(opts)]...)
		}
	}
	var scattered *CompiledTransform // built at the first round that asks for it
	b.Run("scattered", func(b *testing.B) {
		if scattered == nil {
			scattered = open(b, newScatteredDeptDB(b, 2000))
		}
		// Every run a window the last 79 did not read, as serve_miss's
		// uniform keys are: its employees come from beyond the core's
		// own caches.
		var windows []int
		for lo := 1000; lo+25 <= 3000; lo += 25 {
			windows = append(windows, lo)
		}
		sameText(b, scattered, windows...)
	})
	ct := open(b, newBenchDeptDB(b, 2000))
	b.Run("same-text", func(b *testing.B) { sameText(b, ct, 2030) })
	b.Run("fresh-text", func(b *testing.B) {
		wheres := make([]string, 1900)
		for i := range wheres {
			wheres[i] = fmt.Sprintf("deptno >= %d and deptno < %d", 1000+i, 1025+i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, ct, WithWhere(wheres[i%len(wheres)]))
		}
	})
	b.Run("alternating", func(b *testing.B) {
		where := WithWhere("deptno >= $lo and deptno < $hi")
		windows := [][]RunOption{
			{where, WithParam("lo", 2030), WithParam("hi", 2055)},
			{where, WithParam("lo", 1000), WithParam("hi", 1500)},
		}
		b.ReportAllocs()
		var wg sync.WaitGroup
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < b.N; i += 2 {
					if _, err := ct.Run(context.Background(), windows[(i/2+g)%2]...); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// newScanDeptDB loads n departments with one employee each, both deptno
// columns indexed. loc takes 1 000 values, each on n/1000 departments
// scattered at random over the heap (a seeded permutation, as lib_scan's
// generator scatters them), so a filter on it keeps about a fixed share of
// every morsel and whether the next row passes is not predictable; val
// (unindexed, as lib_scan's) holds the same number as an INT, so val = 7
// and loc = 'L007' select the same departments.
func newScanDeptDB(b *testing.B, n int) *Database {
	b.Helper()
	d := NewDatabase()
	rel := d.Rel()
	dept, err := rel.CreateTable("dept",
		relstore.Column{Name: "deptno", Type: relstore.IntCol},
		relstore.Column{Name: "dname", Type: relstore.StringCol},
		relstore.Column{Name: "loc", Type: relstore.StringCol},
		relstore.Column{Name: "val", Type: relstore.IntCol})
	if err != nil {
		b.Fatal(err)
	}
	emp, err := rel.CreateTable("emp",
		relstore.Column{Name: "empno", Type: relstore.IntCol},
		relstore.Column{Name: "ename", Type: relstore.StringCol},
		relstore.Column{Name: "job", Type: relstore.StringCol},
		relstore.Column{Name: "sal", Type: relstore.IntCol},
		relstore.Column{Name: "deptno", Type: relstore.IntCol})
	if err != nil {
		b.Fatal(err)
	}
	perm := rand.New(rand.NewPCG(1, 2)).Perm(n)
	for i := 0; i < n; i++ {
		dn, v := int64(1000+i), perm[i]%1000
		if _, err := dept.Insert(dn, fmt.Sprintf("D%d", i), fmt.Sprintf("L%03d", v), int64(v)); err != nil {
			b.Fatal(err)
		}
		if _, err := emp.Insert(100_000+dn, fmt.Sprintf("E%d", i), "STAFF", int64(1500+i%2*1000), dn); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		b.Fatal(err)
	}
	for _, table := range []string{"dept", "emp"} {
		if err := d.CreateIndex(table, "deptno"); err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkParallelRun times Run over n departments (n = 25k … 200k, each
// with one employee) at 1, 2 and GOMAXPROCS workers: full scans whose
// unindexed filter keeps 0.1 % of the rows — on the INT column val through a
// bind parameter, lib_scan's predicate, at a constant at the bottom of val's
// 0..999 (v = 7) and one in their middle (v = 500, as most of lib_scan's
// constants are: a filter kernel whose branches depend on the data
// mispredicts there and not at v = 7), and on the VARCHAR column loc — or
// 10 % (construction-heavy), and an index range of 10 000; plus the
// peak live heap of a cursor over every department pulled one row at a
// time. Every case reports the physical work of its last run — rows scanned,
// morsels, index probes — so a sweep over n says from counts what grows
// with the table, and live-B/row is the live heap after loading (post-GC)
// per row loaded (departments and employees).
func BenchmarkParallelRun(b *testing.B) {
	workers := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		workers = append(workers, n)
	}
	for _, n := range []int{25_000, 50_000, 100_000, 200_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			d := newScanDeptDB(b, n)
			runtime.GC()
			runtime.ReadMemStats(&ms)
			liveB := float64(ms.HeapAlloc-min(before, ms.HeapAlloc)) / float64(2*n)
			ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
			if err != nil {
				b.Fatal(err)
			}
			benchParallelRun(b, ct, n, workers, liveB)
			runtime.KeepAlive(d)
		})
	}
}

func benchParallelRun(b *testing.B, ct *CompiledTransform, n int, workers []int, liveB float64) {
	for _, c := range []struct {
		name string
		rows int
		opts []RunOption
	}{
		{"scan-int-0.1pct", n / 1000, []RunOption{WithWhere("val = $v"), WithParam("v", 7)}},
		{"scan-int-mid-0.1pct", n / 1000, []RunOption{WithWhere("val = $v"), WithParam("v", 500)}},
		{"scan-0.1pct", n / 1000, []RunOption{WithWhere("loc = 'L007'")}},
		{"scan-10pct", n / 10, []RunOption{WithWhere("loc >= 'L000' and loc < 'L100'")}},
		{"range-10k", 10_000, []RunOption{WithWhere("deptno >= 1000 and deptno < 11000")}},
	} {
		for _, w := range workers {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(b *testing.B) {
				opts := append([]RunOption{WithWorkers(w)}, c.opts...)
				b.ReportAllocs()
				b.ResetTimer()
				var st ExecStats
				for i := 0; i < b.N; i++ {
					res, err := ct.Run(context.Background(), opts...)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != c.rows {
						b.Fatalf("%d rows, want %d", len(res.Rows), c.rows)
					}
					st = res.Stats
				}
				b.ReportMetric(float64(st.RowsScanned), "scanned/op")
				b.ReportMetric(float64(st.MorselsExecuted), "morsels/op")
				b.ReportMetric(float64(st.IndexProbes), "probes/op")
				b.ReportMetric(liveB, "live-B/row")
			})
		}
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("cursor-all/workers=%d", w), func(b *testing.B) {
			var peak uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				base := ms.HeapAlloc
				cur, err := ct.OpenCursor(context.Background(), WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				for n := 1; ; n++ {
					if _, err := cur.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
					if n%16_384 == 0 { // live heap only: collect first
						runtime.GC()
						runtime.ReadMemStats(&ms)
						peak = max(peak, ms.HeapAlloc-min(base, ms.HeapAlloc))
					}
				}
				_ = cur.Close()
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak-live-MiB")
		})
	}
}

// BenchmarkPaperFigures times Run for the paper's figure cases — Fig. 2's
// dbonerow and Fig. 3's avts, chart, metric and total — plus attrmap and
// choose, over 2 000 to 16 000 sales rows indexed on id only; 16 000 is how
// the repo benchmark's paper_figs workload loads them. Each case is one
// driving row whose XMLAgg (or scalar aggregate) covers the whole sales
// table, so a case's time is its constructor's per-row cost times the rows
// (make paper). Each case runs at workers=1 (fully serial) and
// workers=default (GOMAXPROCS: an XMLAgg group of relstore.MorselMinRows
// members or more is split across the morsel pool) and reports the morsels
// a run executed. At 2 000 and 16 000 rows each case also runs forced
// StrategyNoRewrite at workers=default (<case>/rows=<n>/norewrite): the
// paper's baseline, the view's documents interpreted.
func BenchmarkPaperFigures(b *testing.B) {
	sizes := []int{2_000, 4_000, 8_000, 16_000}
	view := xsltmark.SalesView()
	cases := []string{"dbonerow", "avts", "chart", "metric", "total", "attrmap", "choose"}
	cts := make(map[string][]*CompiledTransform)
	norewrite := make(map[string]*CompiledTransform) // by case and rows, at 2 000 and 16 000
	for _, rows := range sizes {
		d := NewDatabase()
		if err := xsltmark.SetupSalesDB(d.Rel(), rows); err != nil {
			b.Fatal(err)
		}
		if err := d.CreateIndex("sales", "id"); err != nil {
			b.Fatal(err)
		}
		if err := d.CreateXMLView(view); err != nil {
			b.Fatal(err)
		}
		for _, name := range cases {
			ct, err := d.CompileTransform(view.Name, xsltmark.ByName(name).Stylesheet)
			if err != nil {
				b.Fatal(err)
			}
			if ct.Strategy() != StrategySQL {
				b.Fatalf("%s compiled to %v, not to SQL/XML", name, ct.Strategy())
			}
			cts[name] = append(cts[name], ct)
			if rows == sizes[0] || rows == sizes[len(sizes)-1] {
				nr, err := d.CompileTransform(view.Name, xsltmark.ByName(name).Stylesheet, WithForcedStrategy(StrategyNoRewrite))
				if err != nil {
					b.Fatal(err)
				}
				norewrite[fmt.Sprintf("%s/rows=%d", name, rows)] = nr
			}
		}
	}
	for _, name := range cases {
		for i, rows := range sizes {
			ct := cts[name][i]
			for _, workers := range []int{1, 0} {
				level := "workers=default"
				if workers > 0 {
					level = fmt.Sprintf("workers=%d", workers)
				}
				b.Run(fmt.Sprintf("%s/rows=%d/%s", name, rows, level), func(b *testing.B) {
					b.ReportAllocs()
					var st ExecStats
					for i := 0; i < b.N; i++ {
						res, err := ct.Run(context.Background(), WithWorkers(workers))
						if err != nil {
							b.Fatal(err)
						}
						st = res.Stats
					}
					b.ReportMetric(float64(st.MorselsExecuted), "morsels/op")
				})
			}
			leg := fmt.Sprintf("%s/rows=%d", name, rows)
			if nr := norewrite[leg]; nr != nil {
				b.Run(leg+"/norewrite", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := nr.Run(context.Background()); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
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
