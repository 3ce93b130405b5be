package xsltdb

import (
	"context"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/xsltmark"
)

// TestPaperFigureShapes is Fig. 2 as counts rather than clocks. dbonerow
// selects one sales row by id. Rewritten to SQL/XML it is one B-tree
// descent, so at every table size the run makes exactly one index probe
// and scans the same number of heap rows in the same number of governor
// ticks; not rewritten, the interpreter
// materializes the view's document and walks it, so the rows it scans grow
// at least linearly with the table. A probe demoted to a scan fails the
// first half; both strategies must answer the same bytes.
func TestPaperFigureShapes(t *testing.T) {
	sizes := []int{2_000, 8_000, 32_000, 64_000}
	var rewrite, baseline []ExecStats
	for _, rows := range sizes {
		d := salesDB(t, rows)
		ct, nr := figureTransforms(t, d, "dbonerow")
		got, err := ct.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := nr.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Rows, want.Rows) {
			t.Fatalf("rows=%d: the rewrite answers %q, the interpreter %q", rows, got.Rows, want.Rows)
		}
		t.Logf("rows=%d: rewrite %s; no-rewrite %s", rows, got.Stats.String(), want.Stats.String())
		rewrite, baseline = append(rewrite, got.Stats), append(baseline, want.Stats)
	}
	for i, rows := range sizes {
		st := rewrite[i]
		if st.IndexProbes != 1 {
			t.Errorf("rows=%d: rewrite made %d index probes, want 1", rows, st.IndexProbes)
		}
		if st.RowsScanned != rewrite[0].RowsScanned || st.GovTicks != rewrite[0].GovTicks {
			t.Errorf("rows=%d: rewrite scanned %d rows in %d ticks, %d in %d at rows=%d: not constant",
				rows, st.RowsScanned, st.GovTicks, rewrite[0].RowsScanned, rewrite[0].GovTicks, sizes[0])
		}
		// At least linear: every row added to the table is scanned.
		if b := baseline[i].RowsScanned; b < int64(rows) || i > 0 && b-baseline[i-1].RowsScanned < int64(rows-sizes[i-1]) {
			t.Errorf("rows=%d: no-rewrite scanned %d rows, %d at rows=%d: grows less than linearly", rows, b, baseline[max(i-1, 0)].RowsScanned, sizes[max(i-1, 0)])
		}
	}
	t.Run("fig3", testFigure3Shapes)
}

// testFigure3Shapes is Fig. 3 as counts. avts, metric, chart and total
// each construct one document from the whole sales table. Rewritten, a Run
// answers the interpreter's bytes and allocates the same number of times
// at 2 000 and at 16 000 rows (within one: which pooled buffer a run draws
// may have to grow): construction allocates nothing per row. chart and
// total construct one row whose aggregate relstore computes over every
// sales row.
func testFigure3Shapes(t *testing.T) {
	sizes := []int{2_000, 16_000}
	for _, name := range []string{"avts", "metric", "chart", "total"} {
		var allocs []float64
		for _, rows := range sizes {
			d := salesDB(t, rows)
			ct, nr := figureTransforms(t, d, name)
			got, err := ct.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := nr.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Rows, want.Rows) {
				t.Fatalf("%s rows=%d: the rewrite answers %.200q, the interpreter %.200q", name, rows, got.Rows, want.Rows)
			}
			t.Logf("%s rows=%d: rewrite %s", name, rows, got.Stats.String())
			if st := got.Stats; (name == "chart" || name == "total") && (len(got.Rows) != 1 || st.RowsScanned <= int64(rows)) {
				t.Errorf("%s rows=%d: the rewrite constructed %d rows from %d scanned, want 1 row from all %d sales rows and the document's", name, rows, len(got.Rows), st.RowsScanned, rows)
			}
			if poolsDropItems() {
				continue
			}
			allocs = append(allocs, runAllocs(t, ct))
		}
		if len(allocs) == len(sizes) && (allocs[1] > allocs[0]+1 || allocs[0] > allocs[1]+1) {
			t.Errorf("%s: a Run allocates %.0f times at %d rows and %.0f at %d", name, allocs[0], sizes[0], allocs[1], sizes[1])
		}
	}
}

// salesDB is the paper figures' database: rows sales rows, indexed on id,
// under the sales view.
func salesDB(t *testing.T, rows int) *Database {
	t.Helper()
	d := NewDatabase()
	if err := xsltmark.SetupSalesDB(d.Rel(), rows); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateIndex("sales", "id"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateXMLView(xsltmark.SalesView()); err != nil {
		t.Fatal(err)
	}
	return d
}

// figureTransforms compiles the XSLTMark case name over the sales view,
// rewritten to SQL/XML (which it must be) and forced not to be.
func figureTransforms(t *testing.T, d *Database, name string) (rewrite, noRewrite *CompiledTransform) {
	t.Helper()
	view, sheet := xsltmark.SalesView().Name, xsltmark.ByName(name).Stylesheet
	ct, err := d.CompileTransform(view, sheet)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategySQL {
		t.Fatalf("%s compiled to %v, not to SQL/XML", name, ct.Strategy())
	}
	nr, err := d.CompileTransform(view, sheet, WithForcedStrategy(StrategyNoRewrite))
	if err != nil {
		t.Fatal(err)
	}
	return ct, nr
}

// runAllocs is the allocations of one Run of ct, with the collector off: a
// collection empties sync.Pool, and pools refill by allocating.
func runAllocs(t *testing.T, ct *CompiledTransform) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(10, func() {
		if _, err := ct.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}
