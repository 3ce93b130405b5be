package xsltdb

import (
	"context"
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
	view := xsltmark.SalesView()
	sheet := xsltmark.ByName("dbonerow").Stylesheet
	var rewrite, baseline []ExecStats
	for _, rows := range sizes {
		d := NewDatabase()
		if err := xsltmark.SetupSalesDB(d.Rel(), rows); err != nil {
			t.Fatal(err)
		}
		if err := d.CreateIndex("sales", "id"); err != nil {
			t.Fatal(err)
		}
		if err := d.CreateXMLView(view); err != nil {
			t.Fatal(err)
		}
		ct, err := d.CompileTransform(view.Name, sheet)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Strategy() != StrategySQL {
			t.Fatalf("dbonerow compiled to %v, not to SQL/XML", ct.Strategy())
		}
		nr, err := d.CompileTransform(view.Name, sheet, WithForcedStrategy(StrategyNoRewrite))
		if err != nil {
			t.Fatal(err)
		}
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
}
