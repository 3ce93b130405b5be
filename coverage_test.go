package xsltdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xsltmark"
	"repro/internal/xtest"
)

// TestXSLTMarkCoverage pins what the 40 XSLTMark cases compile to against
// testdata/xsltmark_coverage.golden, so the paper's §5 statistic (23/40 fully
// inline) and the share that runs as a SQL/XML plan change only as a reviewed
// diff. Each row: the case, its category, whether the XSLT→XQuery rewrite
// fully inlined and in which mode, then — for a case with a relational
// fixture — the strategy CompileTransform chose over its view and, when that
// is not the SQL plan, FallbackReason().
func TestXSLTMarkCoverage(t *testing.T) {
	var sb strings.Builder
	inlined, sql := 0, 0
	for _, c := range xsltmark.All() {
		res, err := core.Rewrite(xtest.Sheet(t, c.Stylesheet), xtest.Schema(t, c.Schema), core.ModeAuto)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if res.Inlined {
			inlined++
		}
		fmt.Fprintf(&sb, "%-12s %-12s inlined=%-5v mode=%-14s ", c.Name, c.Category, res.Inlined, res.Mode)
		if c.Rel == nil {
			sb.WriteString("no relational fixture\n")
			continue
		}
		_, ct := compileCase(t, c, 10)
		if ct.Strategy() == StrategySQL {
			sql++
		}
		sb.WriteString(ct.Strategy().String())
		if reason := ct.FallbackReason(); reason != "" {
			sb.WriteString(": " + reason)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "fully inlined %d/40, SQL/XML plan %d/40\n", inlined, sql)

	golden := filepath.Join("testdata", "xsltmark_coverage.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("XSLTMark coverage drifted from %s — review the change, then update the golden.\n got:\n%s", golden, got)
	}
}

// compileCase loads c's relational fixture at n records, with its indexes,
// into a fresh database and compiles c's stylesheet over the fixture's view.
func compileCase(t *testing.T, c *xsltmark.Case, n int) (*Database, *CompiledTransform) {
	t.Helper()
	d := NewDatabase()
	if err := c.Rel.Setup(d.Rel(), n); err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	for table, cols := range c.Rel.IndexCols {
		for _, col := range cols {
			if err := d.CreateIndex(table, col); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
		}
	}
	view := c.Rel.View()
	if err := d.CreateXMLView(view); err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	ct, err := d.CompileTransform(view.Name, c.Stylesheet)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return d, ct
}
