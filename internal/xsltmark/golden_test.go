package xsltmark

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xtest"
)

// TestRewriteGolden pins, for every case under core.ModeAuto, what the
// partial evaluator traced and what the rewriter made of it: the trace table
// (one row per apply-templates: id, select, mode, owning template), the
// call lists (PE.Describe), the recursion verdict, the chosen mode with its
// notes, and the generated XQuery text. Any change to the sample run or to
// the trace numbering shows up here as a diff.
func TestRewriteGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range All() {
		res, err := core.Rewrite(xtest.Sheet(t, c.Stylesheet), xtest.Schema(t, c.Schema), core.ModeAuto)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		fmt.Fprintf(&sb, "=== %s\n", c.Name)
		for id, te := range res.PE.TraceTable {
			owner := "-"
			if te.Owner != nil {
				owner = te.Owner.String()
			}
			fmt.Fprintf(&sb, "trace[%d] select=%q mode=%q owner=%s\n", id, te.SelectSrc, te.Mode, owner)
		}
		sb.WriteString(res.PE.Describe())
		fmt.Fprintf(&sb, "recursive=%v reason=%q builtin-only=%v\n", res.PE.Recursive, res.PE.RecursionReason, res.PE.BuiltinOnly)
		fmt.Fprintf(&sb, "mode=%s inlined=%v\n", res.Mode, res.Inlined)
		for _, n := range res.Notes {
			fmt.Fprintf(&sb, "note: %s\n", n)
		}
		sb.WriteString(res.Module.String())
		sb.WriteString("\n")
	}

	golden := filepath.Join("testdata", "rewrite.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
		line++
	}
	f, err := os.CreateTemp("", "rewrite-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(got); err != nil {
		t.Fatal(err)
	}
	t.Errorf("rewrite output drifted from %s at line %d; the new output is in %s — review the diff, then copy it over the golden",
		golden, line+1, f.Name())
}
