package pe

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xschema"
	"repro/internal/xslt"
	"repro/internal/xtest"
)

const deptSchema = `
dept      := dname, loc, employees
employees := emp*
emp       := empno:int, ename, sal:int
`

func wrap(body string) string {
	return `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">` + body + `</xsl:stylesheet>`
}

func evalPE(t *testing.T, stylesheet, schema string) *Result {
	t.Helper()
	sheet, err := xslt.ParseStylesheet(stylesheet)
	if err != nil {
		t.Fatal(err)
	}
	s, err := xschema.ParseCompact(schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(sheet, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPaperExample1Trace checks §4.3 on the paper's stylesheet: the first
// apply-templates activates the dname/loc/employees templates; the second
// activates the emp template despite the sal > 2000 value predicate (which
// must be assumed true on the sample).
func TestPaperExample1Trace(t *testing.T) {
	res := evalPE(t, xslt.PaperStylesheet, deptSchema)

	if res.Recursive {
		t.Fatalf("example 1 should not be recursive: %s", res.RecursionReason)
	}
	if res.BuiltinOnly {
		t.Fatal("example 1 uses user templates")
	}
	if len(res.Instantiated) != 5 {
		// dept, dname, loc, employees, emp (text() never activated: the
		// schema-generated document's text lives in leaves handled by
		// value-of, but leaf elements' children ARE text nodes selected by
		// the first apply... see below).
		t.Logf("instantiated = %d", len(res.Instantiated))
	}

	// Trace id 0: <xsl:apply-templates/> inside match="dept".
	list0 := res.CallLists[0]
	names := map[string]bool{}
	for _, e := range list0 {
		if e.Kind == xmltree.ElementNode {
			names[e.Name] = true
			if e.Builtin() {
				t.Errorf("element %s fell through to builtin", e.Name)
			}
		}
	}
	for _, want := range []string{"dname", "loc", "employees"} {
		if !names[want] {
			t.Errorf("apply[0] missing activation for %s", want)
		}
	}

	// Trace id 1: select="emp[sal > 2000]" must still activate emp.
	list1 := res.CallLists[1]
	if len(list1) == 0 {
		t.Fatal("value predicate must be assumed true during PE")
	}
	foundEmp := false
	for _, e := range list1 {
		if e.Name == "emp" && !e.Builtin() && e.Template.MatchSrc == "emp" {
			foundEmp = true
			if !e.Info.Unbounded {
				t.Error("emp entry should carry the unbounded annotation")
			}
			if e.Decl == nil || e.Decl.Particle("sal") == nil {
				t.Error("emp entry should carry the schema declaration")
			}
		}
	}
	if !foundEmp {
		t.Fatalf("emp template not activated: %+v", list1)
	}

	// Root entries: the document node goes to builtin, then dept activates.
	if len(res.RootEntries) == 0 {
		t.Fatal("no root entries")
	}
	if !res.RootEntries[0].Builtin() {
		t.Fatal("document node should hit the builtin rule")
	}
}

func TestBuiltinOnlyDetection(t *testing.T) {
	res := evalPE(t, wrap(""), deptSchema)
	if !res.BuiltinOnly {
		t.Fatal("empty stylesheet should be builtin-only (paper Table 20)")
	}
	if res.Recursive {
		t.Fatal("not recursive")
	}
}

func TestRecursiveTemplateGraph(t *testing.T) {
	// A template that applies itself over a recursive schema.
	res := evalPE(t, wrap(`
		<xsl:template match="section"><s><xsl:apply-templates select="section"/></s></xsl:template>
	`), `
section := title, section*
title   := #text
`)
	if !res.Recursive {
		t.Fatal("recursive structure must force non-inline mode")
	}
	if res.RecursionReason == "" {
		t.Fatal("reason missing")
	}
}

func TestCallTemplateRecursionDetected(t *testing.T) {
	res := evalPE(t, wrap(`
		<xsl:template match="/"><xsl:call-template name="f"/></xsl:template>
		<xsl:template name="f"><xsl:call-template name="g"/></xsl:template>
		<xsl:template name="g"><xsl:call-template name="f"/></xsl:template>
	`), deptSchema)
	if !res.Recursive {
		t.Fatal("mutual call-template recursion must be detected")
	}
}

func TestNonRecursiveCallChain(t *testing.T) {
	res := evalPE(t, wrap(`
		<xsl:template match="/"><xsl:call-template name="f"/></xsl:template>
		<xsl:template name="f">leaf</xsl:template>
	`), deptSchema)
	if res.Recursive {
		t.Fatalf("linear call chain is not recursive: %s", res.RecursionReason)
	}
	// f is instantiated via call-template.
	found := false
	for tmpl := range res.Instantiated {
		if tmpl.Name == "f" {
			found = true
		}
	}
	if !found {
		t.Fatal("call-template target should count as instantiated")
	}
}

func TestDeadTemplateNotInstantiated(t *testing.T) {
	res := evalPE(t, wrap(`
		<xsl:template match="dept">D</xsl:template>
		<xsl:template match="nonexistent">DEAD</xsl:template>
	`), deptSchema)
	for tmpl := range res.Instantiated {
		if tmpl.MatchSrc == "nonexistent" {
			t.Fatal("template for absent element must not be instantiated (§3.7)")
		}
	}
	if res.BuiltinOnly {
		t.Fatal("dept template was instantiated")
	}
}

func TestChooseBranchesAllTraced(t *testing.T) {
	// Both branches contain apply-templates with different modes; both must
	// appear in the trace even though only one would run dynamically.
	res := evalPE(t, wrap(`
		<xsl:template match="dept">
			<xsl:choose>
				<xsl:when test="dname = 'X'"><xsl:apply-templates select="dname" mode="a"/></xsl:when>
				<xsl:otherwise><xsl:apply-templates select="loc" mode="b"/></xsl:otherwise>
			</xsl:choose>
		</xsl:template>
		<xsl:template match="dname" mode="a">A</xsl:template>
		<xsl:template match="loc" mode="b">B</xsl:template>
	`), deptSchema)
	instantiatedModes := map[string]bool{}
	for tmpl := range res.Instantiated {
		instantiatedModes[tmpl.Mode] = true
	}
	if !instantiatedModes["a"] || !instantiatedModes["b"] {
		t.Fatalf("both choose branches must be traced: %v", instantiatedModes)
	}
}

func TestIfBodyTraced(t *testing.T) {
	res := evalPE(t, wrap(`
		<xsl:template match="dept">
			<xsl:if test="dname = 'NEVER ON SAMPLE'"><xsl:apply-templates select="loc"/></xsl:if>
		</xsl:template>
		<xsl:template match="loc">L</xsl:template>
	`), deptSchema)
	found := false
	for tmpl := range res.Instantiated {
		if tmpl.MatchSrc == "loc" {
			found = true
		}
	}
	if !found {
		t.Fatal("xsl:if body must be traced unconditionally")
	}
}

func TestIsStructural(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"empno", true},
		{"emp/empno", true},
		{"@id", true},
		{"not(empno)", true},
		{"empno | ename", true},
		{"sal > 2000", false},
		{". = 3456", false},
		{"position() = 1", false},
		{"2", false},
		{"'str'", false},
		{"$var", false},
		{"count(emp) > 1", false},
		{"text()", false},
	}
	for _, tc := range cases {
		e := xtest.XPath(t, tc.expr)
		if got := IsStructural(e); got != tc.want {
			t.Errorf("IsStructural(%q) = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestDescribeOutput(t *testing.T) {
	res := evalPE(t, xslt.PaperStylesheet, deptSchema)
	desc := res.Describe()
	for _, frag := range []string{"apply[0]", "apply[1]", "emp"} {
		if !strings.Contains(desc, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, desc)
		}
	}
}

func TestEntriesFor(t *testing.T) {
	res := evalPE(t, xslt.PaperStylesheet, deptSchema)
	// Find the apply-templates instruction with select inside the
	// employees template.
	var target *xslt.ApplyTemplates
	for _, tmpl := range res.Sheet.Templates {
		if tmpl.MatchSrc != "employees" {
			continue
		}
		var walk func([]xslt.Instruction)
		walk = func(body []xslt.Instruction) {
			for _, in := range body {
				switch x := in.(type) {
				case *xslt.ApplyTemplates:
					target = x
				case *xslt.LiteralElement:
					walk(x.Body)
				}
			}
		}
		walk(tmpl.Body)
	}
	if target == nil {
		t.Fatal("apply-templates not found in employees template")
	}
	entries := res.EntriesFor(target)
	if len(entries) == 0 || entries[0].Name != "emp" {
		t.Fatalf("EntriesFor wrong: %+v", entries)
	}
}

func TestSortKeysDoNotBreakPE(t *testing.T) {
	res := evalPE(t, wrap(`
		<xsl:template match="employees"><xsl:apply-templates select="emp"><xsl:sort select="sal" data-type="number"/></xsl:apply-templates></xsl:template>
		<xsl:template match="emp">E</xsl:template>
	`), deptSchema)
	found := false
	for tmpl := range res.Instantiated {
		if tmpl.MatchSrc == "emp" {
			found = true
		}
	}
	if !found {
		t.Fatal("sorted apply-templates must still trace")
	}
}

// TestKeyFunctionOptimistic: key() lookups during the sample run return all
// pattern-matching nodes so downstream templates still trace (§4.3's
// conservative stance extended to keys).
func TestKeyFunctionOptimistic(t *testing.T) {
	res := evalPE(t, wrap(`
		<xsl:key name="byname" match="emp" use="ename"/>
		<xsl:template match="dept"><xsl:apply-templates select="key('byname', 'NEVER-ON-SAMPLE')"/></xsl:template>
		<xsl:template match="emp"><e/></xsl:template>
	`), deptSchema)
	found := false
	for tmpl := range res.Instantiated {
		if tmpl.MatchSrc == "emp" {
			found = true
		}
	}
	if !found {
		t.Fatal("key()-selected templates must trace during PE")
	}
}

// TestTraceTable checks §4.3's trace table on the paper's stylesheet: one
// entry per apply-templates instruction, carrying its select source and its
// owning template, with the ids set on the instructions themselves; the
// optimistic copy is numbered the same way.
func TestTraceTable(t *testing.T) {
	sheet := xtest.Sheet(t, xslt.PaperStylesheet)
	optimistic := optimisticSheet(sheet)
	table := traceTable(sheet)
	if len(table) != 2 {
		t.Fatalf("trace table entries = %d, want 2", len(table))
	}
	if table[0].SelectSrc != "" {
		t.Fatalf("first apply has no select, got %q", table[0].SelectSrc)
	}
	if !strings.Contains(table[1].SelectSrc, "emp[sal > 2000]") {
		t.Fatalf("second select = %q", table[1].SelectSrc)
	}
	if table[0].Owner == nil || table[0].Owner.MatchSrc != "dept" {
		t.Fatalf("first owner = %v, want the dept template", table[0].Owner)
	}
	if got := applyIDs(sheet.Templates); fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("ids on the stylesheet's apply-templates = %v, want [0 1]", got)
	}

	optTable := traceTable(optimistic)
	if got := applyIDs(optimistic.Templates); fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("ids on the optimistic copy's apply-templates = %v, want [0 1]", got)
	}
	if len(optTable) != len(table) {
		t.Fatalf("optimistic trace table entries = %d, want %d", len(optTable), len(table))
	}
	for id := range table {
		if optTable[id].Mode != table[id].Mode || optTable[id].Owner.Index != table[id].Owner.Index {
			t.Fatalf("trace[%d]: optimistic %+v, original %+v", id, optTable[id], table[id])
		}
	}
}

// applyIDs lists the TraceIDs of the apply-templates instructions in the
// templates' bodies and literal result elements, in document order.
func applyIDs(templates []*xslt.Template) []int {
	var ids []int
	var walk func([]xslt.Instruction)
	walk = func(body []xslt.Instruction) {
		for _, instr := range body {
			switch in := instr.(type) {
			case *xslt.ApplyTemplates:
				ids = append(ids, in.TraceID)
			case *xslt.LiteralElement:
				walk(in.Body)
			}
		}
	}
	for _, tm := range templates {
		walk(tm.Body)
	}
	return ids
}
