package xsltdb

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xslt"
)

func nows(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	return strings.ReplaceAll(s, "> <", "><")
}

// newDeptDB builds the paper's dept/emp database with the dept_emp view.
func newDeptDB(t *testing.T) *Database {
	t.Helper()
	d := NewDatabase()
	if err := sqlxml.SetupDeptEmp(d.Rel()); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCompileTransformFullPipeline(t *testing.T) {
	d := newDeptDB(t)
	if err := d.CreateIndex("emp", "sal"); err != nil {
		t.Fatal(err)
	}
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategySQL {
		t.Fatalf("strategy = %v (%s)", ct.Strategy(), ct.FallbackReason())
	}
	if !ct.Inlined() {
		t.Fatal("example 1 should fully inline")
	}
	if !strings.Contains(ct.SQL(), "SAL > 2000") {
		t.Fatalf("SQL missing predicate:\n%s", ct.SQL())
	}
	if !strings.Contains(ct.ExplainPlan(), "INDEX RANGE SCAN") {
		t.Fatalf("plan missing index:\n%s", ct.ExplainPlan())
	}
	if !strings.Contains(ct.XQuery(), "$var000") {
		t.Fatal("XQuery text missing")
	}

	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(nows(rows[0]), "<td>7782</td><td>CLARK</td><td>2450</td>") {
		t.Fatalf("row 0: %s", rows[0])
	}
	if strings.Contains(rows[0], "MILLER") {
		t.Fatal("low-paid employee must be filtered")
	}
}

// TestStrategiesAgree runs the same transform through every strategy and
// checks identical output — the repository's end-to-end invariant.
func TestStrategiesAgree(t *testing.T) {
	d := newDeptDB(t)
	var outputs [3][]string
	for i, s := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
		ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet, WithForcedStrategy(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if ct.Strategy() != s {
			t.Fatalf("forced %v, got %v", s, ct.Strategy())
		}
		res, err := ct.Run(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		outputs[i] = res.Rows
	}
	for i := 1; i < 3; i++ {
		if len(outputs[i]) != len(outputs[0]) {
			t.Fatalf("row counts differ")
		}
		for r := range outputs[i] {
			if nows(outputs[i][r]) != nows(outputs[0][r]) {
				t.Fatalf("strategy outputs differ at row %d:\n%s\nvs\n%s", r, outputs[i][r], outputs[0][r])
			}
		}
	}
}

// TestExample2OuterPath reproduces paper Example 2 through the public API.
func TestExample2OuterPath(t *testing.T) {
	d := newDeptDB(t)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet,
		WithOuterPath("table", "tr"))
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategySQL {
		t.Fatalf("combined optimisation should reach SQL: %s", ct.FallbackReason())
	}
	if strings.Contains(ct.SQL(), "H1") {
		t.Fatal("outer path should prune the headers (Table 11)")
	}
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if nows(rows[0]) != "<tr><td>7782</td><td>CLARK</td><td>2450</td></tr>" {
		t.Fatalf("row 0 = %s", rows[0])
	}
	if nows(rows[1]) != "<tr><td>7954</td><td>SMITH</td><td>4900</td></tr>" {
		t.Fatalf("row 1 = %s", rows[1])
	}
}

func TestFallbackChain(t *testing.T) {
	d := newDeptDB(t)
	// contains() in a condition lowers to neither SQL nor (in this shape)
	// blocks the XQuery stage: expect StrategyXQuery with a reason.
	sheet := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<xsl:choose><xsl:when test="contains(dname, 'ACC')"><acc/></xsl:when><xsl:otherwise><other/></xsl:otherwise></xsl:choose>
		</xsl:template>
	</xsl:stylesheet>`
	ct, err := d.CompileTransform("dept_emp", sheet)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategyXQuery {
		t.Fatalf("expected XQuery fallback, got %v", ct.Strategy())
	}
	if ct.FallbackReason() == "" {
		t.Fatal("fallback reason missing")
	}
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if nows(rows[0]) != "<acc/>" || nows(rows[1]) != "<other/>" {
		t.Fatalf("fallback output wrong: %v", rows)
	}
}

func TestDatabaseBasics(t *testing.T) {
	d := NewDatabase()
	if err := d.CreateTable("t", TableColumn{Name: "a", Type: IntCol}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("t", int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("missing", int64(1)); err == nil {
		t.Fatal("insert into missing table should fail")
	}
	if err := d.CreateIndex("missing", "a"); err == nil {
		t.Fatal("index on missing table should fail")
	}
	if err := d.CreateXMLView(&ViewDef{Name: "v", Table: "missing"}); err == nil {
		t.Fatal("view over missing table should fail")
	}
	v := &ViewDef{Name: "v", Table: "t", Body: &XMLElement{Name: "r", Children: []sqlxml.XMLExpr{&XMLColumn{Name: "a"}}}}
	if err := d.CreateXMLView(v); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateXMLView(v); err == nil {
		t.Fatal("duplicate view should fail")
	}
	if d.View("v") == nil || d.View("zz") != nil {
		t.Fatal("View lookup wrong")
	}
	docs, err := d.MaterializeView("v")
	if err != nil || len(docs) != 1 {
		t.Fatalf("materialize: %v %d", err, len(docs))
	}
	s, err := d.DeriveSchema("v")
	if err != nil || s.Root.Name != "r" {
		t.Fatalf("schema: %v", err)
	}
	if _, err := d.CompileTransform("zz", "<x/>"); err == nil {
		t.Fatal("compile against missing view should fail")
	}
	if _, err := d.CompileTransform("v", "not xml"); err == nil {
		t.Fatal("bad stylesheet should fail")
	}
}

func TestStandaloneTransform(t *testing.T) {
	out, err := Transform(xslt.PaperDeptRow1, xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CLARK") {
		t.Fatal("transform output wrong")
	}
	if _, err := Transform("<bad", xslt.PaperStylesheet); err == nil {
		t.Fatal("bad xml should error")
	}
	if _, err := Transform("<a/>", "<bad"); err == nil {
		t.Fatal("bad stylesheet should error")
	}
}

func TestRewriteToXQuery(t *testing.T) {
	schema := `
dept      := dname, loc, employees
employees := emp*
emp       := empno:int, ename, sal:int
`
	q, inlined, err := RewriteToXQuery(xslt.PaperStylesheet, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !inlined {
		t.Fatal("should inline")
	}
	if !strings.Contains(q, "emp[sal > 2000]") {
		t.Fatalf("query missing predicate:\n%s", q)
	}
}

func TestStatsExposed(t *testing.T) {
	d := newDeptDB(t)
	_ = d.CreateIndex("emp", "deptno")
	ct, _ := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	before := d.Stats().IndexProbes
	if _, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d.Stats().IndexProbes == before {
		t.Fatal("stats should advance")
	}
}

// TestSchemaEvolutionRecompile exercises §7.3: the view evolves (a new
// element appears in the published XML); the compiled transform recompiles
// automatically and picks up the new structure.
func TestSchemaEvolutionRecompile(t *testing.T) {
	d := newDeptDB(t)
	sheetText := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept"><out><xsl:value-of select="dname"/>|<xsl:value-of select="city"/></out></xsl:template>
	</xsl:stylesheet>`
	ct, err := d.CompileTransform("dept_emp", sheetText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	// The original view has no <city>; value-of yields "".
	if nows(rows[0]) != "<out>ACCOUNTING|</out>" {
		t.Fatalf("pre-evolution row = %q", rows[0])
	}

	// Evolve the view: publish the loc column as <city>.
	evolved := &ViewDef{
		Name:  "dept_emp",
		Table: "dept",
		Body: &XMLElement{Name: "dept", Children: []XMLExpr{
			&XMLElement{Name: "dname", Children: []XMLExpr{&XMLColumn{Name: "dname"}}},
			&XMLElement{Name: "city", Children: []XMLExpr{&XMLColumn{Name: "loc"}}},
		}},
	}
	if err := d.ReplaceXMLView(evolved); err != nil {
		t.Fatal(err)
	}

	// The SAME compiled transform recompiles automatically on next Run.
	res, err = ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows = res.Rows
	if nows(rows[0]) != "<out>ACCOUNTING|NEW YORK</out>" {
		t.Fatalf("post-evolution row = %q", rows[0])
	}
	if ct.Recompiles() != 1 {
		t.Fatalf("recompiles = %d", ct.Recompiles())
	}
	// Stable afterwards: no further recompilation.
	if _, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ct.Recompiles() != 1 {
		t.Fatalf("unexpected extra recompilation: %d", ct.Recompiles())
	}
	// Replacing an unknown view errors.
	if err := d.ReplaceXMLView(&ViewDef{Name: "nope", Table: "dept"}); err == nil {
		t.Fatal("replacing unknown view should fail")
	}
}

// TestKeyFunctionFallsBack: key() has no XQuery/SQL mapping; the facade
// must fall back to the functional baseline and still produce the right
// answer.
func TestKeyFunctionFallsBack(t *testing.T) {
	d := newDeptDB(t)
	sheet := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:key name="by-sal" match="emp" use="sal"/>
		<xsl:template match="dept"><n><xsl:value-of select="count(key('by-sal', '2450'))"/></n></xsl:template>
	</xsl:stylesheet>`
	ct, err := d.CompileTransform("dept_emp", sheet)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategyNoRewrite {
		t.Fatalf("key() should force the functional baseline, got %v", ct.Strategy())
	}
	if ct.FallbackReason() == "" {
		t.Fatal("fallback reason missing")
	}
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if nows(rows[0]) != "<n>1</n>" || nows(rows[1]) != "<n>0</n>" {
		t.Fatalf("key fallback output wrong: %v", rows)
	}
}

// TestParallelStrategyAgrees: the default plan constructs the serial bytes
// on the parallel route, through a full scan and an index range.
func TestParallelStrategyAgrees(t *testing.T) {
	d := newWideDeptDB(t, relstore.MorselMinRows+3)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range drivingPaths("deptno >= 0") {
		serial := runRows(t, ct, path.with(WithWorkers(1))...)
		parallel := runRows(t, ct, path.with(WithWorkers(4))...)
		assertSameRows(t, path.name, serial.Rows, parallel.Rows)
		assertParallel(t, path.name, path, parallel.Stats)
	}
}

// TestMixedContentViewFallsBack: a view whose XML mixes text and element
// content cannot be rewritten; the facade silently uses the baseline.
func TestMixedContentViewFallsBack(t *testing.T) {
	d := NewDatabase()
	if err := d.CreateTable("t", TableColumn{Name: "v", Type: StringCol}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("t", "world"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateXMLView(&ViewDef{Name: "mixed", Table: "t", Body: &XMLElement{Name: "p", Children: []XMLExpr{
		&XMLLiteral{Text: "hello "},
		&XMLElement{Name: "b", Children: []XMLExpr{&XMLColumn{Name: "v"}}},
	}}}); err != nil {
		t.Fatal(err)
	}
	ct, err := d.CompileTransform("mixed", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="p"><out><xsl:value-of select="."/></out></xsl:template>
	</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Strategy() != StrategyNoRewrite || ct.FallbackReason() == "" {
		t.Fatalf("expected no-rewrite fallback, got %v (%s)", ct.Strategy(), ct.FallbackReason())
	}
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if nows(rows[0]) != "<out>hello world</out>" {
		t.Fatalf("fallback output = %q", rows[0])
	}
}

// TestMixedContentLeafIsNotAColumn: the string value of <name>v2 {name}</name>
// is the literal and the column together, so the SQL plan may not read it as
// the bare column; the transform must answer what the no-rewrite baseline
// answers.
func TestMixedContentLeafIsNotAColumn(t *testing.T) {
	d := newKeyedDB(t, 3)
	v := keyedViewDef()
	v.Body.(*XMLElement).Children = []XMLExpr{&XMLElement{Name: "name", Children: []XMLExpr{
		&XMLLiteral{Text: "v2 "}, &XMLColumn{Name: "name"},
	}}}
	if err := d.ReplaceXMLView(v); err != nil {
		t.Fatal(err)
	}
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Rows, ""); got != "<hit>v2 name-0</hit><hit>v2 name-1</hit><hit>v2 name-2</hit>" {
		t.Fatalf("%v run answered %s", ct.Strategy(), got)
	}
}

// TestChainedTransform runs a two-stage pipeline through the public API:
// stage 1 over the view (SQL strategy), stage 2 rewritten against the
// statically-typed output of stage 1.
func TestChainedTransform(t *testing.T) {
	d := newDeptDB(t)
	stage1 := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<report><xsl:for-each select="employees/emp"><row><xsl:value-of select="sal"/></row></xsl:for-each></report>
		</xsl:template>
	</xsl:stylesheet>`
	stage2 := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="report"><rich n="{count(row[. > 2000])}"/></xsl:template>
	</xsl:stylesheet>`
	ct, err := d.CompileTransform("dept_emp", stage1)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ct.Then(stage2)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, interpreted := chain.Stages()
	if rewritten != 1 || interpreted != 0 {
		t.Fatalf("stage 2 should be rewritten: %d/%d", rewritten, interpreted)
	}
	cres, err := chain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := cres.Rows
	if nows(rows[0]) != `<rich n="1"/>` || nows(rows[1]) != `<rich n="1"/>` {
		t.Fatalf("chain output = %v", rows)
	}

	// Reference: functional composition.
	docs, _ := d.MaterializeView("dept_emp")
	for i, doc := range docs {
		mid, err := Transform(strings.TrimPrefix(doc.String(), `<?xml version="1.0"?>`), stage1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Transform(mid, stage2)
		if err != nil {
			t.Fatal(err)
		}
		if nows(rows[i]) != nows(want) {
			t.Fatalf("row %d: chain %q != functional %q", i, rows[i], want)
		}
	}
}

// TestConcurrentCompileAndRun hammers the facade from several goroutines.
func TestConcurrentCompileAndRun(t *testing.T) {
	d := newDeptDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 5; j++ {
				if _, err := ct.Run(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
