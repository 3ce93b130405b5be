package xq2sql

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xmltree"
	"repro/internal/xslt"
	"repro/internal/xtest"
)

func setup(t *testing.T) (*relstore.DB, *sqlxml.Executor, *sqlxml.ViewDef) {
	t.Helper()
	db := relstore.NewDB()
	if err := sqlxml.SetupDeptEmp(db); err != nil {
		t.Fatal(err)
	}
	return db, sqlxml.NewExecutor(db), sqlxml.DeptEmpView()
}

func nows(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	return strings.ReplaceAll(s, "> <", "><")
}

// rewriteExample1 runs the full first stage: XSLT → XQuery (inline).
func rewriteExample1(t *testing.T, ex *sqlxml.Executor, view *sqlxml.ViewDef) *core.Result {
	t.Helper()
	schema, err := ex.DeriveSchema(view)
	if err != nil {
		t.Fatal(err)
	}
	sheet := xtest.Sheet(t, xslt.PaperStylesheet)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inlined {
		t.Fatal("example 1 must fully inline")
	}
	return res
}

// TestExample1FullRewrite is the paper's complete pipeline: stylesheet →
// XQuery (Table 8) → SQL/XML (Table 7) → execution with index access,
// matching Table 6 and the functional baseline.
func TestExample1FullRewrite(t *testing.T) {
	db, ex, view := setup(t)
	res := rewriteExample1(t, ex, view)

	q, err := Translate(res.Module, view)
	if err != nil {
		t.Fatalf("Translate: %v\nquery:\n%s", err, res.Module.String())
	}

	// Shape of Table 7: only SQL/XML generation functions, predicate on
	// SAL, no XPath/XSLT operators.
	sql := q.SQL()
	for _, frag := range []string{
		"XMLConcat(", `XMLElement("H1"`, `XMLElement("H2"`, `XMLElement("table"`,
		"XMLAttributes('2' AS \"border\")",
		"SELECT XMLAgg(", "FROM EMP", "SAL > 2000", "DEPTNO = OUTER.DEPTNO",
	} {
		if !strings.Contains(sql, frag) {
			t.Errorf("Table 7 SQL missing %q:\n%s", frag, sql)
		}
	}
	if strings.Contains(sql, "xsl") || strings.Contains(sql, "fn:") {
		t.Fatalf("rewritten SQL must not contain XSLT/XPath operators:\n%s", sql)
	}

	// Execution: the plan uses the sal B-tree index once created.
	if err := db.Table("emp").CreateIndex("sal"); err != nil {
		t.Fatal(err)
	}
	if err := db.Table("emp").CreateIndex("deptno"); err != nil {
		t.Fatal(err)
	}
	explain := ex.ExplainQuerySpec(q, nil)
	// The correlated deptno equality plans as an index join on emp(deptno),
	// the sal predicate filtering each group.
	if !strings.Contains(explain, "INDEX JOIN emp(deptno) = outer.deptno FILTER sal > 2000") {
		t.Fatalf("plan should use the emp index:\n%s", explain)
	}

	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("rows = %d", len(docs))
	}

	// Compare against the functional path: materialize view rows, run the
	// XSLT interpreter.
	views, err := ex.MaterializeViewSpec(view, nil, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := xslt.New(xtest.Sheet(t, xslt.PaperStylesheet))
	for i := range docs {
		want, err := eng.TransformToString(views[i])
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		docs[i].Serialize(&sb, xmltree.SerializeOptions{OmitDecl: true})
		if nows(sb.String()) != nows(want) {
			t.Fatalf("row %d mismatch:\n got:  %s\n want: %s", i, nows(sb.String()), nows(want))
		}
	}
}

// TestExample2Combined reproduces Table 11: the XQuery of Table 10 composed
// over the XSLT view collapses to the XMLAgg subquery alone.
func TestExample2Combined(t *testing.T) {
	db, ex, view := setup(t)
	res := rewriteExample1(t, ex, view)

	// Table 10: for $tr in ./table/tr return $tr.
	projected, err := ProjectPath(res.Module, []string{"table", "tr"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Translate(projected, view)
	if err != nil {
		t.Fatalf("Translate: %v\nprojected:\n%s", err, projected.String())
	}
	sql := q.SQL()
	// Table 11 shape: just the aggregated tr rows with both predicates.
	for _, frag := range []string{
		`XMLElement("tr"`, "SAL > 2000", "DEPTNO = OUTER.DEPTNO", "FROM EMP",
	} {
		if !strings.Contains(sql, frag) {
			t.Errorf("Table 11 SQL missing %q:\n%s", frag, sql)
		}
	}
	// The pruned query must NOT build H1/H2 headers or td headers.
	for _, gone := range []string{"H1", "H2", "EmpNo"} {
		if strings.Contains(sql, gone) {
			t.Errorf("combined optimisation failed to prune %q:\n%s", gone, sql)
		}
	}

	// Execution matches the composition of the two functional stages.
	_ = db.Table("emp").CreateIndex("sal")
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("rows = %d", len(docs))
	}
	got0 := nows(render(docs[0]))
	if got0 != "<tr><td>7782</td><td>CLARK</td><td>2450</td></tr>" {
		t.Fatalf("row 0 = %s", got0)
	}
	got1 := nows(render(docs[1]))
	if got1 != "<tr><td>7954</td><td>SMITH</td><td>4900</td></tr>" {
		t.Fatalf("row 1 = %s", got1)
	}
}

func render(n *xmltree.Node) string {
	var sb strings.Builder
	n.Serialize(&sb, xmltree.SerializeOptions{OmitDecl: true})
	return sb.String()
}

func TestScalarAggregateLowering(t *testing.T) {
	db, ex, view := setup(t)
	schema, _ := ex.DeriveSchema(view)
	sheet := xtest.Sheet(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<stats n="{count(employees/emp)}"><xsl:value-of select="sum(employees/emp/sal)"/></stats>
		</xsl:template>
	</xsl:stylesheet>`)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Translate(res.Module, view)
	if err != nil {
		t.Fatalf("Translate: %v\n%s", err, res.Module.String())
	}
	sql := q.SQL()
	if !strings.Contains(sql, "SELECT COUNT(*)") || !strings.Contains(sql, "SELECT SUM(SAL)") {
		t.Fatalf("aggregates not lowered:\n%s", sql)
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := nows(render(docs[0]))
	if got != `<stats n="2">3750</stats>` {
		t.Fatalf("agg result = %s", got)
	}
	_ = db
}

func TestFallbackOnUnsupportedShapes(t *testing.T) {
	_, ex, view := setup(t)
	schema, _ := ex.DeriveSchema(view)

	// A condition on a computed string function does not map to a simple
	// column predicate; the caller must fall back.
	sheet := xtest.Sheet(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<xsl:choose><xsl:when test="contains(dname, 'X')"><a/></xsl:when><xsl:otherwise><b/></xsl:otherwise></xsl:choose>
		</xsl:template>
	</xsl:stylesheet>`)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Translate(res.Module, view)
	if err == nil {
		t.Fatal("conditional construction should not lower")
	}
	if !errors.Is(err, ErrNotRelational) {
		t.Fatalf("error should be ErrNotRelational, got %v", err)
	}
}

func TestTranslateRejectsFunctions(t *testing.T) {
	_, _, view := setup(t)
	m := xtest.XQuery(t, `declare variable $var000 := .;
declare function local:f($x) { $x };
local:f(1)`)
	if _, err := Translate(m, view); err == nil {
		t.Fatal("function-bearing modules must not lower")
	}
}

func TestProjectPathMisses(t *testing.T) {
	m := xtest.XQuery(t, `declare variable $var000 := .; <a><b/></a>`)
	if _, err := ProjectPath(m, []string{"zz"}); err == nil {
		t.Fatal("missing path should fail")
	}
	out, err := ProjectPath(m, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Body.String(), "<b/>") {
		t.Fatalf("projection wrong: %s", out.Body.String())
	}
	// Empty path is the identity.
	same, err := ProjectPath(m, nil)
	if err != nil || same != m {
		t.Fatal("empty projection should return the module")
	}
}

func TestOrderByLowering(t *testing.T) {
	db, ex, view := setup(t)
	schema, _ := ex.DeriveSchema(view)
	sheet := xtest.Sheet(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<xsl:for-each select="employees/emp"><xsl:sort select="sal" data-type="number" order="descending"/><e><xsl:value-of select="ename"/></e></xsl:for-each>
		</xsl:template>
	</xsl:stylesheet>`)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Translate(res.Module, view)
	if err != nil {
		t.Fatalf("Translate: %v\n%s", err, res.Module.String())
	}
	if !strings.Contains(q.SQL(), "ORDER BY SAL DESC") {
		t.Fatalf("order by not lowered:\n%s", q.SQL())
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := nows(render(docs[0])); got != "<e>CLARK</e><e>MILLER</e>" {
		t.Fatalf("ordered result = %s", got)
	}
	_ = db
}

// TestConditionalLowering covers if→CASE lowering (the 'metric' mechanism)
// including flipped operands and conjunctions.
func TestConditionalLowering(t *testing.T) {
	db, ex, view := setup(t)
	schema, _ := ex.DeriveSchema(view)
	sheet := xtest.Sheet(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<xsl:for-each select="employees/emp">
				<xsl:choose>
					<xsl:when test="2000 &lt; sal and sal &lt; 4000"><mid id="{empno}"/></xsl:when>
					<xsl:otherwise><other/></xsl:otherwise>
				</xsl:choose>
			</xsl:for-each>
		</xsl:template>
	</xsl:stylesheet>`)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Translate(res.Module, view)
	if err != nil {
		t.Fatalf("Translate: %v\n%s", err, res.Module.String())
	}
	sql := q.SQL()
	if !strings.Contains(sql, "CASE WHEN") || !strings.Contains(sql, "SAL > 2000 AND SAL < 4000") {
		t.Fatalf("conditional SQL wrong:\n%s", sql)
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := nows(render(docs[0]))
	if got != `<mid id="7782"/><other/>` {
		t.Fatalf("conditional result = %s", got)
	}
	_ = db
}

// TestComputedConstructorLowering covers xsl:element/xsl:attribute lowering
// (the 'creation' mechanism).
func TestComputedConstructorLowering(t *testing.T) {
	_, ex, view := setup(t)
	schema, _ := ex.DeriveSchema(view)
	sheet := xtest.Sheet(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<xsl:element name="rec"><xsl:attribute name="city"><xsl:value-of select="loc"/></xsl:attribute><xsl:value-of select="dname"/></xsl:element>
		</xsl:template>
	</xsl:stylesheet>`)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Translate(res.Module, view)
	if err != nil {
		t.Fatalf("Translate: %v\n%s", err, res.Module.String())
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := nows(render(docs[0])); got != `<rec city="NEW YORK">ACCOUNTING</rec>` {
		t.Fatalf("computed constructor result = %s", got)
	}
}

// TestPredicateVariants covers flipped comparisons and string literals in
// path predicates.
func TestPredicateVariants(t *testing.T) {
	_, ex, view := setup(t)
	schema, _ := ex.DeriveSchema(view)
	sheet := xtest.Sheet(t, `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:template match="dept">
			<hit n="{count(employees/emp[2000 &lt;= sal])}" byname="{count(employees/emp[ename = 'CLARK'])}"/>
		</xsl:template>
	</xsl:stylesheet>`)
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Translate(res.Module, view)
	if err != nil {
		t.Fatalf("Translate: %v\n%s", err, res.Module.String())
	}
	sql := q.SQL()
	if !strings.Contains(sql, "SAL >= 2000") || !strings.Contains(sql, "ENAME = 'CLARK'") {
		t.Fatalf("predicate SQL wrong:\n%s", sql)
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := nows(render(docs[0])); got != `<hit n="1" byname="1"/>` {
		t.Fatalf("predicate result = %s", got)
	}
}
