package xsltdb

import (
	"context"
	"strings"
	"testing"

	"repro/internal/relstore"
)

// newNumbersDB builds one department whose employees' sal cells are sals,
// in a column of type salType, and the view dept over them:
//
//	<dept><note/><emps><emp><sal>…</sal></emp>…</emps></dept>
//
// note is an always-empty element, for comparisons of a node-set with a
// boolean.
func newNumbersDB(tb testing.TB, salType relstore.ColType, sals ...any) *Database {
	tb.Helper()
	d := NewDatabase()
	if err := d.CreateTable("dept", TableColumn{Name: "deptno", Type: IntCol},
		TableColumn{Name: "note", Type: StringCol}); err != nil {
		tb.Fatal(err)
	}
	if err := d.CreateTable("emp", TableColumn{Name: "empno", Type: IntCol},
		TableColumn{Name: "sal", Type: salType}, TableColumn{Name: "deptno", Type: IntCol}); err != nil {
		tb.Fatal(err)
	}
	if err := d.Insert("dept", int64(10), ""); err != nil {
		tb.Fatal(err)
	}
	for i, sal := range sals {
		if err := d.Insert("emp", int64(i), sal, int64(10)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.CreateXMLView(&ViewDef{
		Name:  "dept",
		Table: "dept",
		Body: &XMLElement{Name: "dept", Children: []XMLExpr{
			&XMLElement{Name: "note", Children: []XMLExpr{&XMLColumn{Name: "note"}}},
			&XMLElement{Name: "emps", Children: []XMLExpr{&XMLAgg{Sub: &SubQuery{
				Table: "emp", CorrInner: "deptno", CorrOuter: "deptno",
				Body: &XMLElement{Name: "emp", Children: []XMLExpr{
					&XMLElement{Name: "sal", Children: []XMLExpr{&XMLColumn{Name: "sal"}}},
				}},
			}}}},
		}},
	}); err != nil {
		tb.Fatal(err)
	}
	return d
}

// numberSheet is a stylesheet printing body for each dept.
func numberSheet(body string) string {
	return `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="dept"><r>` + body + `</r></xsl:template>
</xsl:stylesheet>`
}

// TestStrategiesAgreeOnNumbers: XPath 1.0's number rules — string→number
// (§4.4: optional whitespace, an optional '-', digits with at most one '.';
// anything else is NaN), number→string (§4.2: decimal, never an exponent),
// arithmetic over an empty node-set (NaN) and a node-set compared with a
// boolean (§3.4) — give the same bytes under every strategy that compiles
// the stylesheet, and those bytes are XPath 1.0's.
func TestStrategiesAgreeOnNumbers(t *testing.T) {
	varchar := newNumbersDB(t, StringCol, "1e3", " 7 ", "abc", "+5", "Infinity")
	ints := newNumbersDB(t, IntCol, int64(1e16), int64(2450), int64(300))
	floats := newNumbersDB(t, FloatCol, 1234567.5, 0.00001)
	value := func(sel string) string { return `<xsl:value-of select="` + sel + `"/>` }
	for _, tc := range []struct {
		name string
		d    *Database
		body string
		want string
	}{
		{"sum-varchar", varchar, value("sum(emps/emp/sal)"), "NaN"},
		{"number-each", varchar, `<xsl:for-each select="emps/emp"><xsl:value-of select="number(sal)"/>;</xsl:for-each>`,
			"NaN;7;NaN;NaN;NaN;"},
		{"empty-arithmetic", varchar, value("nosuch + 1") + ";" + value("-nosuch") + ";" + value("floor(nosuch)"), "NaN;NaN;NaN"},
		{"round-empty", varchar, value("round(nosuch)"), "NaN"},
		{"sum-int", ints, value("sum(emps/emp/sal)"), "10000000000002750"},
		{"float-cells", floats, `<xsl:for-each select="emps/emp"><xsl:value-of select="sal"/>;</xsl:for-each>`,
			"1234567.5;0.00001;"},
		{"sum-float", floats, value("sum(emps/emp/sal)"), "1234567.50001"},
		{"compare-float", floats, value("count(emps/emp[sal > 100])"), "1"},
		{"nodeset-vs-boolean", varchar, value("note = true()") + ";" + value("nosuch = false()") + ";" +
			value("true() = note") + ";" + value("note != false()"), "true;true;true;true"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sheet := numberSheet(tc.body)
			want := "<r>" + tc.want + "</r>"
			compiled := 0
			for _, s := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
				ct, err := tc.d.CompileTransform("dept", sheet, WithForcedStrategy(s))
				if err != nil {
					continue // the strategy does not compile this stylesheet
				}
				compiled++
				res, err := ct.Run(context.Background())
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if got := strings.Join(res.Rows, "\n"); got != want {
					t.Errorf("%v: %q, want %q", s, got, want)
				}
			}
			if compiled < 2 {
				t.Fatalf("only %d strategies compiled %s", compiled, sheet)
			}
		})
	}
}
