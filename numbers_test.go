package xsltdb

import (
	"context"
	"math"
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

// numbersFixture is newNumbersDB's arguments.
type numbersFixture struct {
	typ  relstore.ColType
	sals []any
}

// TestStrategiesAgreeOnNumbers: XPath 1.0's number rules — string→number
// (§4.4: optional whitespace, an optional '-', digits with at most one '.';
// anything else is NaN), number→string (§4.2: decimal, never an exponent),
// arithmetic over an empty node-set (NaN), a node-set compared with a
// boolean, and a NaN compared with a number, which satisfies != and nothing
// else (§3.4) — give the same bytes under every strategy that compiles the
// stylesheet, and those bytes are XPath 1.0's. Each row runs again with an
// index on emp.sal, which the SQL plan probes where a row's predicate on sal
// can bound it. A forced SQL run must be the SQL strategy's own: no
// degradation to another strategy hides a wrong answer.
func TestStrategiesAgreeOnNumbers(t *testing.T) {
	varchar := numbersFixture{StringCol, []any{"1e3", " 7 ", "abc", "+5", "Infinity"}}
	ints := numbersFixture{IntCol, []any{int64(1e16), int64(2450), int64(300)}}
	floats := numbersFixture{FloatCol, []any{1234567.5, 0.00001}}
	nan := numbersFixture{FloatCol, []any{math.NaN(), 5.0, 7.0}}
	inf := numbersFixture{FloatCol, []any{math.Inf(1), 5.0}}
	value := func(sel string) string { return `<xsl:value-of select="` + sel + `"/>` }
	// The rows whose predicate on sal the SQL plan answers from the index.
	probed := map[string]bool{"compare-float": true, "nan-eq": true, "nan-le": true, "nan-ge": true, "nan-for-each": true}
	for _, tc := range []struct {
		name string
		fix  numbersFixture
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
		{"nan-eq", nan, value("count(emps/emp[sal = 5])"), "1"},
		{"nan-ne", nan, value("count(emps/emp[sal != 5])"), "2"},
		{"nan-le", nan, value("count(emps/emp[sal &lt;= 5])"), "1"},
		{"nan-ge", nan, value("count(emps/emp[sal &gt;= 7])"), "1"},
		{"nan-if", nan, `<xsl:for-each select="emps/emp"><xsl:if test="sal = 5">y</xsl:if>;</xsl:for-each>`, ";y;;"},
		{"nan-choose", nan, `<xsl:for-each select="emps/emp"><xsl:choose><xsl:when test="sal &lt;= 5">a</xsl:when>` +
			`<xsl:otherwise>b</xsl:otherwise></xsl:choose></xsl:for-each>`, "bab"},
		{"nan-for-each", nan, `<xsl:for-each select="emps/emp[sal &lt;= 5]"><xsl:value-of select="sal"/>;</xsl:for-each>`, "5;"},
		{"sum-inf", inf, value("sum(emps/emp/sal)"), "NaN"},
	} {
		for _, indexed := range []bool{false, true} {
			name := tc.name
			if indexed {
				name += "/indexed"
			}
			t.Run(name, func(t *testing.T) {
				d := newNumbersDB(t, tc.fix.typ, tc.fix.sals...)
				if indexed {
					if err := d.CreateIndex("emp", "sal"); err != nil {
						t.Fatal(err)
					}
				}
				sheet := numberSheet(tc.body)
				want := "<r>" + tc.want + "</r>"
				compiled := 0
				for _, s := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
					ct, err := d.CompileTransform("dept", sheet, WithForcedStrategy(s))
					if err != nil {
						continue // the strategy does not compile this stylesheet
					}
					compiled++
					res, err := ct.Run(context.Background())
					if err != nil {
						t.Fatalf("%v: %v", s, err)
					}
					if res.Stats.StrategyUsed != s || res.Stats.Degradations != 0 {
						t.Fatalf("%v: run by %v after %d degradations", s, res.Stats.StrategyUsed, res.Stats.Degradations)
					}
					if indexed && s == StrategySQL && probed[tc.name] && res.Stats.IndexProbes == 0 {
						t.Errorf("%v: the predicate on sal did not probe its index", s)
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
}

// newPointsDB builds pt(id, x) with the FLOAT x cells NaN, 5 and 7 (ids 0,
// 1, 2), an index on x when indexed, and the view pts:
//
//	<p><id>…</id><x>…</x></p>
func newPointsDB(tb testing.TB, indexed bool) *Database {
	tb.Helper()
	d := NewDatabase()
	if err := d.CreateTable("pt", TableColumn{Name: "id", Type: IntCol}, TableColumn{Name: "x", Type: FloatCol}); err != nil {
		tb.Fatal(err)
	}
	for i, x := range []float64{math.NaN(), 5, 7} {
		if err := d.Insert("pt", int64(i), x); err != nil {
			tb.Fatal(err)
		}
	}
	if indexed {
		if err := d.CreateIndex("pt", "x"); err != nil {
			tb.Fatal(err)
		}
	}
	leaf := func(name string) XMLExpr {
		return &XMLElement{Name: name, Children: []XMLExpr{&XMLColumn{Name: name}}}
	}
	if err := d.CreateXMLView(&ViewDef{Name: "pts", Table: "pt",
		Body: &XMLElement{Name: "p", Children: []XMLExpr{leaf("id"), leaf("x")}}}); err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestWhereComparesNaNAsXPath: a WithWhere predicate on a FLOAT driving
// column compares a NaN cell as XPath 1.0 does (it satisfies != and nothing
// else), under every strategy and whichever access path answers it: an
// index probe, an index range, a full scan of an unindexed table, and
// WithoutPushdown over the indexed one.
func TestWhereComparesNaNAsXPath(t *testing.T) {
	const sheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="p"><xsl:value-of select="id"/></xsl:template>
</xsl:stylesheet>`
	plain, indexed := newPointsDB(t, false), newPointsDB(t, true)
	for _, tc := range []struct {
		where   string
		indexed string // the access path over the indexed table
		ids     string
	}{
		{"x = 5", "INDEX PROBE", "1"},
		{"x != 5", "TABLE SCAN", "0 2"},
		{"x <= 5", "INDEX RANGE SCAN", "1"},
		{"x >= 7", "INDEX RANGE SCAN", "2"},
	} {
		for _, path := range []struct {
			name   string
			d      *Database
			access string
			opts   []RunOption
		}{
			{"indexed", indexed, tc.indexed, nil},
			{"unindexed", plain, "TABLE SCAN", nil},
			{"without-pushdown", indexed, "TABLE SCAN", []RunOption{WithoutPushdown()}},
		} {
			for _, s := range []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite} {
				ct, err := path.d.CompileTransform("pts", sheet, WithForcedStrategy(s))
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				res, err := ct.Run(context.Background(), append([]RunOption{WithWhere(tc.where)}, path.opts...)...)
				if err != nil {
					t.Fatalf("%s, %s, %v: %v", tc.where, path.name, s, err)
				}
				if got := strings.Join(res.Rows, " "); got != tc.ids {
					t.Errorf("%s, %s, %v: ids %q, want %q", tc.where, path.name, s, got, tc.ids)
				}
				if !strings.HasPrefix(res.Stats.AccessPath, path.access) || res.Stats.StrategyUsed != s {
					t.Errorf("%s, %s, %v: %v over %q, want %s", tc.where, path.name, s, res.Stats.StrategyUsed, res.Stats.AccessPath, path.access)
				}
			}
		}
	}
}

// Pools of FuzzNumericPredVsXPath: the cells, the operators as a
// stylesheet writes them, and number literals. (A negative number is not a
// literal but a negation, which the SQL plan does not lower.)
var (
	fuzzSals = []any{nil, math.NaN(), math.Copysign(0, -1), 0.0, 1.5, -7.0, float64(1 << 53)}
	fuzzOps  = []string{"=", "!=", "&lt;", "&lt;=", "&gt;", "&gt;="}
	fuzzLits = []string{"0", "0.0", "1.5", "5", "9007199254740992"}
)

// FuzzNumericPredVsXPath holds the SQL plan's lowered comparison of a
// number column with a number literal to XPath 1.0: count(emps/emp[sal op
// lit]) over an INT or FLOAT sal (with or without an index on it) prints,
// under forced SQL, run by the SQL strategy itself, the bytes the
// no-rewrite strategy prints. cells picks each emp's sal from fuzzSals; an
// INT column skips NaN and 1.5. Under != it skips NULL too: a NULL sal
// prints <sal/>, whose number() is NaN, so XPath's != holds for it and
// SQL's <> does not, and relstore has no IS NULL or OR to lower it into.
func FuzzNumericPredVsXPath(f *testing.F) {
	for lit := range fuzzLits {
		for op := range fuzzOps {
			f.Add(true, false, []byte{0, 1, 2, 3, 4, 5, 6}, byte(op), byte(lit))
		}
	}
	f.Add(false, true, []byte{0, 2, 3, 5, 6}, byte(2), byte(4))
	f.Add(true, true, []byte{1, 1, 4, 6, 0}, byte(1), byte(2))
	f.Fuzz(func(t *testing.T, float, indexed bool, cells []byte, op, lit byte) {
		typ := IntCol
		if float {
			typ = FloatCol
		}
		opText := fuzzOps[int(op)%len(fuzzOps)]
		var sals []any
		for _, b := range cells[:min(len(cells), 16)] {
			v := fuzzSals[int(b)%len(fuzzSals)]
			switch x, isNum := v.(float64); {
			case v == nil && opText == "!=":
				continue
			case isNum && !float && x != math.Trunc(x):
				continue
			case isNum && !float:
				v = int64(x)
			}
			sals = append(sals, v)
		}
		d := newNumbersDB(t, typ, sals...)
		if indexed {
			if err := d.CreateIndex("emp", "sal"); err != nil {
				t.Fatal(err)
			}
		}
		sheet := numberSheet(`<xsl:value-of select="count(emps/emp[sal ` + opText + ` ` + fuzzLits[int(lit)%len(fuzzLits)] + `])"/>`)
		var out [2]string
		for i, s := range []Strategy{StrategySQL, StrategyNoRewrite} {
			ct, err := d.CompileTransform("dept", sheet, WithForcedStrategy(s))
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			res, err := ct.Run(context.Background())
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if res.Stats.StrategyUsed != s || res.Stats.Degradations != 0 {
				t.Fatalf("%v: run by %v after %d degradations", s, res.Stats.StrategyUsed, res.Stats.Degradations)
			}
			out[i] = strings.Join(res.Rows, "\n")
		}
		if out[0] != out[1] {
			t.Fatalf("sal %v (%v, indexed %t), %s: SQL %q, no-rewrite %q", sals, typ, indexed, sheet, out[0], out[1])
		}
	})
}
