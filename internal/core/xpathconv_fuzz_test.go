package core

import (
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// numbersDoc is one dept of the numbers fixture (the root package's
// TestStrategiesAgreeOnNumbers): text nodes that are numbers only in some
// languages' lexical forms, an empty element, and INTs whose sum needs 17
// digits.
const numbersDoc = `<dept><note/><emps>` +
	`<emp><sal>1e3</sal></emp><emp><sal> 7 </sal></emp><emp><sal>-0.5</sal></emp>` +
	`<emp><sal>Infinity</sal></emp><emp><sal>+5</sal></emp><emp><sal></sal></emp>` +
	`</emps><ints><i>10000000000000000</i><i>2450</i><i>300</i></ints></dept>`

// FuzzXPathVsXQuery holds the rewriter's XPath→XQuery conversion to the
// interpreter's XPath: an expression, wrapped in string(), number() and
// boolean() in turn, evaluates to the same value with xpath.Eval and, as
// convertExpr's output, with the XQuery evaluator. The dept element is
// the context node.
func FuzzXPathVsXQuery(f *testing.F) {
	for _, s := range []string{
		"sum(emps/emp/sal)", "number(emps/emp/sal)", "emps/emp/sal", "nosuch + 1", "-nosuch",
		"floor(nosuch)", "round(nosuch)", "sum(ints/i)", "note = true()", "nosuch = false()",
		"emps/emp[sal > 1]", "emps/emp/sal[2] * 2", "count(emps/emp[number(sal) = sal])",
		"concat(note, emps/emp[last()]/sal, emps/emp[position() = 2]/sal)", "substring(emps/emp[3]/sal, 2)",
		"emps/emp/sal = 7", "string-length(normalize-space(emps/emp[2]/sal))", "1 div 0",
	} {
		f.Add(s)
	}
	doc, err := xmltree.Parse(numbersDoc)
	if err != nil {
		f.Fatal(err)
	}
	dept := doc.Children[0]
	env := convEnv{ctx: xquery.VarRef("ctx"), root: xquery.VarRef("root"), current: xquery.VarRef("ctx")}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := xpath.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range []string{"string", "number", "boolean"} {
			call := &xpath.FuncExpr{Name: fn, Args: []xpath.Expr{e}}
			q, err := convertExpr(call, env)
			if err != nil {
				return
			}
			want, err := xpath.Eval(call, xpath.NewContext(dept))
			if err != nil {
				return
			}
			qenv := xquery.NewEnv(xquery.Item(dept)).Govern(governor.New(nil).Limits(0, 0, 64))
			qenv.Bind("ctx", xquery.Seq{dept})
			qenv.Bind("root", xquery.Seq{doc})
			got, err := xquery.Eval(q, qenv)
			if err != nil {
				t.Fatalf("%s: XQuery %s failed: %v (XPath: %#v)", call, q, err, want)
			}
			if len(got) != 1 || !sameValue(got[0], want) {
				t.Fatalf("%s: XQuery %s = %#v, XPath %#v", call, q, got, want)
			}
		}
	})
}

// sameValue reports whether two scalars are equal, NaN equal to NaN.
func sameValue(a, b any) bool {
	x, xok := a.(float64)
	y, yok := b.(float64)
	if xok && yok && math.IsNaN(x) && math.IsNaN(y) {
		return true
	}
	return a == b
}
