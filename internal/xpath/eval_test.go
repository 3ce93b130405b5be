package xpath

import (
	"math"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// deptDoc is the paper's Example 1 first row (Table 4).
const deptDoc = `<dept>
<dname>ACCOUNTING</dname>
<loc>NEW YORK</loc>
<employees>
<emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>
<emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>
</employees>
</dept>`

func parseDoc(t *testing.T, src string) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func evalOn(t *testing.T, doc *xmltree.Node, expr string) Value {
	t.Helper()
	e, err := Parse(expr)
	if err != nil {
		t.Fatalf("Parse(%q): %v", expr, err)
	}
	v, err := Eval(e, NewContext(doc))
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return v
}

func evalString(t *testing.T, doc *xmltree.Node, expr string) string {
	t.Helper()
	return ToString(evalOn(t, doc, expr))
}

func evalNumber(t *testing.T, doc *xmltree.Node, expr string) float64 {
	t.Helper()
	return ToNumber(evalOn(t, doc, expr))
}

func evalCount(t *testing.T, doc *xmltree.Node, expr string) int {
	t.Helper()
	ns, err := ToNodeSet(evalOn(t, doc, expr))
	if err != nil {
		t.Fatalf("%q did not return a node-set: %v", expr, err)
	}
	return len(ns)
}

func TestChildSteps(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if got := evalString(t, doc, "/dept/dname"); got != "ACCOUNTING" {
		t.Fatalf("dname = %q", got)
	}
	if got := evalCount(t, doc, "/dept/employees/emp"); got != 2 {
		t.Fatalf("emp count = %d", got)
	}
	if got := evalCount(t, doc, "/dept/nonexistent"); got != 0 {
		t.Fatalf("nonexistent = %d", got)
	}
}

func TestPaperPredicate(t *testing.T) {
	// The paper's heavily-computed predicate: emp[sal > 2000].
	doc := parseDoc(t, deptDoc)
	if got := evalCount(t, doc, "/dept/employees/emp[sal > 2000]"); got != 1 {
		t.Fatalf("emp[sal>2000] = %d, want 1", got)
	}
	if got := evalString(t, doc, "/dept/employees/emp[sal > 2000]/ename"); got != "CLARK" {
		t.Fatalf("highly paid = %q", got)
	}
}

func TestPositionalPredicates(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if got := evalString(t, doc, "//emp[1]/ename"); got != "CLARK" {
		t.Fatalf("emp[1] = %q", got)
	}
	if got := evalString(t, doc, "//emp[2]/ename"); got != "MILLER" {
		t.Fatalf("emp[2] = %q", got)
	}
	if got := evalString(t, doc, "//emp[last()]/ename"); got != "MILLER" {
		t.Fatalf("emp[last()] = %q", got)
	}
	if got := evalString(t, doc, "//emp[position() = 2]/empno"); got != "7934" {
		t.Fatalf("position()=2 → %q", got)
	}
}

func TestDescendantAxis(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if got := evalCount(t, doc, "//emp"); got != 2 {
		t.Fatalf("//emp = %d", got)
	}
	if got := evalCount(t, doc, "/descendant::emp"); got != 2 {
		t.Fatalf("/descendant::emp = %d", got)
	}
	if got := evalCount(t, doc, "//text()"); got == 0 {
		t.Fatal("//text() empty")
	}
}

func TestParentAndAncestorAxes(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if got := evalString(t, doc, "//sal/../ename"); got != "CLARK" {
		t.Fatalf("sal/../ename = %q", got)
	}
	if got := evalCount(t, doc, "//sal/parent::emp"); got != 2 {
		t.Fatalf("parent::emp = %d", got)
	}
	if got := evalCount(t, doc, "//sal/parent::dept"); got != 0 {
		t.Fatalf("parent::dept = %d", got)
	}
	if got := evalCount(t, doc, "//empno/ancestor::*"); got != 4 {
		// emp(x2), employees, dept — union over both empnos
		t.Fatalf("ancestor::* = %d", got)
	}
	if got := evalCount(t, doc, "(//empno)[1]/ancestor-or-self::node()"); got != 5 {
		// empno, emp, employees, dept, document
		t.Fatalf("ancestor-or-self = %d", got)
	}
}

func TestSiblingAxes(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if got := evalString(t, doc, "/dept/dname/following-sibling::loc"); got != "NEW YORK" {
		t.Fatalf("following-sibling = %q", got)
	}
	if got := evalString(t, doc, "/dept/loc/preceding-sibling::dname"); got != "ACCOUNTING" {
		t.Fatalf("preceding-sibling = %q", got)
	}
	if got := evalCount(t, doc, "/dept/employees/following-sibling::*"); got != 0 {
		t.Fatalf("employees has following siblings: %d", got)
	}
}

func TestFollowingPrecedingAxes(t *testing.T) {
	doc := parseDoc(t, `<r><a><a1/></a><b/><c><c1/></c></r>`)
	if got := evalCount(t, doc, "//a1/following::*"); got != 3 { // b, c, c1
		t.Fatalf("following = %d", got)
	}
	if got := evalCount(t, doc, "//c1/preceding::*"); got != 3 { // a, a1, b
		t.Fatalf("preceding = %d", got)
	}
	// Preceding excludes ancestors.
	if got := evalCount(t, doc, "//c1/preceding::c"); got != 0 {
		t.Fatalf("preceding should exclude ancestors, got %d", got)
	}
	// Result must be in document order.
	ns, _ := ToNodeSet(evalOn(t, doc, "//c1/preceding::*"))
	if ns[0].Name != "a" || ns[2].Name != "b" {
		t.Fatalf("preceding order wrong: %s %s %s", ns[0].Name, ns[1].Name, ns[2].Name)
	}
}

func TestReverseAxisPositions(t *testing.T) {
	doc := parseDoc(t, `<r><a/><b/><c/><d/></r>`)
	// From d, preceding-sibling::*[1] is c (nearest first on reverse axes).
	ns, _ := ToNodeSet(evalOn(t, doc, "//d/preceding-sibling::*[1]"))
	if len(ns) != 1 || ns[0].Name != "c" {
		t.Fatalf("preceding-sibling::*[1] = %v", ns)
	}
	ns, _ = ToNodeSet(evalOn(t, doc, "//d/preceding-sibling::*[last()]"))
	if len(ns) != 1 || ns[0].Name != "a" {
		t.Fatalf("preceding-sibling::*[last()] wrong")
	}
}

func TestAttributeAxis(t *testing.T) {
	doc := parseDoc(t, `<table border="2" xmlns:x="urn:y"><tr x:k="v"/></table>`)
	if got := evalString(t, doc, "/table/@border"); got != "2" {
		t.Fatalf("@border = %q", got)
	}
	// Namespace declarations are not attributes.
	if got := evalCount(t, doc, "/table/@*"); got != 1 {
		t.Fatalf("@* = %d, want 1", got)
	}
	if got := evalCount(t, doc, "//tr/@x:k"); got != 1 {
		t.Fatalf("@x:k = %d", got)
	}
	if got := evalCount(t, doc, "//tr/attribute::x:*"); got != 1 {
		t.Fatalf("attribute::x:* = %d", got)
	}
}

func TestUnion(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if got := evalCount(t, doc, "/dept/dname | /dept/loc"); got != 2 {
		t.Fatalf("union = %d", got)
	}
	// Union result in document order regardless of operand order.
	ns, _ := ToNodeSet(evalOn(t, doc, "/dept/loc | /dept/dname"))
	if ns[0].Name != "dname" {
		t.Fatal("union not in document order")
	}
	// Duplicates removed.
	if got := evalCount(t, doc, "//emp | //emp"); got != 2 {
		t.Fatalf("dup union = %d", got)
	}
}

func TestArithmetic(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	cases := []struct {
		expr string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 div 4", 2.5},
		{"10 mod 4", 2},
		{"-3 + 1", -2},
		{"2 > 1 and 3 > 2", 1}, // true → 1
		{"sum(//sal)", 3750},
		{"count(//emp) * 2", 4},
		{"floor(2.7)", 2},
		{"ceiling(2.1)", 3},
		{"round(2.5)", 3},
		{"round(-2.5)", -2}, // round half toward +inf
	}
	for _, tc := range cases {
		if got := evalNumber(t, doc, tc.expr); got != tc.want {
			t.Errorf("%s = %g, want %g", tc.expr, got, tc.want)
		}
	}
	if !math.IsNaN(evalNumber(t, doc, `number("abc")`)) {
		t.Error("number('abc') should be NaN")
	}
}

func TestComparisonSemantics(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	cases := []struct {
		expr string
		want bool
	}{
		{"//sal > 2000", true}, // existential: some sal > 2000
		{"//sal < 2000", true}, // some sal < 2000 too
		{"//sal > 5000", false},
		{"//ename = 'CLARK'", true},
		{"//ename != 'CLARK'", true}, // existential !=
		{"not(//ename = 'NOPE')", true},
		{"'a' = 'a'", true},
		{"1 = true()", true}, // bool comparison coerces
		{"'' = false()", true},
		{"2 = '2'", true}, // number/string coerces to number
	}
	for _, tc := range cases {
		if got := ToBool(evalOn(t, doc, tc.expr)); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	cases := []struct {
		expr, want string
	}{
		{`concat("Department name: ", string(/dept/dname))`, "Department name: ACCOUNTING"},
		{`substring("12345", 2, 3)`, "234"},
		{`substring("12345", 0)`, "12345"},
		{`substring("12345", 1.5, 2.6)`, "234"}, // spec rounding example
		{`substring-before("1999/04/01", "/")`, "1999"},
		{`substring-after("1999/04/01", "/")`, "04/01"},
		{`normalize-space("  a   b  ")`, "a b"},
		{`translate("bar", "abc", "ABC")`, "BAr"},
		{`translate("--aaa--", "abc-", "ABC")`, "AAA"},
		{`string(123)`, "123"},
		{`string(1.5)`, "1.5"},
		{`string(//emp[2]/ename)`, "MILLER"},
		{`local-name(//emp[1])`, "emp"},
		{`name(/dept)`, "dept"},
	}
	for _, tc := range cases {
		if got := evalString(t, doc, tc.expr); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.expr, got, tc.want)
		}
	}
	if evalNumber(t, doc, `string-length("héllo")`) != 5 {
		t.Error("string-length must count runes")
	}
	if !ToBool(evalOn(t, doc, `starts-with("foobar","foo") and contains("foobar","oba")`)) {
		t.Error("starts-with/contains wrong")
	}
}

func TestVariables(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	e := MustParse("$threshold < //sal")
	ctx := NewContext(doc)
	ctx.Vars = VarMap{"threshold": float64(2000)}
	v, err := Eval(e, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ToBool(v) {
		t.Fatal("variable comparison failed")
	}
	// Unknown variable must error.
	if _, err := Eval(MustParse("$nope"), NewContext(doc)); err == nil {
		t.Fatal("undefined variable should error")
	}
}

func TestNodeSetFirstNodeString(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	// string() of a node-set takes the FIRST node in document order.
	if got := evalString(t, doc, "string(//ename)"); got != "CLARK" {
		t.Fatalf("string(//ename) = %q", got)
	}
}

func TestFilterExprWithPredicateAndPath(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if got := evalString(t, doc, "(//emp)[2]/ename"); got != "MILLER" {
		t.Fatalf("(//emp)[2] = %q", got)
	}
	// Note the difference from //emp[2]: both are MILLER here, but with a
	// deeper test, (//x)[1] takes the global first.
	doc2 := parseDoc(t, `<r><g><x>1</x><x>2</x></g><g><x>3</x></g></r>`)
	if got := evalCount(t, doc2, "//x[1]"); got != 2 {
		t.Fatalf("//x[1] = %d, want 2 (per-parent positions)", got)
	}
	if got := evalCount(t, doc2, "(//x)[1]"); got != 1 {
		t.Fatalf("(//x)[1] = %d, want 1", got)
	}
}

func TestContextPositionInPredicates(t *testing.T) {
	doc := parseDoc(t, `<r><i>a</i><i>b</i><i>c</i></r>`)
	ns, _ := ToNodeSet(evalOn(t, doc, "/r/i[position() > 1]"))
	if len(ns) != 2 || ns[0].StringValue() != "b" {
		t.Fatalf("position()>1 wrong: %d", len(ns))
	}
	// Chained predicates renumber: [position()>1][1] is the 2nd item.
	ns, _ = ToNodeSet(evalOn(t, doc, "/r/i[position() > 1][1]"))
	if len(ns) != 1 || ns[0].StringValue() != "b" {
		t.Fatal("chained predicate renumbering wrong")
	}
}

func TestNodeTests(t *testing.T) {
	doc := parseDoc(t, `<r>text<!--c--><?pi d?><e/></r>`)
	if got := evalCount(t, doc, "/r/node()"); got != 4 {
		t.Fatalf("node() = %d", got)
	}
	if got := evalCount(t, doc, "/r/comment()"); got != 1 {
		t.Fatalf("comment() = %d", got)
	}
	if got := evalCount(t, doc, "/r/processing-instruction()"); got != 1 {
		t.Fatalf("pi() = %d", got)
	}
	if got := evalCount(t, doc, `/r/processing-instruction("pi")`); got != 1 {
		t.Fatalf("pi('pi') = %d", got)
	}
	if got := evalCount(t, doc, `/r/processing-instruction("other")`); got != 0 {
		t.Fatalf("pi('other') = %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"/dept/",
		"foo[",
		"foo]",
		"foo bar",
		"@@x",
		"1 +",
		"unknownaxis::x",
		`"unterminated`,
		"$",
		"f(,)",
		"a/b[",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	exprs := []string{
		"/dept/employees/emp[sal > 2000]",
		"//emp",
		"concat('a', 'b', string(.))",
		"$var/emp[empno = 3456]",
		"count(//emp) * 2 + 1",
		"dname | loc",
		"../@id",
		"self::node()",
		"emp/empno",
		"(//x)[1]/y",
		"a//b/c[2][@k = 'v']",
		"not(position() = last())",
	}
	doc := parseDoc(t, deptDoc)
	for _, src := range exprs {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		out := e.String()
		e2, err := Parse(out)
		if err != nil {
			t.Errorf("re-Parse(%q from %q): %v", out, src, err)
			continue
		}
		// The round-tripped expression must evaluate identically.
		ctx := NewContext(doc)
		ctx.Vars = VarMap{"var": NodeSet{doc.DocumentElement()}}
		v1, err1 := Eval(e, ctx)
		v2, err2 := Eval(e2, ctx)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("round trip of %q changed error: %v vs %v", src, err1, err2)
			continue
		}
		if err1 == nil && ToString(v1) != ToString(v2) {
			t.Errorf("round trip of %q changed value: %q vs %q (printed %q)", src, ToString(v1), ToString(v2), out)
		}
	}
}

func TestNumberToString(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1, "1"}, {2450, "2450"}, {1.5, "1.5"}, {-7, "-7"},
		{math.NaN(), "NaN"}, {math.Inf(1), "Infinity"}, {math.Inf(-1), "-Infinity"},
		{0, "0"}, {math.Copysign(0, -1), "0"}, {0.1, "0.1"}, {-2.25, "-2.25"},
		// §4.2: decimal form, never an exponent.
		{1e16 + 2750, "10000000000002750"}, {1e21, "1000000000000000000000"},
		{-1e21, "-1000000000000000000000"}, {1e-7, "0.0000001"}, {1.5e-10, "0.00000000015"},
	}
	for _, tc := range cases {
		if got := NumberToString(tc.in); got != tc.want {
			t.Errorf("NumberToString(%v) = %q, want %q", tc.in, got, tc.want)
		}
		if got := string(AppendNumber([]byte("x"), tc.in)); got != "x"+tc.want {
			t.Errorf("AppendNumber(%v) = %q, want %q", tc.in, got, "x"+tc.want)
		}
	}
}

// TestStringToNumber: §4.4's lexical rule — optional whitespace, an
// optional '-', digits with at most one '.'; anything else is NaN.
func TestStringToNumber(t *testing.T) {
	for in, want := range map[string]float64{
		"7": 7, " 7 ": 7, "\t\r\n12\n": 12, "-0.5": -0.5, ".5": 0.5, "5.": 5, "007": 7,
		"2450": 2450, "-3": -3,
	} {
		if got := StringToNumber(in); got != want {
			t.Errorf("StringToNumber(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{
		"", " ", ".", "-", "-.", "1e3", "+5", "Infinity", "-Infinity", "NaN", "0x1p4", "1_0",
		"1.2.3", "- 5", "5-", "\u00a07", "\v7", "abc", "1,5",
	} {
		if got := StringToNumber(in); !math.IsNaN(got) {
			t.Errorf("StringToNumber(%q) = %v, want NaN", in, got)
		}
	}
}

// TestNodeSetComparedWithBoolean: §3.4 — a node-set compared with a
// boolean compares boolean(node-set), not each node's string value.
func TestNodeSetComparedWithBoolean(t *testing.T) {
	doc := parseDoc(t, `<r><b/><n>0</n></r>`)
	for expr, want := range map[string]bool{
		"/r/b = true()":       true, // one node: true, although its string is ""
		"true() = /r/b":       true,
		"/r/b != false()":     true,
		"/r/b = false()":      false,
		"/r/nosuch = false()": true,
		"false() = /r/nosuch": true,
		"/r/nosuch != true()": true,
		"/r/n = true()":       true, // not number("0")
		"/r/nosuch < true()":  true, // 0 < 1
		"/r/b > false()":      true,
		"/r/b = ''":           true, // strings still compare node by node
	} {
		if got := ToBool(evalOn(t, doc, expr)); got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestEvalNodeSetErrors(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if _, err := EvalNodeSet(MustParse("1 + 1"), NewContext(doc)); err == nil {
		t.Fatal("scalar → node-set conversion should fail")
	}
	if _, err := Eval(MustParse("unknownfn()"), NewContext(doc)); err == nil {
		t.Fatal("unknown function should fail")
	}
	if _, err := Eval(MustParse("substring('a')"), NewContext(doc)); err == nil {
		t.Fatal("arity error should fail")
	}
}

func TestExtensionFunctions(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	ctx := NewContext(doc)
	ctx.Funcs = func(name string) (Function, bool) {
		if name == "ext:double" {
			return func(_ *Context, args []Value) (Value, error) {
				return ToNumber(args[0]) * 2, nil
			}, true
		}
		return nil, false
	}
	v, err := Eval(MustParse("ext:double(21)"), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ToNumber(v) != 42 {
		t.Fatalf("ext:double = %v", v)
	}
}

func TestFnPrefixResolvesToCore(t *testing.T) {
	doc := parseDoc(t, deptDoc)
	if got := evalString(t, doc, `fn:concat("a", "b")`); got != "ab" {
		t.Fatalf("fn:concat = %q", got)
	}
	if got := evalString(t, doc, `fn:string(/dept/loc)`); got != "NEW YORK" {
		t.Fatalf("fn:string = %q", got)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("foo[bar")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "foo[bar") {
		t.Fatalf("error should cite the source: %v", err)
	}
}
