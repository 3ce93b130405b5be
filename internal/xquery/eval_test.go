package xquery

import (
	"math"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

const deptDoc = `<dept>
<dname>ACCOUNTING</dname>
<loc>NEW YORK</loc>
<employees>
<emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>
<emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>
</employees>
</dept>`

func docOf(t *testing.T, src string) *xmltree.Node {
	t.Helper()
	d, err := xmltree.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func run(t *testing.T, query string, doc *xmltree.Node) Seq {
	t.Helper()
	m, err := Parse(query)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	var ctx Item
	if doc != nil {
		ctx = doc
	}
	out, err := EvalModule(m, NewEnv(ctx))
	if err != nil {
		t.Fatalf("Eval(%q): %v", query, err)
	}
	return out
}

func runStr(t *testing.T, query string, doc *xmltree.Node) string {
	t.Helper()
	return SerializeSeq(run(t, query, doc))
}

func nows(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	return strings.ReplaceAll(s, "> <", "><")
}

func TestLiteralsAndArithmetic(t *testing.T) {
	cases := []struct {
		q, want string
	}{
		{`1 + 2 * 3`, "7"},
		{`(1 + 2) * 3`, "9"},
		{`10 idiv 3`, "3"},
		{`10 div 4`, "2.5"},
		{`7 mod 3`, "1"},
		{`-5 + 2`, "-3"},
		{`"hello"`, "hello"},
		{`'it''s'`, "it's"},
		{`1, 2, 3`, "1 2 3"},
		{`()`, ""},
		{`1 to 4`, "1 2 3 4"},
		{`2.5`, "2.5"},
		{`1e3`, "1000"},
	}
	for _, tc := range cases {
		if got := runStr(t, tc.q, nil); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.q, got, tc.want)
		}
	}
}

func TestComparisons(t *testing.T) {
	doc := docOf(t, deptDoc)
	cases := []struct {
		q    string
		want string
	}{
		{`1 = 1`, "true"},
		{`1 eq 1`, "true"},
		{`2 lt 1`, "false"},
		{`"a" != "b"`, "true"},
		{`//sal > 2000`, "true"}, // existential
		{`//sal > 5000`, "false"},
		{`//ename = "CLARK"`, "true"},
		{`"2" = 2`, "true"},
		{`fn:not(//missing)`, "true"},
		// XPath 1.0 §3.4: nodes compared with a boolean compare as boolean(nodes).
		{`//missing = fn:false()`, "true"},
		{`fn:true() = //ename`, "true"},
		{`//missing != fn:true()`, "true"},
		{`(1, 0) = fn:false()`, "true"}, // atoms still compare one by one
	}
	for _, tc := range cases {
		if got := runStr(t, tc.q, doc); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.q, got, tc.want)
		}
	}
}

func TestPaths(t *testing.T) {
	doc := docOf(t, deptDoc)
	if got := runStr(t, `fn:string(/dept/dname)`, doc); got != "ACCOUNTING" {
		t.Fatalf("dname = %q", got)
	}
	if got := runStr(t, `fn:count(//emp)`, doc); got != "2" {
		t.Fatalf("count = %q", got)
	}
	if got := runStr(t, `fn:string(//emp[sal > 2000]/ename)`, doc); got != "CLARK" {
		t.Fatalf("predicate path = %q", got)
	}
	if got := runStr(t, `fn:count(/dept/employees/emp[2])`, doc); got != "1" {
		t.Fatalf("positional = %q", got)
	}
	if got := runStr(t, `fn:string(//emp[2]/empno)`, doc); got != "7934" {
		t.Fatalf("emp[2] = %q", got)
	}
}

func TestFLWORBasics(t *testing.T) {
	doc := docOf(t, deptDoc)
	got := runStr(t, `for $e in //emp return <n>{fn:string($e/ename)}</n>`, doc)
	if nows(got) != "<n>CLARK</n><n>MILLER</n>" {
		t.Fatalf("for = %q", got)
	}
	got = runStr(t, `let $s := sum(//sal) return $s * 2`, doc)
	if got != "7500" {
		t.Fatalf("let = %q", got)
	}
	got = runStr(t, `for $e in //emp where $e/sal > 2000 return fn:string($e/ename)`, doc)
	if got != "CLARK" {
		t.Fatalf("where = %q", got)
	}
	// Multiple clauses and at.
	got = runStr(t, `for $e at $i in //emp return fn:concat($i, ":", fn:string($e/ename))`, doc)
	if got != "1:CLARK 2:MILLER" {
		t.Fatalf("at = %q", got)
	}
	// Cartesian product of two fors.
	got = runStr(t, `for $a in (1,2), $b in (10,20) return $a + $b`, nil)
	if got != "11 21 12 22" {
		t.Fatalf("product = %q", got)
	}
}

func TestFLWOROrderBy(t *testing.T) {
	doc := docOf(t, deptDoc)
	got := runStr(t, `for $e in //emp order by $e/sal return fn:string($e/ename)`, doc)
	if got != "MILLER CLARK" {
		t.Fatalf("order by = %q", got)
	}
	got = runStr(t, `for $e in //emp order by $e/sal descending return fn:string($e/ename)`, doc)
	if got != "CLARK MILLER" {
		t.Fatalf("order by desc = %q", got)
	}
	got = runStr(t, `for $s in ("b", "a", "c") order by $s return $s`, nil)
	if got != "a b c" {
		t.Fatalf("string order = %q", got)
	}
}

func TestIfExpr(t *testing.T) {
	doc := docOf(t, deptDoc)
	got := runStr(t, `if (//sal > 2000) then "rich" else "poor"`, doc)
	if got != "rich" {
		t.Fatalf("if = %q", got)
	}
	got = runStr(t, `for $e in //emp return if ($e/sal > 2000) then "Y" else "N"`, doc)
	if got != "Y N" {
		t.Fatalf("if per emp = %q", got)
	}
}

func TestDirectConstructors(t *testing.T) {
	doc := docOf(t, deptDoc)
	got := runStr(t, `<H2>{fn:concat("Department name: ", fn:string(/dept/dname))}</H2>`, doc)
	if got != "<H2>Department name: ACCOUNTING</H2>" {
		t.Fatalf("direct elem = %q", got)
	}
	got = runStr(t, `<table border="2"><td><b>EmpNo</b></td></table>`, nil)
	if got != `<table border="2"><td><b>EmpNo</b></td></table>` {
		t.Fatalf("nested literal = %q", got)
	}
	// Attribute with embedded expression.
	got = runStr(t, `<e id="pre{1+1}post"/>`, nil)
	if got != `<e id="pre2post"/>` {
		t.Fatalf("attr expr = %q", got)
	}
	// Entities in content.
	got = runStr(t, `<e>&lt;tag&gt; &amp; stuff</e>`, nil)
	if got != "<e>&lt;tag&gt; &amp; stuff</e>" {
		t.Fatalf("entities = %q", got)
	}
	// Escaped braces.
	got = runStr(t, `<e>{{literal}}</e>`, nil)
	if got != "<e>{literal}</e>" {
		t.Fatalf("braces = %q", got)
	}
}

func TestConstructorContentRules(t *testing.T) {
	// Adjacent atomics join with spaces in one text node.
	got := runStr(t, `<e>{1, 2, "x"}</e>`, nil)
	if got != "<e>1 2 x</e>" {
		t.Fatalf("atomics = %q", got)
	}
	// Nodes are copied, not referenced.
	doc := docOf(t, `<src><a>v</a></src>`)
	out := run(t, `<wrap>{/src/a}</wrap>`, doc)
	wrapped := out[0].(*xmltree.Node)
	orig := doc.DocumentElement().Children[0]
	if wrapped.Children[0] == orig {
		t.Fatal("constructor must copy nodes")
	}
	if wrapped.Children[0].StringValue() != "v" {
		t.Fatal("copied content wrong")
	}
	// Attribute nodes attach as attributes.
	got = runStr(t, `<e>{attribute {"k"} {"v"}}</e>`, nil)
	if got != `<e k="v"/>` {
		t.Fatalf("attr content = %q", got)
	}
}

func TestComputedConstructors(t *testing.T) {
	got := runStr(t, `element {"foo"} {"body"}`, nil)
	if got != "<foo>body</foo>" {
		t.Fatalf("computed elem = %q", got)
	}
	got = runStr(t, `element bar { <i/> }`, nil)
	if got != "<bar><i/></bar>" {
		t.Fatalf("computed named elem = %q", got)
	}
	got = runStr(t, `text {"hi"}`, nil)
	if got != "hi" {
		t.Fatalf("text = %q", got)
	}
	got = runStr(t, `comment {"note"}`, nil)
	if got != "<!--note-->" {
		t.Fatalf("comment = %q", got)
	}
	got = runStr(t, `processing-instruction {"t"} {"d"}`, nil)
	if got != "<?t d?>" {
		t.Fatalf("pi = %q", got)
	}
}

func TestInstanceOf(t *testing.T) {
	doc := docOf(t, deptDoc)
	cases := []struct {
		q, want string
	}{
		{`(/dept/dname) instance of element(dname)`, "true"},
		{`(/dept/dname) instance of element(loc)`, "false"},
		{`(/dept/dname) instance of element()`, "true"},
		{`(//text())[1] instance of text()`, "true"},
		{`(/dept/dname) instance of node()`, "true"},
		{`"str" instance of element(x)`, "false"},
	}
	for _, tc := range cases {
		if got := runStr(t, tc.q, doc); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.q, got, tc.want)
		}
	}
}

func TestPrologVariables(t *testing.T) {
	doc := docOf(t, deptDoc)
	// Table 8 pattern: declare variable $var000 := .;
	got := runStr(t, `declare variable $var000 := .;
fn:string($var000/dept/dname)`, doc)
	if got != "ACCOUNTING" {
		t.Fatalf("prolog var = %q", got)
	}
	got = runStr(t, `declare variable $a := 2; declare variable $b := $a * 3; $b`, nil)
	if got != "6" {
		t.Fatalf("chained vars = %q", got)
	}
}

func TestUserFunctions(t *testing.T) {
	got := runStr(t, `declare function local:double($x) { $x * 2 };
local:double(21)`, nil)
	if got != "42" {
		t.Fatalf("user fn = %q", got)
	}
	// Recursion (factorial).
	got = runStr(t, `declare function local:fact($n) { if ($n <= 1) then 1 else $n * local:fact($n - 1) };
local:fact(5)`, nil)
	if got != "120" {
		t.Fatalf("recursion = %q", got)
	}
	// Runaway recursion is caught.
	m := MustParse(`declare function local:loop($n) { local:loop($n) }; local:loop(1)`)
	if _, err := EvalModule(m, NewEnv(nil)); err == nil {
		t.Fatal("infinite recursion should error")
	}
}

func TestCoreFunctions(t *testing.T) {
	doc := docOf(t, deptDoc)
	cases := []struct {
		q, want string
	}{
		{`fn:string-join(for $t in //ename return fn:string($t), ",")`, "CLARK,MILLER"},
		{`fn:sum(//sal)`, "3750"},
		{`fn:avg((1, 2, 3))`, "2"},
		{`fn:min((3, 1, 2))`, "1"},
		{`fn:max((3, 1, 2))`, "3"},
		{`fn:count(//emp)`, "2"},
		{`fn:empty(//nope)`, "true"},
		{`fn:exists(//emp)`, "true"},
		{`fn:substring("12345", 2, 3)`, "234"},
		{`fn:upper-case("abc")`, "ABC"},
		{`fn:lower-case("ABC")`, "abc"},
		{`fn:translate("bar", "abc", "ABC")`, "BAr"},
		{`fn:translate("--äbc--", "abc-", "AB")`, "äB"}, // c and - have no correspondent: deleted
		{`fn:normalize-space("  a  b ")`, "a b"},
		{`fn:name((//emp)[1])`, "emp"},
		{`fn:local-name((//emp)[1])`, "emp"},
		{`fn:contains("foobar", "oba")`, "true"},
		{`fn:starts-with("foobar", "foo")`, "true"},
		{`fn:ends-with("foobar", "bar")`, "true"},
		{`fn:distinct-values((1, 2, 1, 3))`, "1 2 3"},
		{`fn:reverse((1, 2, 3))`, "3 2 1"},
		{`fn:subsequence((1, 2, 3, 4), 2, 2)`, "2 3"},
		{`fn:string-length("héllo")`, "5"},
		{`fn:floor(2.7)`, "2"},
		{`fn:ceiling(2.1)`, "3"},
		{`fn:round(2.5)`, "3"},
		{`fn:abs(-4)`, "4"},
		{`count((1, 2))`, "2"}, // unprefixed spelling
	}
	for _, tc := range cases {
		if got := runStr(t, tc.q, doc); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(run(t, `fn:number("zz")`, nil)[0].(float64)) {
		t.Error("number('zz') should be NaN")
	}
}

// TestXPathNumberRules: numbers convert and print as XPath 1.0's do — an
// empty operand or argument is NaN, a string is a number only in §4.4's
// lexical form, a number prints in decimal (§4.2) — and a function whose
// argument defaults to the context takes an atomic context item.
func TestXPathNumberRules(t *testing.T) {
	doc := docOf(t, deptDoc)
	for q, want := range map[string]string{
		`//missing + 1`:                         "NaN",
		`-//missing`:                            "NaN",
		`fn:floor(//missing)`:                   "NaN",
		`fn:round(//missing)`:                   "NaN",
		`fn:number(//missing)`:                  "NaN",
		`fn:number(" 7 ")`:                      "7",
		`fn:number("1e3")`:                      "NaN",
		`fn:number("+5")`:                       "NaN",
		`fn:sum(("1", "Infinity"))`:             "NaN",
		`1e21`:                                  "1000000000000000000000",
		`fn:string(1e16 + 2750)`:                "10000000000002750",
		`("ab", "cde")[fn:string-length() = 3]`: "cde",
		`(1.5, "x")[fn:number() = 1.5]`:         "1.5",
		`fn:concat(//ename, "-", //missing)`:    "CLARK-",
		// Several node-set arguments, and calls nested in arguments, each
		// see their own nodes.
		`fn:concat(//ename, fn:substring(//emp[2]/ename, 2), //sal, fn:string(//dname))`: "CLARKILLER2450ACCOUNTING",
		`fn:string((//emp[2]/ename, "x", //dname))`:                                      "MILLER",
		// boolean() and not() decide a sequence as if and predicates do.
		`fn:boolean((0, 1))`:            "true",
		`fn:not((0, 1))`:                "false",
		`fn:boolean((0))`:               "false",
		`if ((0, 1)) then "t" else "f"`: "t",
	} {
		if got := runStr(t, q, doc); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestPositionLastInPredicates(t *testing.T) {
	doc := docOf(t, `<r><i>a</i><i>b</i><i>c</i></r>`)
	if got := runStr(t, `fn:string(/r/i[fn:position() = fn:last()])`, doc); got != "c" {
		t.Fatalf("position/last = %q", got)
	}
	if got := runStr(t, `fn:count(/r/i[position() > 1])`, doc); got != "2" {
		t.Fatalf("position filter = %q", got)
	}
}

func TestFilterExpression(t *testing.T) {
	doc := docOf(t, deptDoc)
	if got := runStr(t, `fn:string((//emp)[2]/ename)`, doc); got != "MILLER" {
		t.Fatalf("filter = %q", got)
	}
	if got := runStr(t, `(1, 2, 3)[2]`, nil); got != "2" {
		t.Fatalf("seq filter = %q", got)
	}
}

func TestUnionOperator(t *testing.T) {
	doc := docOf(t, deptDoc)
	got := runStr(t, `fn:count(/dept/dname | /dept/loc)`, doc)
	if got != "2" {
		t.Fatalf("union = %q", got)
	}
	// Union result is in document order.
	got = runStr(t, `fn:string-join(for $n in (/dept/loc | /dept/dname) return fn:name($n), ",")`, doc)
	if got != "dname,loc" {
		t.Fatalf("union order = %q", got)
	}
}

// TestPaperTable8Query executes the (slightly abbreviated) XQuery the paper
// shows as the rewrite output for Example 1, and checks it produces the
// Table 6 result.
func TestPaperTable8Query(t *testing.T) {
	doc := docOf(t, deptDoc)
	query := `declare variable $var000 := .;
(
let $var002 := $var000/dept
return
(
<H1>HIGHLY PAID DEPT EMPLOYEES</H1>,
(
let $var003 := $var002/dname
return
<H2>{fn:concat("Department name: ", fn:string($var003))}</H2>,
let $var003 := $var002/loc
return
<H2>{fn:concat("Department location: ", fn:string($var003))}</H2>,
let $var003 := $var002/employees
return
(
<H2>Employees Table</H2>,
<table border="2">
{
<td><b>EmpNo</b></td>,
<td><b>Name</b></td>,
<td><b>Weekly Salary</b></td>,
(
for $var005 in ($var003/emp[sal > 2000])
return
<tr>
<td>{fn:string($var005/empno)}</td>
<td>{fn:string($var005/ename)}</td>
<td>{fn:string($var005/sal)}</td>
</tr>
)
}
</table>
)
)
)
)`
	got := nows(runStr(t, query, doc))
	want := nows(`<H1>HIGHLY PAID DEPT EMPLOYEES</H1>` +
		`<H2>Department name: ACCOUNTING</H2>` +
		`<H2>Department location: NEW YORK</H2>` +
		`<H2>Employees Table</H2>` +
		`<table border="2"><td><b>EmpNo</b></td><td><b>Name</b></td><td><b>Weekly Salary</b></td>` +
		`<tr><td>7782</td><td>CLARK</td><td>2450</td></tr></table>`)
	if got != want {
		t.Fatalf("Table 8 query mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestPaperExample2FLWOR(t *testing.T) {
	// Table 10: for $tr in ./table/tr return $tr — applied to the XSLT
	// output fragment.
	frag := docOf(t, `<x><table><tr><td>7782</td></tr><tr><td>7954</td></tr></table></x>`)
	got := runStr(t, `for $tr in ./x/table/tr return $tr`, frag)
	if nows(got) != "<tr><td>7782</td></tr><tr><td>7954</td></tr>" {
		t.Fatalf("example 2 = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x return 1`,
		`let $x = 2 return $x`,
		`if (1) then 2`,
		`<unclosed>`,
		`<a></b>`,
		`1 +`,
		`declare variable x := 1; 2`,
		`declare function f($a { 1 }; 2`,
		`$`,
		`(1, 2`,
		`<e a="{1}>text</e>`,
		`fn:unknown-function(1)`, // parses, but:
	}
	for _, src := range bad[:len(bad)-1] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	// Unknown function is a dynamic error.
	m, err := Parse(`fn:unknown-function(1)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalModule(m, NewEnv(nil)); err == nil {
		t.Error("unknown function should fail at evaluation")
	}
}

func TestCommentsIgnored(t *testing.T) {
	got := runStr(t, `(: outer (: nested :) still comment :) 1 + (: mid :) 2`, nil)
	if got != "3" {
		t.Fatalf("comments = %q", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		`1 + 2 * 3`,
		`for $e in //emp where $e/sal > 2000 return <n>{fn:string($e/ename)}</n>`,
		`let $x := /dept/dname return fn:concat("n: ", fn:string($x))`,
		`if (//sal > 2000) then "rich" else "poor"`,
		`<table border="2"><td>{1 + 1}</td></table>`,
		`declare variable $v := .; fn:count($v//emp)`,
		`declare function local:f($a) { $a * 2 }; local:f(3)`,
		`(//emp)[1] instance of element(emp)`,
		`element {"x"} {attribute {"k"} {"v"}}`,
		`for $e in //emp order by $e/sal descending return fn:string($e/empno)`,
		`fn:string-join(("a", "b"), "-")`,
		`(1, 2, 3)[2]`,
		`//emp[sal > 2000]/ename`,
	}
	doc := docOf(t, deptDoc)
	for _, q := range queries {
		m1, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		printed := m1.String()
		m2, err := Parse(printed)
		if err != nil {
			t.Errorf("re-Parse of %q failed: %v\nprinted: %s", q, err, printed)
			continue
		}
		r1, err1 := EvalModule(m1, NewEnv(Item(doc)))
		r2, err2 := EvalModule(m2, NewEnv(Item(doc)))
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("round trip of %q changed error status: %v vs %v", q, err1, err2)
			continue
		}
		if err1 == nil && SerializeSeq(r1) != SerializeSeq(r2) {
			t.Errorf("round trip of %q changed result:\n was %q\n now %q\nprinted:\n%s", q, SerializeSeq(r1), SerializeSeq(r2), printed)
		}
	}
}

func TestAnnotatedComments(t *testing.T) {
	// The rewriter labels inlined templates with comments (Table 8 style);
	// they must print and re-parse.
	e := &Annotated{Comment: `<xsl:template match="dept">`, X: NumberLit(1)}
	s := e.String()
	if !strings.Contains(s, `(: <xsl:template match="dept"> :)`) {
		t.Fatalf("annotation missing: %s", s)
	}
	m, err := Parse(s)
	if err != nil {
		t.Fatalf("annotated expr does not re-parse: %v", err)
	}
	out, err := EvalModule(m, NewEnv(nil))
	if err != nil || SerializeSeq(out) != "1" {
		t.Fatalf("annotated eval wrong: %v %q", err, SerializeSeq(out))
	}
	if Unwrap(e) != NumberLit(1) {
		t.Fatal("Unwrap wrong")
	}
}

func TestDeepPathsAfterPrimary(t *testing.T) {
	doc := docOf(t, deptDoc)
	got := runStr(t, `declare variable $d := /dept; fn:string($d/employees/emp[1]/ename)`, doc)
	if got != "CLARK" {
		t.Fatalf("var path = %q", got)
	}
	// Undefined variable in a path is a dynamic error.
	m := MustParse(`fn:count($undefined//emp)`)
	if _, err := EvalModule(m, NewEnv(nil)); err == nil {
		t.Fatal("undefined variable should error")
	}
}

func TestQuantifiedExpressions(t *testing.T) {
	doc := docOf(t, deptDoc)
	cases := []struct{ q, want string }{
		{`some $s in //sal satisfies $s > 2000`, "true"},
		{`some $s in //sal satisfies $s > 9000`, "false"},
		{`every $s in //sal satisfies $s > 1000`, "true"},
		{`every $s in //sal satisfies $s > 2000`, "false"},
		{`every $s in //nope satisfies $s > 0`, "true"}, // vacuous truth
		{`some $s in //nope satisfies $s > 0`, "false"}, // empty domain
		{`some $a in (1, 2), $b in (10, 20) satisfies $a + $b = 22`, "true"},
		{`every $a in (1, 2), $b in (10, 20) satisfies $a < $b`, "true"},
	}
	for _, tc := range cases {
		if got := runStr(t, tc.q, doc); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.q, got, tc.want)
		}
	}
	// Round trip.
	m := MustParse(`some $s in //sal satisfies $s > 2000`)
	re, err := Parse(m.String())
	if err != nil {
		t.Fatalf("quantified round trip: %v\n%s", err, m.String())
	}
	a, _ := EvalModule(m, NewEnv(Item(doc)))
	b, _ := EvalModule(re, NewEnv(Item(doc)))
	if SerializeSeq(a) != SerializeSeq(b) {
		t.Fatal("round trip changed result")
	}
}
