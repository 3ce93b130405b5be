package xslt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

func transform(t *testing.T, stylesheet, input string) string {
	t.Helper()
	sheet, err := ParseStylesheet(stylesheet)
	if err != nil {
		t.Fatalf("ParseStylesheet: %v", err)
	}
	doc, err := xmltree.Parse(input)
	if err != nil {
		t.Fatalf("Parse input: %v", err)
	}
	out, err := New(sheet).TransformToString(doc)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	return out
}

// norm collapses whitespace (and drops whitespace between tags) so golden
// comparisons are layout-insensitive: a conforming XSLT processor copies the
// input's inter-element whitespace text nodes, which the paper's printed
// tables elide.
func norm(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	s = strings.ReplaceAll(s, "> <", "><")
	return s
}

func wrap(body string) string {
	return `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">` + body + `</xsl:stylesheet>`
}

// TestPaperExample1 reproduces Table 6 of the paper: applying the Table 5
// stylesheet to the first dept_emp row.
func TestPaperExample1(t *testing.T) {
	got := transform(t, PaperStylesheet, PaperDeptRow1)
	want := `<H1>HIGHLY PAID DEPT EMPLOYEES</H1>` +
		`<H2>Department name: ACCOUNTING</H2>` +
		`<H2>Department location: NEW YORK</H2>` +
		`<H2>Employees Table</H2>` +
		`<table border="2">` +
		`<td><b>EmpNo</b></td>` +
		`<td><b>Name</b></td>` +
		`<td><b>Weekly Salary</b></td>` +
		`<tr><td>7782</td><td>CLARK</td><td>2450</td></tr>` +
		`</table>`
	if norm(got) != norm(want) {
		t.Fatalf("Example 1 mismatch:\ngot:  %s\nwant: %s", norm(got), norm(want))
	}
}

// TestPaperExample1Row2 checks the OPERATIONS row (second half of Table 6):
// SMITH earns 4900 and must appear.
func TestPaperExample1Row2(t *testing.T) {
	got := norm(transform(t, PaperStylesheet, PaperDeptRow2))
	if !strings.Contains(got, "<td>7954</td><td>SMITH</td><td>4900</td>") {
		t.Fatalf("SMITH row missing:\n%s", got)
	}
	if strings.Contains(got, "MILLER") {
		t.Fatal("row 2 must not contain row 1 employees")
	}
}

func TestBuiltinTemplatesOnly(t *testing.T) {
	// Paper Table 20: the empty stylesheet concatenates all text.
	got := transform(t, wrap(""), PaperDeptRow1)
	for _, want := range []string{"ACCOUNTING", "NEW YORK", "7782", "CLARK", "2450", "MILLER"} {
		if !strings.Contains(got, want) {
			t.Fatalf("builtin output missing %q: %s", want, got)
		}
	}
	if strings.Contains(got, "<") {
		t.Fatalf("builtin-only output should be pure text: %s", got)
	}
}

func TestTemplatePriorityAndOrder(t *testing.T) {
	// More specific pattern (priority 0.5) beats name test (0).
	out := transform(t, wrap(`
		<xsl:template match="a/b">SPECIFIC</xsl:template>
		<xsl:template match="b">GENERIC</xsl:template>
		<xsl:template match="a"><xsl:apply-templates/></xsl:template>
	`), `<a><b/></a>`)
	if norm(out) != "SPECIFIC" {
		t.Fatalf("priority resolution wrong: %q", out)
	}
	// Equal priority: last template wins.
	out = transform(t, wrap(`
		<xsl:template match="b">FIRST</xsl:template>
		<xsl:template match="b">SECOND</xsl:template>
		<xsl:template match="a"><xsl:apply-templates/></xsl:template>
	`), `<a><b/></a>`)
	if norm(out) != "SECOND" {
		t.Fatalf("document-order tie break wrong: %q", out)
	}
	// Explicit priority overrides default.
	out = transform(t, wrap(`
		<xsl:template match="a/b">SPECIFIC</xsl:template>
		<xsl:template match="b" priority="1">FORCED</xsl:template>
		<xsl:template match="a"><xsl:apply-templates/></xsl:template>
	`), `<a><b/></a>`)
	if norm(out) != "FORCED" {
		t.Fatalf("explicit priority wrong: %q", out)
	}
}

func TestModes(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="/"><xsl:apply-templates select="r/x"/>|<xsl:apply-templates select="r/x" mode="alt"/></xsl:template>
		<xsl:template match="x">plain</xsl:template>
		<xsl:template match="x" mode="alt">alternate</xsl:template>
	`), `<r><x/></r>`)
	if norm(out) != "plain|alternate" {
		t.Fatalf("modes wrong: %q", out)
	}
}

func TestForEachAndSort(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="/">
			<xsl:for-each select="//n"><xsl:sort data-type="number"/><v><xsl:value-of select="."/></v></xsl:for-each>
		</xsl:template>
	`), `<r><n>10</n><n>2</n><n>33</n><n>1</n></r>`)
	if norm(out) != "<v>1</v><v>2</v><v>10</v><v>33</v>" {
		t.Fatalf("numeric sort wrong: %q", out)
	}
	out = transform(t, wrap(`
		<xsl:template match="/">
			<xsl:for-each select="//n"><xsl:sort/><v><xsl:value-of select="."/></v></xsl:for-each>
		</xsl:template>
	`), `<r><n>10</n><n>2</n></r>`)
	if norm(out) != "<v>10</v><v>2</v>" {
		t.Fatalf("string sort wrong: %q", out)
	}
	out = transform(t, wrap(`
		<xsl:template match="/">
			<xsl:for-each select="//e"><xsl:sort select="@k" order="descending"/><xsl:value-of select="@k"/></xsl:for-each>
		</xsl:template>
	`), `<r><e k="a"/><e k="c"/><e k="b"/></r>`)
	if norm(out) != "cba" {
		t.Fatalf("descending sort wrong: %q", out)
	}
}

func TestIfAndChoose(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="n">
			<xsl:choose>
				<xsl:when test=". &gt; 100">big</xsl:when>
				<xsl:when test=". &gt; 10">medium</xsl:when>
				<xsl:otherwise>small</xsl:otherwise>
			</xsl:choose>
			<xsl:if test=". = 5">|five</xsl:if>
		</xsl:template>
		<xsl:template match="/"><xsl:apply-templates select="//n"/></xsl:template>
	`), `<r><n>500</n><n>50</n><n>5</n></r>`)
	if norm(out) != "bigmediumsmall|five" {
		t.Fatalf("choose/if wrong: %q", out)
	}
}

func TestVariablesAndParams(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:variable name="greeting" select="'hello'"/>
		<xsl:template match="/">
			<xsl:variable name="who" select="string(//name)"/>
			<xsl:value-of select="concat($greeting, ' ', $who)"/>
		</xsl:template>
	`), `<r><name>world</name></r>`)
	if norm(out) != "hello world" {
		t.Fatalf("variables wrong: %q", out)
	}
}

func TestCallTemplateWithParams(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template name="greet">
			<xsl:param name="name" select="'nobody'"/>
			<xsl:param name="punct">!</xsl:param>
			[<xsl:value-of select="$name"/><xsl:value-of select="$punct"/>]
		</xsl:template>
		<xsl:template match="/">
			<xsl:call-template name="greet"><xsl:with-param name="name" select="'alice'"/></xsl:call-template>
			<xsl:call-template name="greet"/>
		</xsl:template>
	`), `<r/>`)
	if norm(out) != "[alice!] [nobody!]" {
		t.Fatalf("call-template wrong: %q", out)
	}
}

func TestApplyTemplatesWithParam(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="/"><xsl:apply-templates select="//x"><xsl:with-param name="p" select="'P'"/></xsl:apply-templates></xsl:template>
		<xsl:template match="x"><xsl:param name="p" select="'default'"/><xsl:value-of select="$p"/></xsl:template>
	`), `<r><x/><x/></r>`)
	if norm(out) != "PP" {
		t.Fatalf("apply-templates with-param wrong: %q", out)
	}
}

func TestAVT(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="e"><td width="{@w}px" label="{{literal}}">x</td></xsl:template>
		<xsl:template match="/"><xsl:apply-templates select="//e"/></xsl:template>
	`), `<r><e w="42"/></r>`)
	if !strings.Contains(out, `width="42px"`) || !strings.Contains(out, `label="{literal}"`) {
		t.Fatalf("AVT wrong: %q", out)
	}
}

func TestMakeElementAttribute(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="e">
			<xsl:element name="{@tag}">
				<xsl:attribute name="id">v<xsl:value-of select="@n"/></xsl:attribute>
				body
			</xsl:element>
		</xsl:template>
		<xsl:template match="/"><xsl:apply-templates select="//e"/></xsl:template>
	`), `<r><e tag="item" n="7"/></r>`)
	if norm(out) != `<item id="v7"> body </item>` && norm(out) != `<item id="v7">body</item>` {
		t.Fatalf("element/attribute wrong: %q", norm(out))
	}
}

func TestCopyAndCopyOf(t *testing.T) {
	// Identity transformation via xsl:copy.
	identity := wrap(`
		<xsl:template match="@*|node()">
			<xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy>
		</xsl:template>
	`)
	in := `<a x="1"><b>text<c/></b><!--cm--></a>`
	out := transform(t, identity, in)
	if norm(out) != norm(in) {
		t.Fatalf("identity copy wrong:\n got %q\nwant %q", norm(out), norm(in))
	}
	// copy-of deep copies a selected subtree.
	out = transform(t, wrap(`
		<xsl:template match="/"><xsl:copy-of select="//b"/></xsl:template>
	`), in)
	if norm(out) != "<b>text<c/></b>" {
		t.Fatalf("copy-of wrong: %q", out)
	}
	// copy-of of a scalar emits text.
	out = transform(t, wrap(`
		<xsl:template match="/"><xsl:copy-of select="1 + 2"/></xsl:template>
	`), in)
	if norm(out) != "3" {
		t.Fatalf("copy-of scalar wrong: %q", out)
	}
}

func TestTextAndWhitespaceHandling(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="/">
			<xsl:text>  kept  </xsl:text>
		</xsl:template>
	`), `<r/>`)
	if out != "  kept  " {
		t.Fatalf("xsl:text wrong: %q", out)
	}
}

func TestCommentAndPIOutput(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="/">
			<xsl:comment>note <xsl:value-of select="name(r)"/></xsl:comment>
			<xsl:processing-instruction name="target">data</xsl:processing-instruction>
		</xsl:template>
	`), `<r/>`)
	if !strings.Contains(out, "<!--note r-->") || !strings.Contains(out, "<?target data?>") {
		t.Fatalf("comment/PI wrong: %q", out)
	}
}

func TestNumberInstruction(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="i"><xsl:number/>:<xsl:value-of select="."/><xsl:text> </xsl:text></xsl:template>
		<xsl:template match="/"><xsl:apply-templates select="//i"/></xsl:template>
	`), `<r><i>a</i><x/><i>b</i><i>c</i></r>`)
	if norm(out) != "1:a 2:b 3:c" {
		t.Fatalf("xsl:number wrong: %q", out)
	}
	out = transform(t, wrap(`
		<xsl:template match="/"><xsl:number value="2 * 21"/></xsl:template>
	`), `<r/>`)
	if norm(out) != "42" {
		t.Fatalf("xsl:number value wrong: %q", out)
	}
}

func TestVariableResultTreeFragment(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:template match="/">
			<xsl:variable name="rtf"><x>alpha</x><y>beta</y></xsl:variable>
			[<xsl:value-of select="$rtf"/>]
			<xsl:copy-of select="$rtf"/>
		</xsl:template>
	`), `<r/>`)
	if !strings.Contains(out, "[alphabeta]") || !strings.Contains(out, "<x>alpha</x><y>beta</y>") {
		t.Fatalf("RTF wrong: %q", out)
	}
}

func TestMessages(t *testing.T) {
	sheet := MustParseStylesheet(wrap(`
		<xsl:template match="/"><xsl:message>saw <xsl:value-of select="name(*)"/></xsl:message>ok</xsl:template>
	`))
	doc, _ := xmltree.Parse(`<root/>`)
	eng := New(sheet)
	out, err := eng.TransformToString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if out != "ok" || len(eng.Messages) != 1 || eng.Messages[0] != "saw root" {
		t.Fatalf("message wrong: out=%q msgs=%v", out, eng.Messages)
	}
	// terminate="yes" aborts.
	sheet2 := MustParseStylesheet(wrap(`
		<xsl:template match="/"><xsl:message terminate="yes">fatal</xsl:message></xsl:template>
	`))
	if _, err := New(sheet2).TransformToString(doc); err == nil {
		t.Fatal("terminate should abort")
	}
}

func TestInfiniteRecursionCaught(t *testing.T) {
	sheet := MustParseStylesheet(wrap(`
		<xsl:template name="loop"><xsl:call-template name="loop"/></xsl:template>
		<xsl:template match="/"><xsl:call-template name="loop"/></xsl:template>
	`))
	doc, _ := xmltree.Parse(`<r/>`)
	if _, err := New(sheet).TransformToString(doc); err == nil {
		t.Fatal("infinite recursion should be caught")
	}
}

func TestRecursiveTemplateTerminates(t *testing.T) {
	// A legitimate recursive walk over a nested list.
	out := transform(t, wrap(`
		<xsl:template match="item"><i><xsl:value-of select="@v"/><xsl:apply-templates select="item"/></i></xsl:template>
		<xsl:template match="/"><xsl:apply-templates select="/item"/></xsl:template>
	`), `<item v="1"><item v="2"><item v="3"/></item></item>`)
	if norm(out) != "<i>1<i>2<i>3</i></i></i>" {
		t.Fatalf("recursion wrong: %q", out)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`<notstylesheet/>`,
		wrap(`<xsl:template>no match or name</xsl:template>`),
		wrap(`<xsl:template match="][">bad</xsl:template>`),
		wrap(`<xsl:template match="/"><xsl:value-of/></xsl:template>`),
		wrap(`<xsl:template match="/"><xsl:if>no test</xsl:if></xsl:template>`),
		wrap(`<xsl:template match="/"><xsl:choose><xsl:otherwise/></xsl:choose></xsl:template>`),
		wrap(`<xsl:template match="/"><xsl:unknown/></xsl:template>`),
		wrap(`<xsl:template match="/"><xsl:call-template/></xsl:template>`),
		wrap(`<xsl:import href="x"/>`),
		wrap(`<xsl:template match="/" priority="abc">x</xsl:template>`),
	}
	for _, src := range bad {
		if _, err := ParseStylesheet(src); err == nil {
			t.Errorf("ParseStylesheet should fail for %q", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	doc, _ := xmltree.Parse(`<r/>`)
	// Unknown named template.
	sheet := MustParseStylesheet(wrap(`<xsl:template match="/"><xsl:call-template name="missing"/></xsl:template>`))
	if _, err := New(sheet).TransformToString(doc); err == nil {
		t.Fatal("missing named template should error")
	}
	// Undefined variable.
	sheet = MustParseStylesheet(wrap(`<xsl:template match="/"><xsl:value-of select="$nope"/></xsl:template>`))
	if _, err := New(sheet).TransformToString(doc); err == nil {
		t.Fatal("undefined variable should error")
	}
	// Attribute after content.
	sheet = MustParseStylesheet(wrap(`<xsl:template match="/"><e>txt<xsl:attribute name="late">v</xsl:attribute></e></xsl:template>`))
	if _, err := New(sheet).TransformToString(doc); err == nil {
		t.Fatal("attribute after content should error")
	}
}

func TestUnionMatchExpansion(t *testing.T) {
	sheet := MustParseStylesheet(wrap(`<xsl:template match="a | b">x</xsl:template>`))
	if len(sheet.Templates) != 2 {
		t.Fatalf("union should expand to 2 templates, got %d", len(sheet.Templates))
	}
	out := transform(t, wrap(`
		<xsl:template match="a | b">[<xsl:value-of select="name()"/>]</xsl:template>
		<xsl:template match="/"><xsl:apply-templates select="//a | //b"/></xsl:template>
	`), `<r><a/><b/></r>`)
	if norm(out) != "[a][b]" {
		t.Fatalf("union match wrong: %q", out)
	}
}

func TestModeScopedBuiltins(t *testing.T) {
	// Built-in rules preserve the current mode while descending.
	out := transform(t, wrap(`
		<xsl:template match="/"><xsl:apply-templates mode="m"/></xsl:template>
		<xsl:template match="deep" mode="m">FOUND</xsl:template>
	`), `<r><mid><deep/></mid></r>`)
	if norm(out) != "FOUND" {
		t.Fatalf("mode propagation through builtins wrong: %q", out)
	}
}

func TestGlobalParamOverridableLocally(t *testing.T) {
	out := transform(t, wrap(`
		<xsl:param name="threshold" select="2000"/>
		<xsl:template match="/"><xsl:value-of select="count(//sal[. > $threshold])"/></xsl:template>
	`), PaperDeptRow1)
	if norm(out) != "1" {
		t.Fatalf("global param wrong: %q", out)
	}
}

func TestOutputMethodParsed(t *testing.T) {
	sheet := MustParseStylesheet(wrap(`<xsl:output method="html"/><xsl:template match="/">x</xsl:template>`))
	if sheet.OutputMethod != "html" {
		t.Fatalf("OutputMethod = %q", sheet.OutputMethod)
	}
}

// TestXslKeyLookup exercises xsl:key + key(): group employees by region.
func TestXslKeyLookup(t *testing.T) {
	sheet := wrap(`
		<xsl:key name="by-region" match="emp" use="region"/>
		<xsl:template match="/">
			<east><xsl:for-each select="key('by-region', 'EAST')"><e><xsl:value-of select="name"/></e></xsl:for-each></east>
			<west n="{count(key('by-region', 'WEST'))}"/>
		</xsl:template>
	`)
	in := `<staff>` +
		`<emp><name>A</name><region>EAST</region></emp>` +
		`<emp><name>B</name><region>WEST</region></emp>` +
		`<emp><name>C</name><region>EAST</region></emp>` +
		`</staff>`
	out := transform(t, sheet, in)
	if norm(out) != `<east><e>A</e><e>C</e></east><west n="1"/>` {
		t.Fatalf("key lookup wrong: %q", norm(out))
	}
}

func TestXslKeyNodeSetValue(t *testing.T) {
	// key() with a node-set value argument unions the lookups.
	sheet := wrap(`
		<xsl:key name="k" match="item" use="@cat"/>
		<xsl:template match="/">
			<xsl:for-each select="key('k', //want)"><i><xsl:value-of select="."/></i></xsl:for-each>
		</xsl:template>
	`)
	in := `<r><item cat="a">1</item><item cat="b">2</item><item cat="c">3</item><want>a</want><want>c</want></r>`
	out := transform(t, sheet, in)
	if norm(out) != "<i>1</i><i>3</i>" {
		t.Fatalf("node-set key value wrong: %q", out)
	}
}

func TestXslKeyErrors(t *testing.T) {
	// Unknown key name is a runtime error.
	sheet := MustParseStylesheet(wrap(`<xsl:template match="/"><xsl:value-of select="count(key('nope', 'x'))"/></xsl:template>`))
	doc, _ := xmltree.Parse(`<r/>`)
	if _, err := New(sheet).TransformToString(doc); err == nil {
		t.Fatal("unknown key should error")
	}
	// Malformed declarations are compile errors.
	for _, bad := range []string{
		wrap(`<xsl:key match="x" use="."/>`),
		wrap(`<xsl:key name="k" use="."/>`),
		wrap(`<xsl:key name="k" match="x"/>`),
		wrap(`<xsl:key name="k" match="][" use="."/>`),
		wrap(`<xsl:key name="k" match="x" use="]["/>`),
	} {
		if _, err := ParseStylesheet(bad); err == nil {
			t.Errorf("ParseStylesheet should reject %q", bad)
		}
	}
}

func TestGenerateID(t *testing.T) {
	sheet := wrap(`
		<xsl:template match="/">
			<a><xsl:value-of select="generate-id(//x) = generate-id(//x)"/></a>
			<b><xsl:value-of select="generate-id(//x) = generate-id(//y)"/></b>
			<c><xsl:value-of select="string-length(generate-id()) > 0"/></c>
		</xsl:template>
	`)
	out := transform(t, sheet, `<r><x/><y/></r>`)
	if norm(out) != "<a>true</a><b>false</b><c>true</c>" {
		t.Fatalf("generate-id wrong: %q", out)
	}
}

// TestStripSpace exercises xsl:strip-space / xsl:preserve-space: with
// strip-space="*", whitespace-formatted input produces the same output as
// compact input.
func TestStripSpace(t *testing.T) {
	sheet := wrap(`
		<xsl:strip-space elements="*"/>
		<xsl:preserve-space elements="keep"/>
		<xsl:template match="text()"><t><xsl:value-of select="."/></t></xsl:template>
	`)
	out := transform(t, sheet, "<r>\n  <a>x</a>\n  <keep>  </keep>\n</r>")
	// Whitespace under r is stripped; "x" and keep's spaces survive.
	if out != "<t>x</t><t>  </t>" {
		t.Fatalf("strip-space wrong: %q", out)
	}
	// Named strip list.
	sheet2 := wrap(`
		<xsl:strip-space elements="r"/>
		<xsl:template match="text()"><t><xsl:value-of select="."/></t></xsl:template>
	`)
	out2 := transform(t, sheet2, "<r>\n<a> </a>\n</r>")
	if out2 != "<t> </t>" {
		t.Fatalf("named strip wrong: %q", out2)
	}
	// The input document itself must not be mutated.
	doc, _ := xmltree.Parse("<r>\n<a>x</a>\n</r>")
	s := MustParseStylesheet(sheet)
	if _, err := New(s).Transform(doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.DocumentElement().Children) != 3 {
		t.Fatal("source document was mutated by strip-space")
	}
	// Missing elements attribute is a compile error.
	if _, err := ParseStylesheet(wrap(`<xsl:strip-space/>`)); err == nil {
		t.Fatal("strip-space without elements should fail")
	}
}

// TestStripSpaceAlignsWithRewrite: with strip-space="*", the functional
// baseline over whitespace-formatted input equals the output over compact
// input — exactly what the schema-specialized rewrite assumes.
func TestStripSpaceAlignsWithRewrite(t *testing.T) {
	stripSheet := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:strip-space elements="*"/>` + PaperStylesheet[len(`<?xml version="1.0"?><xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">`):]
	formatted := transform(t, stripSheet, PaperDeptRow1) // input has newlines
	compactIn := norm(PaperDeptRow1)
	compact := transform(t, stripSheet, compactIn)
	if formatted != compact {
		t.Fatalf("strip-space should make formatting irrelevant:\n a: %q\n b: %q", formatted, compact)
	}
}

// TestXslInclude exercises xsl:include with a resolver: included templates
// merge at the inclusion point and nested includes work; cycles fail.
func TestXslInclude(t *testing.T) {
	library := map[string]string{
		"rows.xsl": wrap(`<xsl:template match="row"><r><xsl:value-of select="."/></r></xsl:template>`),
		"nested.xsl": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
			<xsl:include href="rows.xsl"/>
			<xsl:template match="extra"><e/></xsl:template>
		</xsl:stylesheet>`,
		"cycle.xsl": `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
			<xsl:include href="cycle.xsl"/>
		</xsl:stylesheet>`,
	}
	resolve := func(href string) (string, error) {
		src, ok := library[href]
		if !ok {
			return "", fmt.Errorf("no %q", href)
		}
		return src, nil
	}
	main := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		<xsl:include href="nested.xsl"/>
		<xsl:template match="table"><out><xsl:apply-templates select="row"/></out></xsl:template>
	</xsl:stylesheet>`
	sheet, err := ParseStylesheetWithResolver(main, resolve)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmltree.Parse(`<table><row>1</row><row>2</row></table>`)
	out, err := New(sheet).TransformToString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if norm(out) != "<out><r>1</r><r>2</r></out>" {
		t.Fatalf("include wrong: %q", out)
	}
	// Cycles are rejected.
	cyclic := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:include href="cycle.xsl"/></xsl:stylesheet>`
	if _, err := ParseStylesheetWithResolver(cyclic, resolve); err == nil {
		t.Fatal("inclusion cycle should fail")
	}
	// Missing resolver / unknown href fail.
	if _, err := ParseStylesheet(main); err == nil {
		t.Fatal("include without resolver should fail")
	}
	bad := `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform"><xsl:include href="zzz.xsl"/></xsl:stylesheet>`
	if _, err := ParseStylesheetWithResolver(bad, resolve); err == nil {
		t.Fatal("unknown href should fail")
	}
}

// TestTraceEvents runs the paper's Example 1 with the Trace hook set and
// checks the observed template activations, the raw material of the partial
// evaluator's execution graph (§4.3).
func TestTraceEvents(t *testing.T) {
	sheet := MustParseStylesheet(PaperStylesheet)
	// Number the apply-templates instructions in document order, as the
	// partial evaluator does: <xsl:apply-templates/> in dept is 0, the emp
	// selection in employees is 1.
	next := 0
	var number func([]Instruction)
	number = func(body []Instruction) {
		for _, instr := range body {
			switch in := instr.(type) {
			case *ApplyTemplates:
				in.TraceID = next
				next++
			case *LiteralElement:
				number(in.Body)
			}
		}
	}
	for _, tm := range sheet.Templates {
		number(tm.Body)
	}
	if next != 2 {
		t.Fatalf("numbered %d apply-templates, want 2", next)
	}

	eng := New(sheet)
	var events []TraceEvent
	eng.Trace = func(ev TraceEvent) { events = append(events, ev) }
	doc, err := xmltree.Parse(PaperDeptRow1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Transform(doc); err != nil {
		t.Fatal(err)
	}
	byMatch := map[string]int{}
	rootBuiltin, empID := false, -2
	for _, ev := range events {
		if ev.Builtin {
			if ev.Node.Kind == xmltree.DocumentNode && ev.TraceID == -1 {
				rootBuiltin = true
			}
			continue
		}
		byMatch[ev.Template.MatchSrc]++
		if ev.Template.MatchSrc == "emp" {
			empID = ev.TraceID
		}
	}
	for _, m := range []string{"dept", "dname", "loc", "employees", "emp"} { // only CLARK passes sal > 2000
		if byMatch[m] != 1 {
			t.Fatalf("activations = %v, want one each of dept, dname, loc, employees, emp", byMatch)
		}
	}
	if !rootBuiltin {
		t.Fatal("expected a built-in activation for the document root")
	}
	if empID != 1 {
		t.Fatalf("emp activation attributed to trace id %d, want 1 (the second apply-templates)", empID)
	}
}
