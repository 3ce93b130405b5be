package xmltree

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return doc
}

func TestQName(t *testing.T) {
	e := NewElement("xsl:template")
	if e.Prefix != "xsl" || e.Name != "template" {
		t.Fatalf("got prefix=%q name=%q", e.Prefix, e.Name)
	}
	if e.QName() != "xsl:template" {
		t.Fatalf("QName = %q", e.QName())
	}
	if NewElement("dept").QName() != "dept" {
		t.Fatal("unprefixed QName wrong")
	}
}

func TestAppendChildAndStringValue(t *testing.T) {
	root := NewElement("dept")
	name := NewElement("dname")
	name.AppendChild(NewText("ACCOUNTING"))
	root.AppendChild(name)
	loc := NewElement("loc")
	loc.AppendChild(NewText("NEW YORK"))
	root.AppendChild(loc)

	if got := root.StringValue(); got != "ACCOUNTINGNEW YORK" {
		t.Fatalf("StringValue = %q", got)
	}
	if name.Parent != root {
		t.Fatal("parent link not set")
	}
}

func TestAppendChildCopiesAttachedNodes(t *testing.T) {
	a := NewElement("a")
	child := NewElement("c")
	a.AppendChild(child)
	b := NewElement("b")
	b.AppendChild(child) // child already attached: must be cloned
	if a.Children[0] == b.Children[0] {
		t.Fatal("attached node was moved, not copied")
	}
	if len(a.Children) != 1 {
		t.Fatal("source tree mutated")
	}
}

func TestAppendDocumentSplices(t *testing.T) {
	doc := NewDocument()
	doc.AppendChild(NewElement("x"))
	doc.AppendChild(NewComment("c"))
	target := NewElement("wrap")
	target.AppendChild(doc)
	if len(target.Children) != 2 {
		t.Fatalf("expected spliced children, got %d", len(target.Children))
	}
	if target.Children[0].Kind != ElementNode || target.Children[1].Kind != CommentNode {
		t.Fatal("spliced children wrong kinds")
	}
}

func TestSetAttrReplaces(t *testing.T) {
	e := NewElement("td")
	e.SetAttr("border", "1")
	e.SetAttr("border", "2")
	if len(e.Attrs) != 1 {
		t.Fatalf("expected 1 attr, got %d", len(e.Attrs))
	}
	if v, _ := e.Attr("border"); v != "2" {
		t.Fatalf("attr = %q", v)
	}
	if _, ok := e.Attr("missing"); ok {
		t.Fatal("missing attribute reported present")
	}
}

func TestCloneIsDeep(t *testing.T) {
	doc := mustParse(t, `<a x="1"><b>hello</b></a>`)
	orig := doc.DocumentElement()
	cp := orig.Clone()
	cp.Children[0].Children[0].Data = "changed"
	cp.Attrs[0].Data = "9"
	if orig.StringValue() != "hello" {
		t.Fatal("clone shares text storage")
	}
	if v, _ := orig.Attr("x"); v != "1" {
		t.Fatal("clone shares attr storage")
	}
	if cp.Parent != nil {
		t.Fatal("clone should be detached")
	}
}

func TestDocumentOrderCompare(t *testing.T) {
	doc := mustParse(t, `<r><a><a1/></a><b y="2"/><c/></r>`)
	r := doc.DocumentElement()
	a := r.Children[0]
	a1 := a.Children[0]
	b := r.Children[1]
	c := r.Children[2]

	cases := []struct {
		x, y *Node
		want int
	}{
		{a, b, -1}, {b, a, 1}, {a, a, 0},
		{a, a1, -1},  // ancestor before descendant
		{a1, b, -1},  // descendant of earlier sibling before later sibling
		{doc, c, -1}, // root before everything
	}
	for i, tc := range cases {
		if got := CompareOrder(tc.x, tc.y); got != tc.want {
			t.Errorf("case %d: CompareOrder = %d, want %d", i, got, tc.want)
		}
	}
	// Attribute sorts after its element but before the element's children.
	attr := b.Attrs[0]
	if CompareOrder(b, attr) != -1 || CompareOrder(attr, c) != -1 {
		t.Fatal("attribute ordering wrong")
	}
}

func TestSortDocOrderDedups(t *testing.T) {
	doc := mustParse(t, `<r><a/><b/><c/></r>`)
	r := doc.DocumentElement()
	a, b, c := r.Children[0], r.Children[1], r.Children[2]
	got := SortDocOrder([]*Node{c, a, b, a, c})
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("SortDocOrder wrong: %v", got)
	}
}

func TestElementsByName(t *testing.T) {
	doc := mustParse(t, `<depts><dept><emp/><emp/></dept><dept><emp/></dept></depts>`)
	if got := len(doc.ElementsByName("emp")); got != 3 {
		t.Fatalf("found %d emp elements, want 3", got)
	}
	if got := len(doc.ElementsByName("dept")); got != 2 {
		t.Fatalf("found %d dept elements, want 2", got)
	}
}

func TestChildElementHelpers(t *testing.T) {
	doc := mustParse(t, `<dept><dname>X</dname><loc>Y</loc><loc>Z</loc></dept>`)
	d := doc.DocumentElement()
	if d.FirstChildElement("loc").StringValue() != "Y" {
		t.Fatal("FirstChildElement wrong")
	}
	if d.FirstChildElement("nope") != nil {
		t.Fatal("FirstChildElement should return nil for absent name")
	}
	if len(d.ChildElements("loc")) != 2 || len(d.ChildElements("")) != 3 {
		t.Fatal("ChildElements counts wrong")
	}
}

func TestRenumberAssignsMonotonicOrder(t *testing.T) {
	// Build a tree out of order, then renumber.
	r := NewElement("r")
	c2 := NewElement("c2")
	c1 := NewElement("c1")
	r.Children = append(r.Children, c1, c2)
	c1.Parent, c2.Parent = r, r
	r.Renumber()
	if !(r.Ord() < c1.Ord() && c1.Ord() < c2.Ord()) {
		t.Fatalf("ords not monotonic: %d %d %d", r.Ord(), c1.Ord(), c2.Ord())
	}
}

func TestStringValueKinds(t *testing.T) {
	doc := mustParse(t, `<r a="av"><!--cm--><?pi pd?>t1<e>t2</e></r>`)
	r := doc.DocumentElement()
	if r.StringValue() != "t1t2" {
		t.Fatalf("element string value = %q", r.StringValue())
	}
	if doc.StringValue() != "t1t2" {
		t.Fatalf("document string value = %q", doc.StringValue())
	}
	if r.Attrs[0].StringValue() != "av" {
		t.Fatal("attribute string value wrong")
	}
	var comment, pi *Node
	for _, c := range r.Children {
		switch c.Kind {
		case CommentNode:
			comment = c
		case ProcInstNode:
			pi = c
		}
	}
	if comment.StringValue() != "cm" || pi.StringValue() != "pd" {
		t.Fatal("comment/PI string values wrong")
	}
}

func TestRootAndDocument(t *testing.T) {
	doc := mustParse(t, `<a><b/></a>`)
	b := doc.DocumentElement().Children[0]
	if b.Root() != doc || b.Document() != doc {
		t.Fatal("Root/Document wrong for attached node")
	}
	free := NewElement("free")
	if free.Document() != nil {
		t.Fatal("detached fragment should have nil Document")
	}
	if free.Root() != free {
		t.Fatal("detached root should be itself")
	}
}

func TestEscaping(t *testing.T) {
	if EscapeText(`a<b>&c`) != "a&lt;b&gt;&amp;c" {
		t.Fatal("EscapeText wrong")
	}
	if !strings.Contains(EscapeAttr(`say "hi"`), "&quot;") {
		t.Fatal("EscapeAttr must escape quotes")
	}
}

// TestAppendEscapeMatchesEscape: the append forms print exactly what the
// string forms print, after whatever dst already holds, and a value with
// nothing to escape costs no allocation beyond dst's growth.
func TestAppendEscapeMatchesEscape(t *testing.T) {
	for _, s := range []string{
		"", "plain", `a<b>&c`, `say "hi"`, "line\nbreak\ttab", "&&&", `<`, `"`, "trailing&",
		"ünïcödé 日本語 🙂 <&>", "\r\n", "\xff\xfe<", `]]>`, `&amp;`,
	} {
		if got := string(AppendEscapeText([]byte("pre"), s)); got != "pre"+EscapeText(s) {
			t.Errorf("AppendEscapeText(%q) = %q, want %q", s, got, "pre"+EscapeText(s))
		}
		if got := string(AppendEscapeAttr([]byte("pre"), s)); got != "pre"+EscapeAttr(s) {
			t.Errorf("AppendEscapeAttr(%q) = %q, want %q", s, got, "pre"+EscapeAttr(s))
		}
	}
	dst := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { dst = AppendEscapeAttr(dst[:0], "nothing to escape here") }); n != 0 {
		t.Errorf("AppendEscapeAttr allocated %.0f times into a buffer with room", n)
	}
}
