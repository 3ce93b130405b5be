package sqlxml

import (
	"repro/internal/xmltree"
)

// xmlSink receives the construction events of one XMLExpr walk
// (evalContext.eval). The walk is the single definition of what a SQL/XML
// expression produces; the sink decides the representation: treeSink builds
// the xmltree DOM the functional strategies consume, byteSink appends the
// serialized form directly — byte for byte what Node.Serialize would print
// for the tree, without the tree.
//
// Between startAttr and endAttr every text/number call contributes to the
// attribute's value; elsewhere it is character content of the open element
// (or of the document, at top level).
type xmlSink interface {
	startElement(name string)
	endElement(name string)
	startAttr(name string)
	endAttr()
	// text adds character data; the sink escapes it for its context.
	text(s string)
	// number adds a formatted numeric value, which never needs escaping.
	number(digits []byte)
}

// treeSink builds an xmltree under a document node.
type treeSink struct {
	cur      *xmltree.Node // node receiving children: the document or an open element
	inAttr   bool
	attrName string
	attrVal  string
}

func (t *treeSink) startElement(name string) {
	el := xmltree.NewElement(name)
	el.Parent = t.cur
	t.cur.Children = append(t.cur.Children, el)
	t.cur = el
}

func (t *treeSink) endElement(string) { t.cur = t.cur.Parent }

func (t *treeSink) startAttr(name string) { t.inAttr, t.attrName, t.attrVal = true, name, "" }

func (t *treeSink) endAttr() {
	t.cur.SetAttr(t.attrName, t.attrVal)
	t.inAttr = false
}

func (t *treeSink) text(s string) {
	if t.inAttr {
		t.attrVal += s // "" + s shares s: a single-part value is not copied
		return
	}
	if s == "" {
		return
	}
	// Adjacent character data is one text node, as in the XDM.
	if n := len(t.cur.Children); n > 0 && t.cur.Children[n-1].Kind == xmltree.TextNode {
		t.cur.Children[n-1].Data += s
		return
	}
	tn := xmltree.NewText(s)
	tn.Parent = t.cur
	t.cur.Children = append(t.cur.Children, tn)
}

func (t *treeSink) number(digits []byte) { t.text(string(digits)) }

// byteSink appends the serialized XML to buf. A start tag is left without
// its '>' until the element receives content, so an element that ends up
// with no children closes as "/>" exactly like the tree serializer's
// childless case — including elements whose only content was NULL columns
// or empty strings, which add no text node to a tree either.
type byteSink struct {
	buf    []byte
	open   bool // the innermost start tag is still missing its '>'
	inAttr bool
}

func (b *byteSink) closeStartTag() {
	if b.open {
		b.buf = append(b.buf, '>')
		b.open = false
	}
}

func (b *byteSink) startElement(name string) {
	b.closeStartTag()
	b.buf = append(b.buf, '<')
	b.buf = append(b.buf, serialName(name)...)
	b.open = true
}

func (b *byteSink) endElement(name string) {
	if b.open {
		b.buf = append(b.buf, '/', '>')
		b.open = false
		return
	}
	b.buf = append(b.buf, '<', '/')
	b.buf = append(b.buf, serialName(name)...)
	b.buf = append(b.buf, '>')
}

func (b *byteSink) startAttr(name string) {
	b.buf = append(b.buf, ' ')
	b.buf = append(b.buf, serialName(name)...)
	b.buf = append(b.buf, '=', '"')
	b.inAttr = true
}

func (b *byteSink) endAttr() {
	b.buf = append(b.buf, '"')
	b.inAttr = false
}

func (b *byteSink) text(s string) {
	if b.inAttr {
		b.buf = xmltree.AppendEscapeAttr(b.buf, s)
		return
	}
	if s == "" {
		return
	}
	b.closeStartTag()
	b.buf = xmltree.AppendEscapeText(b.buf, s)
}

func (b *byteSink) number(digits []byte) {
	if !b.inAttr {
		b.closeStartTag()
	}
	b.buf = append(b.buf, digits...)
}

// serialName is the name as the tree serializer prints it: a node stores
// (prefix, local) split at the first ':' and prints the prefix only when it
// is non-empty, so a leading ':' disappears.
func serialName(name string) string {
	if len(name) > 0 && name[0] == ':' {
		return name[1:]
	}
	return name
}
