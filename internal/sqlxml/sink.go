package sqlxml

import (
	"repro/internal/xmltree"
)

// treeSink builds the xmltree a tree program constructs, under a document
// node. Between startAttr and endAttr every text call contributes to the
// attribute's value; elsewhere it is character content of the open element
// (or of the document, at top level).
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

func (t *treeSink) endElement() { t.cur = t.cur.Parent }

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
