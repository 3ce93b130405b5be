package sqlxml

import (
	"repro/internal/xmltree"
)

// treeSink builds the xmltree a tree program constructs, under a document
// node: open starts the document and close returns it, complete. Between
// startAttr and endAttr every text call contributes to the attribute's
// value; elsewhere it is character content of the open element (or of the
// document, at top level).
type treeSink struct {
	doc      *xmltree.Node
	cur      *xmltree.Node // node receiving children: the document or an open element
	inAttr   bool
	attrName string
	attrVal  string
	// merged, when set, is cur's last child: a text node whose character
	// data after its first part goes into merge, as bytes, until it stops
	// being the last child (settle) and takes them as its Data. So an
	// XMLAgg of a thousand text members appends each member once, where
	// string concatenation would copy the whole text a thousand times. A
	// text node of one part keeps that part's string, uncopied.
	merged *xmltree.Node
	merge  []byte
}

// open starts a new document, dropping whatever an unclosed one left.
func (t *treeSink) open() {
	doc := xmltree.NewDocument()
	*t = treeSink{doc: doc, cur: doc, merge: t.merge[:0]}
}

// close returns the document, numbered.
func (t *treeSink) close() *xmltree.Node {
	t.settle()
	doc := t.doc
	doc.Renumber()
	t.doc, t.cur = nil, nil
	return doc
}

func (t *treeSink) startElement(name string) {
	t.settle()
	el := xmltree.NewElement(name)
	el.Parent = t.cur
	t.cur.Children = append(t.cur.Children, el)
	t.cur = el
}

func (t *treeSink) endElement() {
	t.settle()
	t.cur = t.cur.Parent
}

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
	if t.merged != nil {
		t.merge = append(t.merge, s...)
		return
	}
	// Adjacent character data is one text node, as in the XDM.
	if n := len(t.cur.Children); n > 0 && t.cur.Children[n-1].Kind == xmltree.TextNode {
		t.merged = t.cur.Children[n-1]
		t.merge = append(append(t.merge[:0], t.merged.Data...), s...)
		return
	}
	tn := xmltree.NewText(s)
	tn.Parent = t.cur
	t.cur.Children = append(t.cur.Children, tn)
}

// settle gives the merged text node its Data: it is about to stop being
// cur's last child, or the document is closing.
func (t *treeSink) settle() {
	if t.merged != nil {
		t.merged.Data = string(t.merge)
		t.merged = nil
	}
}
