package xslt

import (
	"fmt"

	"repro/internal/xmltree"
)

// OutputBuilder accumulates a result tree. The root is a document node
// used as a fragment container; OpenElement/CloseElement maintain the
// current insertion point.
type OutputBuilder struct {
	root  *xmltree.Node
	stack []*xmltree.Node
}

// NewOutputBuilder returns an empty builder.
func NewOutputBuilder() *OutputBuilder {
	root := xmltree.NewDocument()
	return &OutputBuilder{root: root, stack: []*xmltree.Node{root}}
}

// Current returns the current insertion parent.
func (b *OutputBuilder) Current() *xmltree.Node { return b.stack[len(b.stack)-1] }

// OpenElement appends a new element and makes it the insertion point.
func (b *OutputBuilder) OpenElement(qname string) {
	el := xmltree.NewElement(qname)
	cur := b.Current()
	el.Parent = cur
	cur.Children = append(cur.Children, el)
	b.stack = append(b.stack, el)
}

// CloseElement pops the insertion point.
func (b *OutputBuilder) CloseElement() {
	if len(b.stack) > 1 {
		b.stack = b.stack[:len(b.stack)-1]
	}
}

// Text appends character data, merging with a preceding text node so the
// result tree never contains adjacent text nodes.
func (b *OutputBuilder) Text(data string) {
	if data == "" {
		return
	}
	cur := b.Current()
	if n := len(cur.Children); n > 0 && cur.Children[n-1].Kind == xmltree.TextNode {
		cur.Children[n-1].Data += data
		return
	}
	t := xmltree.NewText(data)
	t.Parent = cur
	cur.Children = append(cur.Children, t)
}

// Attr adds an attribute to the currently open element. Per XSLT 1.0 it is
// an error to add an attribute after children have been written.
func (b *OutputBuilder) Attr(qname, value string) error {
	cur := b.Current()
	if cur.Kind != xmltree.ElementNode {
		return fmt.Errorf("cannot add attribute %q outside an element", qname)
	}
	if len(cur.Children) > 0 {
		return fmt.Errorf("cannot add attribute %q after child content", qname)
	}
	cur.SetAttr(qname, value)
	return nil
}

// Comment appends a comment node.
func (b *OutputBuilder) Comment(data string) {
	c := xmltree.NewComment(data)
	cur := b.Current()
	c.Parent = cur
	cur.Children = append(cur.Children, c)
}

// PI appends a processing-instruction node.
func (b *OutputBuilder) PI(target, data string) {
	p := xmltree.NewProcInst(target, data)
	cur := b.Current()
	p.Parent = cur
	cur.Children = append(cur.Children, p)
}

// CopyNode deep-copies a source node into the output (xsl:copy-of).
func (b *OutputBuilder) CopyNode(n *xmltree.Node) {
	switch n.Kind {
	case xmltree.DocumentNode:
		for _, c := range n.Children {
			b.CopyNode(c)
		}
	case xmltree.AttributeNode:
		_ = b.Attr(n.QName(), n.Data)
	case xmltree.TextNode:
		b.Text(n.Data)
	default:
		cp := n.Clone()
		cur := b.Current()
		cp.Parent = cur
		cur.Children = append(cur.Children, cp)
	}
}

// Finish returns the fragment root and resets the insertion stack.
func (b *OutputBuilder) Finish() *xmltree.Node {
	b.stack = b.stack[:1]
	return b.root
}
