package xmltree

import (
	"strings"
)

// SerializeOptions control how a tree is rendered back to XML text.
type SerializeOptions struct {
	// Indent, when non-empty, pretty-prints the output using the given
	// unit of indentation. Text content suppresses indentation inside its
	// parent element so mixed content round-trips unchanged.
	Indent string
	// OmitDecl suppresses the leading <?xml ...?> declaration that is
	// otherwise emitted for document nodes.
	OmitDecl bool
}

// String serializes the subtree rooted at n with default options
// (no indentation, declaration emitted for documents).
func (n *Node) String() string {
	var sb strings.Builder
	n.Serialize(&sb, SerializeOptions{})
	return sb.String()
}

// Pretty serializes the subtree with two-space indentation and no XML
// declaration; convenient for golden tests and examples.
func (n *Node) Pretty() string {
	var sb strings.Builder
	n.Serialize(&sb, SerializeOptions{Indent: "  ", OmitDecl: true})
	return sb.String()
}

// Serialize writes the subtree rooted at n to sb.
func (n *Node) Serialize(sb *strings.Builder, opts SerializeOptions) {
	s := serializer{sb: sb, opts: opts}
	if n.Kind == DocumentNode && !opts.OmitDecl {
		sb.WriteString(`<?xml version="1.0"?>`)
		if opts.Indent != "" {
			sb.WriteByte('\n')
		}
	}
	s.node(n, 0)
}

type serializer struct {
	sb   *strings.Builder
	opts SerializeOptions
}

func (s *serializer) indent(depth int) {
	if s.opts.Indent == "" {
		return
	}
	if s.sb.Len() > 0 {
		s.sb.WriteByte('\n')
	}
	for i := 0; i < depth; i++ {
		s.sb.WriteString(s.opts.Indent)
	}
}

// hasOnlyElementChildren reports whether pretty-printing may add whitespace
// inside this element without changing its string value.
func hasOnlyElementChildren(n *Node) bool {
	if len(n.Children) == 0 {
		return false
	}
	for _, c := range n.Children {
		switch c.Kind {
		case TextNode:
			return false
		}
	}
	return true
}

func (s *serializer) node(n *Node, depth int) {
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			s.node(c, depth)
		}
	case ElementNode:
		s.indent(depth)
		s.sb.WriteByte('<')
		s.sb.WriteString(n.QName())
		for _, a := range n.Attrs {
			s.sb.WriteByte(' ')
			s.sb.WriteString(a.QName())
			s.sb.WriteString(`="`)
			s.sb.WriteString(EscapeAttr(a.Data))
			s.sb.WriteByte('"')
		}
		if len(n.Children) == 0 {
			s.sb.WriteString("/>")
			return
		}
		s.sb.WriteByte('>')
		prettyInside := s.opts.Indent != "" && hasOnlyElementChildren(n)
		for _, c := range n.Children {
			if prettyInside {
				s.node(c, depth+1)
			} else {
				sub := serializer{sb: s.sb, opts: SerializeOptions{}}
				sub.node(c, 0)
			}
		}
		if prettyInside {
			s.indent(depth)
		}
		s.sb.WriteString("</")
		s.sb.WriteString(n.QName())
		s.sb.WriteByte('>')
	case TextNode:
		s.sb.WriteString(EscapeText(n.Data))
	case CommentNode:
		s.indent(depth)
		s.sb.WriteString("<!--")
		s.sb.WriteString(n.Data)
		s.sb.WriteString("-->")
	case ProcInstNode:
		s.indent(depth)
		s.sb.WriteString("<?")
		s.sb.WriteString(n.Name)
		if n.Data != "" {
			s.sb.WriteByte(' ')
			s.sb.WriteString(n.Data)
		}
		s.sb.WriteString("?>")
	case AttributeNode:
		s.sb.WriteString(n.QName())
		s.sb.WriteString(`="`)
		s.sb.WriteString(EscapeAttr(n.Data))
		s.sb.WriteByte('"')
	}
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\n", "&#10;", "\t", "&#9;")

// EscapeText escapes character data for use as element content.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes character data for use inside a double-quoted
// attribute value.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }

// AppendEscapeText appends s to dst escaped exactly as EscapeText would,
// without building the intermediate string: a value with nothing to escape
// costs one append. s may be bytes, which are escaped where they sit.
func AppendEscapeText[S ~string | ~[]byte](dst []byte, s S) []byte {
	return appendEscaped(dst, s, false)
}

// AppendEscapeAttr is the append form of EscapeAttr.
func AppendEscapeAttr[S ~string | ~[]byte](dst []byte, s S) []byte {
	return appendEscaped(dst, s, true)
}

// Escape classes, as EscapeClass reports them: which of the two escapers
// would change a string.
const (
	TextNeedsEscape = 1 << iota // EscapeText(s) != s: s holds '&', '<' or '>'
	AttrNeedsEscape             // EscapeAttr(s) != s: s holds one of those, '"', '\n' or '\t'
)

// escClass is the escape class of each byte.
var escClass = [256]uint8{
	'&': TextNeedsEscape | AttrNeedsEscape,
	'<': TextNeedsEscape | AttrNeedsEscape,
	'>': TextNeedsEscape | AttrNeedsEscape,
	'"': AttrNeedsEscape, '\n': AttrNeedsEscape, '\t': AttrNeedsEscape,
}

// EscapeClass reports which escapers would change s: TextNeedsEscape,
// AttrNeedsEscape, both or neither. Every string that needs escaping as
// text needs it as an attribute value too.
func EscapeClass[S ~string | ~[]byte](s S) uint8 {
	var c uint8
	for i := 0; i < len(s); i++ {
		c |= escClass[s[i]]
	}
	return c
}

func appendEscaped[S ~string | ~[]byte](dst []byte, s S, attr bool) []byte {
	class := uint8(TextNeedsEscape)
	if attr {
		class = AttrNeedsEscape
	}
	last := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if escClass[c]&class == 0 {
			continue
		}
		var esc string
		switch c {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		case '\n':
			esc = "&#10;"
		default: // '\t'
			esc = "&#9;"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}
