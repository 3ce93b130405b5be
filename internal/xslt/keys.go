package xslt

import (
	"fmt"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// RuntimeFuncs resolves the XSLT extension functions the XPath engine does
// not know natively: key() over xsl:key declarations and generate-id().
// One instance serves a whole transformation; key tables build lazily per
// document root.
type RuntimeFuncs struct {
	sheet *Stylesheet
	// Optimistic makes key() return every node matching the key's pattern
	// regardless of the requested value — the partial evaluator's
	// conservative stance for value-dependent lookups (§4.3).
	Optimistic bool

	tables map[*xmltree.Node]map[string]map[string]xpath.NodeSet
}

// NewRuntimeFuncs returns a resolver for the stylesheet.
func NewRuntimeFuncs(sheet *Stylesheet) *RuntimeFuncs {
	return &RuntimeFuncs{sheet: sheet, tables: map[*xmltree.Node]map[string]map[string]xpath.NodeSet{}}
}

// Resolve implements the xpath.Context.Funcs hook.
func (r *RuntimeFuncs) Resolve(name string) (xpath.Function, bool) {
	switch name {
	case "key":
		return r.keyFunc, true
	case "generate-id":
		return generateID, true
	}
	return nil, false
}

// generateID returns a document-stable identifier for the node (the
// argument, or the context node). Identifiers are unique within a document
// after parsing/Renumber.
func generateID(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	n := ctx.Node
	if len(args) == 1 {
		ns, err := xpath.ToNodeSet(args[0])
		if err != nil {
			return nil, err
		}
		if len(ns) == 0 {
			return "", nil
		}
		n = ns[0]
	} else if len(args) > 1 {
		return nil, fmt.Errorf("xslt: generate-id() takes at most one argument")
	}
	return fmt.Sprintf("id%d", n.Ord()), nil
}

// keyFunc implements key(name, value).
func (r *RuntimeFuncs) keyFunc(ctx *xpath.Context, args []xpath.Value) (xpath.Value, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("xslt: key() takes exactly two arguments")
	}
	name := xpath.ToString(args[0])
	root := ctx.Node.Root()
	table, err := r.tableFor(root, name)
	if err != nil {
		return nil, err
	}
	if r.Optimistic {
		// Conservative PE semantics: any value might match; return the
		// union of all indexed nodes.
		var all xpath.NodeSet
		for _, ns := range table {
			all = append(all, ns...)
		}
		return xpath.NodeSet(xmltree.SortDocOrder(all)), nil
	}
	var out xpath.NodeSet
	if vs, ok := args[1].(xpath.NodeSet); ok {
		for _, v := range vs {
			out = append(out, table[v.StringValue()]...)
		}
	} else {
		out = append(out, table[xpath.ToString(args[1])]...)
	}
	return xpath.NodeSet(xmltree.SortDocOrder(out)), nil
}

// tableFor builds (or returns) the key table of one document.
func (r *RuntimeFuncs) tableFor(root *xmltree.Node, name string) (map[string]xpath.NodeSet, error) {
	perDoc, ok := r.tables[root]
	if !ok {
		perDoc = map[string]map[string]xpath.NodeSet{}
		r.tables[root] = perDoc
	}
	if t, ok := perDoc[name]; ok {
		return t, nil
	}
	var def *KeyDef
	for _, k := range r.sheet.Keys {
		if k.Name == name {
			def = k
			break
		}
	}
	if def == nil {
		return nil, fmt.Errorf("xslt: no xsl:key named %q", name)
	}
	table := map[string]xpath.NodeSet{}
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		consider := func(c *xmltree.Node) error {
			match, err := def.Match.Matches(c, nil)
			if err != nil {
				return err
			}
			if !match {
				return nil
			}
			v, err := xpath.Eval(def.Use, &xpath.Context{Node: c, Position: 1, Size: 1, Funcs: r.Resolve})
			if err != nil {
				return err
			}
			if ns, ok := v.(xpath.NodeSet); ok {
				for _, u := range ns {
					key := u.StringValue()
					table[key] = append(table[key], c)
				}
				return nil
			}
			key := xpath.ToString(v)
			table[key] = append(table[key], c)
			return nil
		}
		if err := consider(n); err != nil {
			return err
		}
		for _, a := range n.Attrs {
			if err := consider(a); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	perDoc[name] = table
	return table, nil
}

// StripSourceSpace applies the stylesheet's xsl:strip-space /
// xsl:preserve-space declarations to a source document, per XSLT 1.0 §3.4:
// whitespace-only text nodes whose parent element is in the strip list (and
// not in the preserve list) are removed. The input is not modified; a
// stripped clone is returned, or the original when no stripping applies.
func (s *Stylesheet) StripSourceSpace(doc *xmltree.Node) *xmltree.Node {
	if len(s.StripSpace) == 0 {
		return doc
	}
	strip := map[string]bool{}
	stripAll := false
	for _, n := range s.StripSpace {
		if n == "*" {
			stripAll = true
		}
		strip[n] = true
	}
	preserve := map[string]bool{}
	for _, n := range s.PreserveSpace {
		preserve[n] = true
	}
	shouldStrip := func(parent *xmltree.Node) bool {
		if parent.Kind != xmltree.ElementNode && parent.Kind != xmltree.DocumentNode {
			return false
		}
		if preserve[parent.Name] || preserve["*"] && !strip[parent.Name] {
			return false
		}
		return stripAll || strip[parent.Name]
	}
	cp := doc.Clone()
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		kept := n.Children[:0]
		doStrip := shouldStrip(n)
		for _, c := range n.Children {
			if doStrip && c.Kind == xmltree.TextNode && isWhitespaceOnly(c.Data) {
				continue
			}
			walk(c)
			kept = append(kept, c)
		}
		n.Children = kept
	}
	walk(cp)
	cp.Renumber()
	return cp
}

func isWhitespaceOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}
