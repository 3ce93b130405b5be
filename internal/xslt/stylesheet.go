// Package xslt implements an XSLT 1.0 subset: stylesheet parsing and a
// functional (DOM-walking, template-matching) interpreter.
//
// The interpreter is the paper's "XSLT no rewrite" baseline: it views the
// input document as a tree and performs rule-based template matching at
// run time, exactly the execution model the XSLT-rewrite technique is
// designed to avoid. The rewriter in internal/core consumes the same
// Stylesheet model.
package xslt

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Namespace is the XSLT 1.0 namespace URI.
const Namespace = "http://www.w3.org/1999/XSL/Transform"

// Stylesheet is a parsed XSLT stylesheet.
type Stylesheet struct {
	Version string
	// OutputMethod is the method attribute of xsl:output ("xml", "html",
	// "text"), or "" when unspecified.
	OutputMethod string
	// Templates in document order. Union match patterns are expanded into
	// one Template per alternative, per XSLT 1.0 §5.5.
	Templates []*Template
	// GlobalVars holds top-level xsl:variable and xsl:param definitions in
	// document order.
	GlobalVars []*VarDef
	// Keys holds xsl:key declarations.
	Keys []*KeyDef
	// StripSpace and PreserveSpace hold the element-name lists of
	// xsl:strip-space / xsl:preserve-space ("*" matches all).
	StripSpace    []string
	PreserveSpace []string
	// Source is the original stylesheet text when parsed from text.
	Source string
}

// Template is one xsl:template rule.
type Template struct {
	// Match is the parsed match pattern; nil for named-only templates.
	Match    *xpath.Pattern
	MatchSrc string
	// Name is the template name for call-template, or "".
	Name string
	// Mode restricts the template to apply-templates invocations with the
	// same mode.
	Mode string
	// Priority is the resolved priority (explicit or default).
	Priority float64
	// Params are the xsl:param declarations at the start of the body.
	Params []*VarDef
	// Body is the sequence constructor.
	Body []Instruction
	// Index is the template's position in the stylesheet; later templates
	// win ties during conflict resolution.
	Index int
}

// String identifies the template for error messages and traces.
func (t *Template) String() string {
	switch {
	case t.MatchSrc != "" && t.Name != "":
		return fmt.Sprintf("template match=%q name=%q", t.MatchSrc, t.Name)
	case t.MatchSrc != "":
		return fmt.Sprintf("template match=%q", t.MatchSrc)
	default:
		return fmt.Sprintf("template name=%q", t.Name)
	}
}

// KeyDef is an xsl:key declaration: nodes matching Match are indexed under
// the string value(s) of Use.
type KeyDef struct {
	Name  string
	Match *xpath.Pattern
	Use   xpath.Expr
}

// VarDef is an xsl:variable, xsl:param or xsl:with-param definition.
// Exactly one of Select or Body provides the value; with neither, the value
// is the empty string.
type VarDef struct {
	Name   string
	Select xpath.Expr
	Body   []Instruction
	// IsParam distinguishes xsl:param (overridable) from xsl:variable.
	IsParam bool
}

// SortKey is an xsl:sort specification.
type SortKey struct {
	Select xpath.Expr // defaults to "."
	// Numeric selects data-type="number" comparison.
	Numeric bool
	// Descending selects order="descending".
	Descending bool
}

// Instruction is a node of a parsed sequence constructor.
type Instruction interface{ isInstruction() }

// LiteralElement is a literal result element with attribute value templates.
type LiteralElement struct {
	QName string // as written, e.g. "table" or "html:td"
	Attrs []LiteralAttr
	Body  []Instruction
}

// LiteralAttr is an attribute of a literal result element; its value is an
// attribute value template.
type LiteralAttr struct {
	QName string
	Value *AVT
}

// Text is literal text content.
type Text struct{ Data string }

// ValueOf is xsl:value-of.
type ValueOf struct{ Select xpath.Expr }

// ApplyTemplates is xsl:apply-templates.
type ApplyTemplates struct {
	// Select is nil for the default child::node().
	Select xpath.Expr
	Mode   string
	Sorts  []SortKey
	Params []*VarDef
	// TraceID numbers the instruction for Engine.Trace; the partial
	// evaluator assigns it (its trace table), and it is -1 when untraced.
	TraceID int
}

// CallTemplate is xsl:call-template.
type CallTemplate struct {
	Name   string
	Params []*VarDef
}

// ForEach is xsl:for-each.
type ForEach struct {
	Select xpath.Expr
	Sorts  []SortKey
	Body   []Instruction
}

// If is xsl:if.
type If struct {
	Test xpath.Expr
	Body []Instruction
}

// Choose is xsl:choose with its xsl:when branches and optional otherwise.
type Choose struct {
	Whens     []When
	Otherwise []Instruction
}

// When is one xsl:when branch.
type When struct {
	Test xpath.Expr
	Body []Instruction
}

// Copy is xsl:copy (shallow copy of the context node).
type Copy struct{ Body []Instruction }

// CopyOf is xsl:copy-of (deep copy of the selected value).
type CopyOf struct{ Select xpath.Expr }

// DeclareVar is xsl:variable or xsl:param inside a body.
type DeclareVar struct{ Def *VarDef }

// MakeElement is xsl:element with a computed (AVT) name.
type MakeElement struct {
	Name *AVT
	Body []Instruction
}

// MakeAttribute is xsl:attribute.
type MakeAttribute struct {
	Name *AVT
	Body []Instruction
}

// MakeText is xsl:text (text emitted verbatim, no whitespace stripping).
type MakeText struct{ Data string }

// MakeComment is xsl:comment.
type MakeComment struct{ Body []Instruction }

// MakePI is xsl:processing-instruction.
type MakePI struct {
	Name *AVT
	Body []Instruction
}

// NumberInstr is a simplified xsl:number: value= expression formatted as a
// decimal integer; without value=, the 1-based position of the context node
// among like-named siblings (level="single", default count).
type NumberInstr struct {
	Value xpath.Expr // may be nil
}

// Message is xsl:message; the interpreter collects messages rather than
// writing to stderr.
type Message struct {
	Body      []Instruction
	Terminate bool
}

func (*LiteralElement) isInstruction() {}
func (*Text) isInstruction()           {}
func (*ValueOf) isInstruction()        {}
func (*ApplyTemplates) isInstruction() {}
func (*CallTemplate) isInstruction()   {}
func (*ForEach) isInstruction()        {}
func (*If) isInstruction()             {}
func (*Choose) isInstruction()         {}
func (*Copy) isInstruction()           {}
func (*CopyOf) isInstruction()         {}
func (*DeclareVar) isInstruction()     {}
func (*MakeElement) isInstruction()    {}
func (*MakeAttribute) isInstruction()  {}
func (*MakeText) isInstruction()       {}
func (*MakeComment) isInstruction()    {}
func (*MakePI) isInstruction()         {}
func (*NumberInstr) isInstruction()    {}
func (*Message) isInstruction()        {}

// CompileError reports a static error in a stylesheet.
type CompileError struct {
	Element string
	Msg     string
}

func (e *CompileError) Error() string {
	if e.Element != "" {
		return fmt.Sprintf("xslt: <%s>: %s", e.Element, e.Msg)
	}
	return "xslt: " + e.Msg
}

func compileErrf(elem, format string, args ...any) error {
	return &CompileError{Element: elem, Msg: fmt.Sprintf(format, args...)}
}

// ParseStylesheet parses stylesheet text. xsl:include is rejected; use
// ParseStylesheetWithResolver to supply included documents.
func ParseStylesheet(src string) (*Stylesheet, error) {
	return ParseStylesheetWithResolver(src, nil)
}

// Resolver loads the text of an included stylesheet by href.
type Resolver func(href string) (string, error)

// ParseStylesheetWithResolver parses stylesheet text, splicing the
// top-level declarations of each xsl:include target in place (XSLT 1.0
// §2.6.1). Includes may nest; cycles are rejected.
func ParseStylesheetWithResolver(src string, resolve Resolver) (*Stylesheet, error) {
	doc, err := parseWithIncludes(src, resolve, map[string]bool{})
	if err != nil {
		return nil, err
	}
	sheet, err := FromDocument(doc)
	if err != nil {
		return nil, err
	}
	sheet.Source = src
	return sheet, nil
}

// parseWithIncludes parses one stylesheet document and splices includes.
func parseWithIncludes(src string, resolve Resolver, active map[string]bool) (*xmltree.Node, error) {
	doc, err := xmltree.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("xslt: stylesheet is not well-formed: %w", err)
	}
	root := doc.DocumentElement()
	if root == nil {
		return doc, nil
	}
	var merged []*xmltree.Node
	for _, child := range root.Children {
		if child.Kind == xmltree.ElementNode && child.NamespaceURI == Namespace && child.Name == "include" {
			href, ok := child.Attr("href")
			if !ok || href == "" {
				return nil, compileErrf("xsl:include", "missing href")
			}
			if resolve == nil {
				return nil, compileErrf("xsl:include", "no resolver supplied for %q", href)
			}
			if active[href] {
				return nil, compileErrf("xsl:include", "inclusion cycle through %q", href)
			}
			active[href] = true
			incSrc, err := resolve(href)
			if err != nil {
				return nil, compileErrf("xsl:include", "resolving %q: %v", href, err)
			}
			incDoc, err := parseWithIncludes(incSrc, resolve, active)
			if err != nil {
				return nil, fmt.Errorf("xslt: included %q: %w", href, err)
			}
			delete(active, href)
			incRoot := incDoc.DocumentElement()
			if incRoot == nil || incRoot.NamespaceURI != Namespace ||
				(incRoot.Name != "stylesheet" && incRoot.Name != "transform") {
				return nil, compileErrf("xsl:include", "%q is not a stylesheet", href)
			}
			for _, inc := range incRoot.Children {
				inc.Parent = root
				merged = append(merged, inc)
			}
			continue
		}
		merged = append(merged, child)
	}
	root.Children = merged
	doc.Renumber()
	return doc, nil
}

// FromDocument builds a Stylesheet from a parsed stylesheet document.
func FromDocument(doc *xmltree.Node) (*Stylesheet, error) {
	root := doc.DocumentElement()
	if root == nil {
		return nil, compileErrf("", "empty stylesheet document")
	}
	if root.NamespaceURI != Namespace || (root.Name != "stylesheet" && root.Name != "transform") {
		return nil, compileErrf(root.QName(), "root element must be xsl:stylesheet or xsl:transform")
	}
	sheet := &Stylesheet{Version: root.AttrValue("version")}

	for _, child := range root.Children {
		if child.Kind == xmltree.TextNode {
			if strings.TrimSpace(child.Data) != "" {
				return nil, compileErrf("xsl:stylesheet", "unexpected text at top level: %q", child.Data)
			}
			continue
		}
		if child.Kind != xmltree.ElementNode {
			continue
		}
		if child.NamespaceURI != Namespace {
			return nil, compileErrf(child.QName(), "non-XSLT element at stylesheet top level")
		}
		switch child.Name {
		case "template":
			if err := sheet.addTemplate(child); err != nil {
				return nil, err
			}
		case "output":
			sheet.OutputMethod = child.AttrValue("method")
		case "variable", "param":
			def, err := parseVarDef(child)
			if err != nil {
				return nil, err
			}
			sheet.GlobalVars = append(sheet.GlobalVars, def)
		case "key":
			kd, err := parseKeyDef(child)
			if err != nil {
				return nil, err
			}
			sheet.Keys = append(sheet.Keys, kd)
		case "strip-space", "preserve-space":
			names, ok := child.Attr("elements")
			if !ok {
				return nil, compileErrf("xsl:"+child.Name, "missing elements attribute")
			}
			list := strings.Fields(names)
			if child.Name == "strip-space" {
				sheet.StripSpace = append(sheet.StripSpace, list...)
			} else {
				sheet.PreserveSpace = append(sheet.PreserveSpace, list...)
			}
		case "decimal-format", "namespace-alias", "attribute-set", "import", "include":
			return nil, compileErrf("xsl:"+child.Name, "not supported by this implementation")
		default:
			return nil, compileErrf("xsl:"+child.Name, "unknown top-level element")
		}
	}
	if len(sheet.Templates) == 0 && len(sheet.GlobalVars) == 0 {
		// An empty stylesheet is legal: everything is handled by the
		// built-in templates (paper Table 20).
		_ = sheet
	}
	return sheet, nil
}

func parseKeyDef(el *xmltree.Node) (*KeyDef, error) {
	name, ok := el.Attr("name")
	if !ok || name == "" {
		return nil, compileErrf("xsl:key", "missing name")
	}
	matchSrc, ok := el.Attr("match")
	if !ok {
		return nil, compileErrf("xsl:key", "missing match")
	}
	pat, err := xpath.ParsePattern(matchSrc)
	if err != nil {
		return nil, compileErrf("xsl:key", "bad match %q: %v", matchSrc, err)
	}
	useSrc, ok := el.Attr("use")
	if !ok {
		return nil, compileErrf("xsl:key", "missing use")
	}
	use, err := xpath.Parse(useSrc)
	if err != nil {
		return nil, compileErrf("xsl:key", "bad use %q: %v", useSrc, err)
	}
	return &KeyDef{Name: name, Match: pat, Use: use}, nil
}

func (s *Stylesheet) addTemplate(el *xmltree.Node) error {
	matchSrc, hasMatch := el.Attr("match")
	name, hasName := el.Attr("name")
	if !hasMatch && !hasName {
		return compileErrf("xsl:template", "needs a match or name attribute")
	}
	mode := el.AttrValue("mode")

	var explicitPriority *float64
	if prio, ok := el.Attr("priority"); ok {
		p, err := strconv.ParseFloat(prio, 64)
		if err != nil {
			return compileErrf("xsl:template", "bad priority %q", prio)
		}
		explicitPriority = &p
	}

	params, body, err := parseTemplateBody(el)
	if err != nil {
		return err
	}

	if !hasMatch {
		s.Templates = append(s.Templates, &Template{
			Name: name, Mode: mode, Params: params, Body: body,
			Index: len(s.Templates),
		})
		return nil
	}

	pat, err := xpath.ParsePattern(matchSrc)
	if err != nil {
		return compileErrf("xsl:template", "bad match pattern %q: %v", matchSrc, err)
	}
	// Union patterns become one rule per alternative (same body).
	for _, alt := range pat.SplitUnion() {
		prio, err := alt.DefaultPriority()
		if err != nil {
			return compileErrf("xsl:template", "match pattern %q: %v", matchSrc, err)
		}
		if explicitPriority != nil {
			prio = *explicitPriority
		}
		s.Templates = append(s.Templates, &Template{
			Match: alt, MatchSrc: alt.String(), Name: name, Mode: mode,
			Priority: prio, Params: params, Body: body,
			Index: len(s.Templates),
		})
		name = "" // only the first alternative carries the name
	}
	return nil
}

// parseTemplateBody splits leading xsl:param declarations from the rest of
// the sequence constructor.
func parseTemplateBody(el *xmltree.Node) ([]*VarDef, []Instruction, error) {
	var params []*VarDef
	rest := make([]*xmltree.Node, 0, len(el.Children))
	inParams := true
	for _, c := range el.Children {
		if inParams && c.Kind == xmltree.ElementNode && c.NamespaceURI == Namespace && c.Name == "param" {
			def, err := parseVarDef(c)
			if err != nil {
				return nil, nil, err
			}
			def.IsParam = true
			params = append(params, def)
			continue
		}
		if c.Kind == xmltree.TextNode && strings.TrimSpace(c.Data) == "" && inParams {
			continue
		}
		inParams = false
		rest = append(rest, c)
	}
	body, err := parseSequence(rest)
	if err != nil {
		return nil, nil, err
	}
	return params, body, nil
}

func parseVarDef(el *xmltree.Node) (*VarDef, error) {
	name, ok := el.Attr("name")
	if !ok || name == "" {
		return nil, compileErrf("xsl:"+el.Name, "missing name attribute")
	}
	def := &VarDef{Name: name, IsParam: el.Name == "param"}
	if sel, ok := el.Attr("select"); ok {
		e, err := xpath.Parse(sel)
		if err != nil {
			return nil, compileErrf("xsl:"+el.Name, "bad select %q: %v", sel, err)
		}
		def.Select = e
		return def, nil
	}
	body, err := parseSequence(el.Children)
	if err != nil {
		return nil, err
	}
	def.Body = body
	return def, nil
}

// parseSequence compiles a list of content nodes into instructions.
// Whitespace-only text between instructions is stripped (the common
// xml:space="default" behaviour); text inside literal elements survives when
// it has any non-whitespace, and xsl:text always survives verbatim.
func parseSequence(nodes []*xmltree.Node) ([]Instruction, error) {
	var out []Instruction
	for _, n := range nodes {
		switch n.Kind {
		case xmltree.TextNode:
			if strings.TrimSpace(n.Data) == "" {
				continue
			}
			out = append(out, &Text{Data: n.Data})
		case xmltree.ElementNode:
			instr, err := parseInstruction(n)
			if err != nil {
				return nil, err
			}
			if instr != nil {
				out = append(out, instr)
			}
		case xmltree.CommentNode, xmltree.ProcInstNode:
			// Comments and PIs in the stylesheet are ignored.
		}
	}
	return out, nil
}

func parseInstruction(el *xmltree.Node) (Instruction, error) {
	if el.NamespaceURI != Namespace {
		return parseLiteralElement(el)
	}
	switch el.Name {
	case "value-of":
		sel, ok := el.Attr("select")
		if !ok {
			return nil, compileErrf("xsl:value-of", "missing select")
		}
		e, err := xpath.Parse(sel)
		if err != nil {
			return nil, compileErrf("xsl:value-of", "bad select %q: %v", sel, err)
		}
		return &ValueOf{Select: e}, nil

	case "apply-templates":
		at := &ApplyTemplates{Mode: el.AttrValue("mode"), TraceID: -1}
		if sel, ok := el.Attr("select"); ok {
			e, err := xpath.Parse(sel)
			if err != nil {
				return nil, compileErrf("xsl:apply-templates", "bad select %q: %v", sel, err)
			}
			at.Select = e
		}
		sorts, params, err := parseSortsAndParams(el, "xsl:apply-templates")
		if err != nil {
			return nil, err
		}
		at.Sorts, at.Params = sorts, params
		return at, nil

	case "call-template":
		name, ok := el.Attr("name")
		if !ok {
			return nil, compileErrf("xsl:call-template", "missing name")
		}
		_, params, err := parseSortsAndParams(el, "xsl:call-template")
		if err != nil {
			return nil, err
		}
		return &CallTemplate{Name: name, Params: params}, nil

	case "for-each":
		sel, ok := el.Attr("select")
		if !ok {
			return nil, compileErrf("xsl:for-each", "missing select")
		}
		e, err := xpath.Parse(sel)
		if err != nil {
			return nil, compileErrf("xsl:for-each", "bad select %q: %v", sel, err)
		}
		sorts, rest, err := splitSorts(el.Children)
		if err != nil {
			return nil, err
		}
		body, err := parseSequence(rest)
		if err != nil {
			return nil, err
		}
		return &ForEach{Select: e, Sorts: sorts, Body: body}, nil

	case "if":
		test, ok := el.Attr("test")
		if !ok {
			return nil, compileErrf("xsl:if", "missing test")
		}
		e, err := xpath.Parse(test)
		if err != nil {
			return nil, compileErrf("xsl:if", "bad test %q: %v", test, err)
		}
		body, err := parseSequence(el.Children)
		if err != nil {
			return nil, err
		}
		return &If{Test: e, Body: body}, nil

	case "choose":
		ch := &Choose{}
		for _, c := range el.Children {
			if c.Kind == xmltree.TextNode {
				if strings.TrimSpace(c.Data) != "" {
					return nil, compileErrf("xsl:choose", "unexpected text %q", c.Data)
				}
				continue
			}
			if c.Kind != xmltree.ElementNode {
				continue
			}
			if c.NamespaceURI != Namespace {
				return nil, compileErrf("xsl:choose", "unexpected element <%s>", c.QName())
			}
			switch c.Name {
			case "when":
				test, ok := c.Attr("test")
				if !ok {
					return nil, compileErrf("xsl:when", "missing test")
				}
				e, err := xpath.Parse(test)
				if err != nil {
					return nil, compileErrf("xsl:when", "bad test %q: %v", test, err)
				}
				body, err := parseSequence(c.Children)
				if err != nil {
					return nil, err
				}
				ch.Whens = append(ch.Whens, When{Test: e, Body: body})
			case "otherwise":
				body, err := parseSequence(c.Children)
				if err != nil {
					return nil, err
				}
				ch.Otherwise = body
			default:
				return nil, compileErrf("xsl:choose", "unexpected element xsl:%s", c.Name)
			}
		}
		if len(ch.Whens) == 0 {
			return nil, compileErrf("xsl:choose", "requires at least one xsl:when")
		}
		return ch, nil

	case "copy":
		body, err := parseSequence(el.Children)
		if err != nil {
			return nil, err
		}
		return &Copy{Body: body}, nil

	case "copy-of":
		sel, ok := el.Attr("select")
		if !ok {
			return nil, compileErrf("xsl:copy-of", "missing select")
		}
		e, err := xpath.Parse(sel)
		if err != nil {
			return nil, compileErrf("xsl:copy-of", "bad select %q: %v", sel, err)
		}
		return &CopyOf{Select: e}, nil

	case "variable", "param":
		def, err := parseVarDef(el)
		if err != nil {
			return nil, err
		}
		return &DeclareVar{Def: def}, nil

	case "element":
		name, ok := el.Attr("name")
		if !ok {
			return nil, compileErrf("xsl:element", "missing name")
		}
		avt, err := ParseAVT(name)
		if err != nil {
			return nil, compileErrf("xsl:element", "bad name AVT: %v", err)
		}
		body, err := parseSequence(el.Children)
		if err != nil {
			return nil, err
		}
		return &MakeElement{Name: avt, Body: body}, nil

	case "attribute":
		name, ok := el.Attr("name")
		if !ok {
			return nil, compileErrf("xsl:attribute", "missing name")
		}
		avt, err := ParseAVT(name)
		if err != nil {
			return nil, compileErrf("xsl:attribute", "bad name AVT: %v", err)
		}
		body, err := parseSequence(el.Children)
		if err != nil {
			return nil, err
		}
		return &MakeAttribute{Name: avt, Body: body}, nil

	case "text":
		var sb strings.Builder
		for _, c := range el.Children {
			if c.Kind != xmltree.TextNode {
				return nil, compileErrf("xsl:text", "may only contain text")
			}
			sb.WriteString(c.Data)
		}
		return &MakeText{Data: sb.String()}, nil

	case "comment":
		body, err := parseSequence(el.Children)
		if err != nil {
			return nil, err
		}
		return &MakeComment{Body: body}, nil

	case "processing-instruction":
		name, ok := el.Attr("name")
		if !ok {
			return nil, compileErrf("xsl:processing-instruction", "missing name")
		}
		avt, err := ParseAVT(name)
		if err != nil {
			return nil, compileErrf("xsl:processing-instruction", "bad name AVT: %v", err)
		}
		body, err := parseSequence(el.Children)
		if err != nil {
			return nil, err
		}
		return &MakePI{Name: avt, Body: body}, nil

	case "number":
		ni := &NumberInstr{}
		if v, ok := el.Attr("value"); ok {
			e, err := xpath.Parse(v)
			if err != nil {
				return nil, compileErrf("xsl:number", "bad value %q: %v", v, err)
			}
			ni.Value = e
		}
		return ni, nil

	case "message":
		body, err := parseSequence(el.Children)
		if err != nil {
			return nil, err
		}
		return &Message{Body: body, Terminate: el.AttrValue("terminate") == "yes"}, nil

	case "sort", "with-param":
		return nil, compileErrf("xsl:"+el.Name, "only allowed inside its parent instruction")

	case "apply-imports", "fallback", "import", "include":
		return nil, compileErrf("xsl:"+el.Name, "not supported by this implementation")
	}
	return nil, compileErrf("xsl:"+el.Name, "unknown instruction")
}

// parseSortsAndParams extracts xsl:sort and xsl:with-param children; no
// other element content is allowed.
func parseSortsAndParams(el *xmltree.Node, ctx string) ([]SortKey, []*VarDef, error) {
	var sorts []SortKey
	var params []*VarDef
	for _, c := range el.Children {
		if c.Kind == xmltree.TextNode {
			if strings.TrimSpace(c.Data) != "" {
				return nil, nil, compileErrf(ctx, "unexpected text %q", c.Data)
			}
			continue
		}
		if c.Kind != xmltree.ElementNode {
			continue
		}
		if c.NamespaceURI != Namespace {
			return nil, nil, compileErrf(ctx, "unexpected element <%s>", c.QName())
		}
		switch c.Name {
		case "sort":
			sk, err := parseSortKey(c)
			if err != nil {
				return nil, nil, err
			}
			sorts = append(sorts, sk)
		case "with-param":
			def, err := parseVarDef(c)
			if err != nil {
				return nil, nil, err
			}
			params = append(params, def)
		default:
			return nil, nil, compileErrf(ctx, "unexpected element xsl:%s", c.Name)
		}
	}
	return sorts, params, nil
}

// splitSorts separates leading xsl:sort elements (for xsl:for-each) from the
// remaining body content.
func splitSorts(nodes []*xmltree.Node) ([]SortKey, []*xmltree.Node, error) {
	var sorts []SortKey
	var rest []*xmltree.Node
	leading := true
	for _, c := range nodes {
		if leading && c.Kind == xmltree.ElementNode && c.NamespaceURI == Namespace && c.Name == "sort" {
			sk, err := parseSortKey(c)
			if err != nil {
				return nil, nil, err
			}
			sorts = append(sorts, sk)
			continue
		}
		if c.Kind == xmltree.TextNode && strings.TrimSpace(c.Data) == "" && leading {
			continue
		}
		leading = false
		rest = append(rest, c)
	}
	return sorts, rest, nil
}

func parseSortKey(el *xmltree.Node) (SortKey, error) {
	sel := "." // the sort key defaults to the node's string value
	if s, ok := el.Attr("select"); ok {
		sel = s
	}
	e, err := xpath.Parse(sel)
	if err != nil {
		return SortKey{}, compileErrf("xsl:sort", "bad select %q: %v", sel, err)
	}
	return SortKey{
		Select:     e,
		Numeric:    el.AttrValue("data-type") == "number",
		Descending: el.AttrValue("order") == "descending",
	}, nil
}

func parseLiteralElement(el *xmltree.Node) (Instruction, error) {
	lit := &LiteralElement{QName: el.QName()}
	for _, a := range el.Attrs {
		if a.Prefix == "xmlns" || (a.Prefix == "" && a.Name == "xmlns") {
			continue // namespace declarations don't become output attrs
		}
		avt, err := ParseAVT(a.Data)
		if err != nil {
			return nil, compileErrf(el.QName(), "bad AVT in attribute %s: %v", a.QName(), err)
		}
		lit.Attrs = append(lit.Attrs, LiteralAttr{QName: a.QName(), Value: avt})
	}
	body, err := parseSequence(el.Children)
	if err != nil {
		return nil, err
	}
	lit.Body = body
	return lit, nil
}
