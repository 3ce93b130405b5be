// Package xquery implements an XQuery 1.0 subset sufficient to express and
// execute the queries the XSLT rewriter generates (paper §3, Tables 8,
// 12-15, 17, 19, 21), plus the hand-written FLWOR queries of Example 2.
//
// Covered: the prolog (variable and function declarations), FLWOR with
// multiple for/let clauses, where, order by, conditionals, general
// comparisons with XPath 1.0 coercion semantics, arithmetic, sequence and
// union expressions, path expressions over the xmltree model, direct and
// computed constructors with embedded expressions, "instance of" element
// tests, and a function library. XPath 1.0's value rules — conversions,
// comparisons and its core functions — are internal/xpath's, called on
// evaluated sequences (callXPath); XQuery adds data, string-join, empty,
// exists, avg, min, max, abs, ends-with, upper-case, lower-case,
// distinct-values, reverse, subsequence and root, and defines count and
// sum over any sequence.
package xquery

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// Expr is an XQuery expression.
type Expr interface {
	// String renders the expression as XQuery source (it re-parses).
	String() string
}

// Module is a parsed query: prolog declarations plus the body expression.
type Module struct {
	Vars  []*VarDecl
	Funcs []*FuncDecl
	Body  Expr
}

// VarDecl is `declare variable $name := expr;`.
type VarDecl struct {
	Name string
	Init Expr
}

// FuncDecl is `declare function local:name($p1, $p2) { body };`.
type FuncDecl struct {
	Name   string // as written, usually "local:..."
	Params []string
	Body   Expr
}

// String renders the whole module.
func (m *Module) String() string {
	var sb strings.Builder
	for _, v := range m.Vars {
		fmt.Fprintf(&sb, "declare variable $%s := %s;\n", v.Name, v.Init.String())
	}
	for _, f := range m.Funcs {
		params := make([]string, len(f.Params))
		for i, p := range f.Params {
			params[i] = "$" + p
		}
		fmt.Fprintf(&sb, "declare function %s(%s) {\n%s\n};\n", f.Name, strings.Join(params, ", "), indent(f.Body.String(), "  "))
	}
	if m.Body != nil {
		sb.WriteString(m.Body.String())
	}
	return sb.String()
}

func indent(s, pad string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = pad + l
		}
	}
	return strings.Join(lines, "\n")
}

// ---- Literals, variables, context ----

// StringLit is a string literal.
type StringLit string

// String renders the literal with XQuery quoting.
func (e StringLit) String() string {
	if strings.ContainsRune(string(e), '"') {
		return "'" + string(e) + "'"
	}
	return `"` + string(e) + `"`
}

// NumberLit is a numeric literal.
type NumberLit float64

func (e NumberLit) String() string { return xpath.NumberToString(float64(e)) }

// VarRef references $name.
type VarRef string

func (e VarRef) String() string { return "$" + string(e) }

// ContextItem is ".".
type ContextItem struct{}

func (ContextItem) String() string { return "." }

// EmptySeq is "()".
type EmptySeq struct{}

func (EmptySeq) String() string { return "()" }

// ---- Compound expressions ----

// Sequence is the comma operator: (e1, e2, ...).
type Sequence struct{ Items []Expr }

func (e *Sequence) String() string {
	parts := make([]string, len(e.Items))
	for i, it := range e.Items {
		parts[i] = it.String()
	}
	return "(\n" + indent(strings.Join(parts, ",\n"), "  ") + "\n)"
}

// BinOp enumerates binary operators (sharing xpath spellings where they
// coincide).
type BinOp uint8

// Binary operators.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
	OpUnion
	OpTo // range: 1 to n
)

var binOpNames = [...]string{"or", "and", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "div", "idiv", "mod", "|", "to"}

// String returns the operator spelling.
func (op BinOp) String() string { return binOpNames[op] }

func binPrec(op BinOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpTo:
		return 4
	case OpAdd, OpSub:
		return 5
	case OpMul, OpDiv, OpIDiv, OpMod:
		return 6
	case OpUnion:
		return 7
	}
	return 0
}

// Binary applies op to L and R.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (e *Binary) String() string {
	l := binaryOperand(e.L, e.Op, false)
	r := binaryOperand(e.R, e.Op, true)
	return l + " " + e.Op.String() + " " + r
}

// binaryOperand renders an operand of a binary expression, parenthesizing
// whenever re-parsing could re-associate: looser-binding binaries,
// right-side equal precedence (left associativity), non-associative
// comparisons, and statement-like expressions (if/FLWOR) that would swallow
// the operator. The decision looks through Annotated comment wrappers.
func binaryOperand(x Expr, parent BinOp, right bool) string {
	switch b := Unwrap(x).(type) {
	case *Binary:
		samePrec := binPrec(b.Op) == binPrec(parent)
		comparison := binPrec(parent) == 3
		if binPrec(b.Op) < binPrec(parent) || (samePrec && (right || comparison)) {
			return "(" + x.String() + ")"
		}
	case *IfExpr, *FLWOR, *Quantified:
		return "(" + x.String() + ")"
	case *InstanceOf:
		// "$x instance of element(e) * 2" would parse '*' as an occurrence
		// indicator of the sequence type.
		return "(" + x.String() + ")"
	}
	return x.String()
}

// Neg is unary minus.
type Neg struct{ X Expr }

func (e *Neg) String() string {
	switch e.X.(type) {
	case *Binary, *Sequence, *FLWOR, *IfExpr:
		return "-(" + e.X.String() + ")"
	}
	return "-" + e.X.String()
}

// FuncCall calls a core or user-declared function.
type FuncCall struct {
	Name string
	Args []Expr
}

func (e *FuncCall) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ---- FLWOR ----

// ClauseKind tags a FLWOR clause.
type ClauseKind uint8

// FLWOR clause kinds.
const (
	ClauseFor ClauseKind = iota
	ClauseLet
)

// Clause is one for/let binding.
type Clause struct {
	Kind ClauseKind
	Var  string
	// At is the positional variable of "for $v at $i", or "".
	At string
	In Expr
}

// OrderKey is one "order by" key.
type OrderKey struct {
	Expr       Expr
	Descending bool
}

// FLWOR is a for/let ... where ... order by ... return expression.
type FLWOR struct {
	Clauses []Clause
	Where   Expr // may be nil
	Order   []OrderKey
	Return  Expr
}

func (e *FLWOR) String() string {
	var sb strings.Builder
	for i, c := range e.Clauses {
		if i > 0 {
			sb.WriteByte('\n')
		}
		switch c.Kind {
		case ClauseFor:
			sb.WriteString("for $" + c.Var)
			if c.At != "" {
				sb.WriteString(" at $" + c.At)
			}
			sb.WriteString(" in " + c.In.String())
		case ClauseLet:
			sb.WriteString("let $" + c.Var + " := " + c.In.String())
		}
	}
	if e.Where != nil {
		sb.WriteString("\nwhere " + e.Where.String())
	}
	if len(e.Order) > 0 {
		keys := make([]string, len(e.Order))
		for i, k := range e.Order {
			keys[i] = k.Expr.String()
			if k.Descending {
				keys[i] += " descending"
			}
		}
		sb.WriteString("\norder by " + strings.Join(keys, ", "))
	}
	sb.WriteString("\nreturn\n" + indent(e.Return.String(), "  "))
	return sb.String()
}

// Quantified is `some/every $v in expr satisfies cond`.
type Quantified struct {
	Every     bool
	Binds     []Clause // Kind is always ClauseFor
	Satisfies Expr
}

func (e *Quantified) String() string {
	kw := "some"
	if e.Every {
		kw = "every"
	}
	var sb strings.Builder
	sb.WriteString(kw + " ")
	for i, b := range e.Binds {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("$" + b.Var + " in " + b.In.String())
	}
	sb.WriteString(" satisfies " + e.Satisfies.String())
	return sb.String()
}

// IfExpr is if (cond) then t else f.
type IfExpr struct {
	Cond Expr
	Then Expr
	Else Expr
}

func (e *IfExpr) String() string {
	elseStr := "()"
	if e.Else != nil {
		elseStr = e.Else.String()
	}
	return "if (" + e.Cond.String() + ")\nthen " + indent2(e.Then.String()) + "\nelse " + indent2(elseStr)
}

func indent2(s string) string {
	if !strings.Contains(s, "\n") {
		return s
	}
	return strings.ReplaceAll(s, "\n", "\n  ")
}

// ---- Paths ----

// Step is one path step; predicates are XQuery expressions.
type Step struct {
	Axis  xpath.Axis
	Test  xpath.NodeTest
	Preds []Expr
}

func (s *Step) String() string {
	var sb strings.Builder
	switch s.Axis {
	case xpath.AxisChild:
	case xpath.AxisAttribute:
		sb.WriteByte('@')
	case xpath.AxisSelf:
		if s.Test.Kind == xpath.TestNode && len(s.Preds) == 0 {
			return "."
		}
		sb.WriteString("self::")
	case xpath.AxisParent:
		if s.Test.Kind == xpath.TestNode && len(s.Preds) == 0 {
			return ".."
		}
		sb.WriteString("parent::")
	default:
		sb.WriteString(s.Axis.String())
		sb.WriteString("::")
	}
	sb.WriteString(s.Test.String())
	for _, p := range s.Preds {
		sb.WriteString("[" + p.String() + "]")
	}
	return sb.String()
}

// Path applies location steps to a base expression. Base nil means the
// context item; Abs anchors at the root of the context document.
type Path struct {
	Base  Expr
	Abs   bool
	Steps []*Step
}

func (e *Path) String() string {
	var sb strings.Builder
	if e.Base != nil {
		switch e.Base.(type) {
		case VarRef, *FuncCall, ContextItem, StringLit, NumberLit:
			sb.WriteString(e.Base.String())
		default:
			sb.WriteString("(" + e.Base.String() + ")")
		}
		if len(e.Steps) > 0 {
			sb.WriteByte('/')
		}
	} else if e.Abs {
		sb.WriteByte('/')
	}
	// A leading bare dos step in a plain relative path must print in full:
	// abbreviating would read as an absolute '//' path.
	hasLead := e.Abs || e.Base != nil
	sepNeeded := false
	for i, s := range e.Steps {
		bareDos := s.Axis == xpath.AxisDescendantOrSelf && s.Test.Kind == xpath.TestNode && len(s.Preds) == 0
		if bareDos && i+1 < len(e.Steps) && (sepNeeded || (hasLead && i == 0)) {
			if sepNeeded {
				sb.WriteString("//")
			} else {
				sb.WriteString("/")
			}
			sepNeeded = false
			continue
		}
		if sepNeeded {
			sb.WriteByte('/')
		}
		sb.WriteString(s.String())
		sepNeeded = true
	}
	return sb.String()
}

// Filter applies predicates to a base expression: (base)[p1][p2].
type Filter struct {
	Base  Expr
	Preds []Expr
}

func (e *Filter) String() string {
	base := e.Base.String()
	switch e.Base.(type) {
	case VarRef, *FuncCall, ContextItem:
	default:
		base = "(" + base + ")"
	}
	var sb strings.Builder
	sb.WriteString(base)
	for _, p := range e.Preds {
		sb.WriteString("[" + p.String() + "]")
	}
	return sb.String()
}

// ---- Constructors ----

// AttrValuePart is a piece of a direct-constructor attribute value: literal
// text or an embedded expression.
type AttrValuePart struct {
	Text string
	Expr Expr
}

// DirectAttr is an attribute of a direct element constructor.
type DirectAttr struct {
	Name  string
	Parts []AttrValuePart
}

// DirectElem is a direct element constructor, e.g.
// <tr><td>{fn:string($v/empno)}</td></tr>.
type DirectElem struct {
	Name     string
	Attrs    []DirectAttr
	Children []Expr // TextLit for literal content, arbitrary Expr for {...}
}

func (e *DirectElem) String() string {
	var sb strings.Builder
	sb.WriteByte('<')
	sb.WriteString(e.Name)
	for _, a := range e.Attrs {
		sb.WriteString(" " + a.Name + `="`)
		for _, p := range a.Parts {
			if p.Expr != nil {
				sb.WriteString("{" + p.Expr.String() + "}")
			} else {
				sb.WriteString(escapeAttrText(p.Text))
			}
		}
		sb.WriteByte('"')
	}
	if len(e.Children) == 0 {
		sb.WriteString("/>")
		return sb.String()
	}
	sb.WriteByte('>')
	// Layout newlines may only be injected when no literal text is present:
	// the XQuery parser strips whitespace-only boundary text, but any run
	// touching literal text survives verbatim and would corrupt content.
	pretty := true
	for _, c := range e.Children {
		if _, ok := c.(TextLit); ok {
			pretty = false
			break
		}
	}
	for _, c := range e.Children {
		switch t := c.(type) {
		case TextLit:
			sb.WriteString(escapeElemText(string(t)))
		case *DirectElem:
			// Nested direct constructors print directly (Table 8 style).
			child := t.String()
			if pretty && strings.Contains(child, "\n") {
				sb.WriteString("\n" + indent(child, "  ") + "\n")
			} else {
				sb.WriteString(child)
			}
		default:
			body := "{" + c.String() + "}"
			if pretty && strings.Contains(body, "\n") {
				sb.WriteString("\n" + indent(body, "  ") + "\n")
			} else {
				sb.WriteString(body)
			}
		}
	}
	sb.WriteString("</" + e.Name + ">")
	return sb.String()
}

func escapeElemText(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, "{", "{{")
	s = strings.ReplaceAll(s, "}", "}}")
	return s
}

func escapeAttrText(s string) string {
	s = escapeElemText(s)
	return strings.ReplaceAll(s, `"`, "&quot;")
}

// TextLit is literal text inside a direct constructor.
type TextLit string

func (e TextLit) String() string { return string(e) }

// CompElem is a computed element constructor: element {name} {body}.
type CompElem struct {
	Name Expr
	Body Expr
}

func (e *CompElem) String() string {
	return "element {" + e.Name.String() + "} {" + bodyString(e.Body) + "}"
}

// CompAttr is a computed attribute constructor.
type CompAttr struct {
	Name Expr
	Body Expr
}

func (e *CompAttr) String() string {
	return "attribute {" + e.Name.String() + "} {" + bodyString(e.Body) + "}"
}

// CompText is a computed text constructor: text {expr}.
type CompText struct{ Body Expr }

func (e *CompText) String() string { return "text {" + bodyString(e.Body) + "}" }

// CompComment is a computed comment constructor.
type CompComment struct{ Body Expr }

func (e *CompComment) String() string { return "comment {" + bodyString(e.Body) + "}" }

// CompPI is a computed processing-instruction constructor.
type CompPI struct {
	Name Expr
	Body Expr
}

func (e *CompPI) String() string {
	return "processing-instruction {" + e.Name.String() + "} {" + bodyString(e.Body) + "}"
}

func bodyString(e Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

// ---- Types ----

// SeqTypeKind is the node kind of an "instance of" test.
type SeqTypeKind uint8

// Sequence type kinds (the subset the rewriter emits).
const (
	SeqTypeElement SeqTypeKind = iota
	SeqTypeText
	SeqTypeComment
	SeqTypePI
	SeqTypeNode
	SeqTypeAttribute
)

// SeqType is a (simplified) sequence type: element(name), element(),
// text(), node(), etc.
type SeqType struct {
	Kind SeqTypeKind
	Name string // element/attribute name; "" = any
}

// String renders the sequence type.
func (t SeqType) String() string {
	switch t.Kind {
	case SeqTypeElement:
		return "element(" + t.Name + ")"
	case SeqTypeAttribute:
		return "attribute(" + t.Name + ")"
	case SeqTypeText:
		return "text()"
	case SeqTypeComment:
		return "comment()"
	case SeqTypePI:
		return "processing-instruction()"
	default:
		return "node()"
	}
}

// InstanceOf is `expr instance of type`.
type InstanceOf struct {
	X    Expr
	Type SeqType
}

func (e *InstanceOf) String() string {
	return e.X.String() + " instance of " + e.Type.String()
}

// Annotated attaches an XQuery comment to an expression; the comment prints
// before the expression (used by the rewriter to label inlined templates as
// in paper Table 8).
type Annotated struct {
	Comment string
	X       Expr
}

func (e *Annotated) String() string {
	return "(: " + e.Comment + " :)\n" + e.X.String()
}

// Unwrap strips Annotated wrappers.
func Unwrap(e Expr) Expr {
	for {
		a, ok := e.(*Annotated)
		if !ok {
			return e
		}
		e = a.X
	}
}
