package xpath

import (
	"fmt"
	"strings"
)

// Axis identifies an XPath axis.
type Axis uint8

// Supported axes (all of XPath 1.0 except the namespace axis).
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisSelf
	AxisAttribute
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisFollowing
	AxisPreceding
)

var axisNames = map[string]Axis{
	"child":              AxisChild,
	"descendant":         AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf,
	"parent":             AxisParent,
	"ancestor":           AxisAncestor,
	"ancestor-or-self":   AxisAncestorOrSelf,
	"self":               AxisSelf,
	"attribute":          AxisAttribute,
	"following-sibling":  AxisFollowingSibling,
	"preceding-sibling":  AxisPrecedingSibling,
	"following":          AxisFollowing,
	"preceding":          AxisPreceding,
}

// String returns the axis name as written in XPath.
func (a Axis) String() string {
	for name, ax := range axisNames {
		if ax == a {
			return name
		}
	}
	return "unknown-axis"
}

// IsReverse reports whether positions along this axis count backwards in
// document order (ancestor, preceding and their variants).
func (a Axis) IsReverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPrecedingSibling, AxisPreceding:
		return true
	}
	return false
}

// TestKind classifies a node test within a step.
type TestKind uint8

// Node test kinds.
const (
	TestName    TestKind = iota // foo or pfx:foo
	TestAnyName                 // *
	TestNSName                  // pfx:*
	TestText                    // text()
	TestComment                 // comment()
	TestPI                      // processing-instruction() / processing-instruction('t')
	TestNode                    // node()
)

// NodeTest is the node test of a step.
type NodeTest struct {
	Kind   TestKind
	Prefix string // for TestName / TestNSName
	Name   string // local name for TestName; PI target for TestPI
}

// String renders the node test as XPath source.
func (nt NodeTest) String() string {
	switch nt.Kind {
	case TestName:
		if nt.Prefix != "" {
			return nt.Prefix + ":" + nt.Name
		}
		return nt.Name
	case TestAnyName:
		return "*"
	case TestNSName:
		return nt.Prefix + ":*"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		if nt.Name != "" {
			return fmt.Sprintf("processing-instruction(%q)", nt.Name)
		}
		return "processing-instruction()"
	case TestNode:
		return "node()"
	}
	return "?"
}

// Step is one location step: axis, node test and predicates.
type Step struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

// String renders the step, abbreviating child:: and attribute:: axes.
func (s *Step) String() string {
	var sb strings.Builder
	switch s.Axis {
	case AxisChild:
		// abbreviated
	case AxisAttribute:
		sb.WriteByte('@')
	case AxisSelf:
		if s.Test.Kind == TestNode && len(s.Preds) == 0 {
			return "."
		}
		sb.WriteString("self::")
	case AxisParent:
		if s.Test.Kind == TestNode && len(s.Preds) == 0 {
			return ".."
		}
		sb.WriteString("parent::")
	default:
		sb.WriteString(s.Axis.String())
		sb.WriteString("::")
	}
	sb.WriteString(s.Test.String())
	for _, p := range s.Preds {
		sb.WriteByte('[')
		sb.WriteString(p.String())
		sb.WriteByte(']')
	}
	return sb.String()
}

// Expr is a parsed XPath expression.
type Expr interface {
	// String renders the expression as XPath source text; the result
	// re-parses to an equivalent expression.
	String() string
}

// NumberExpr is a numeric literal.
type NumberExpr float64

func (e NumberExpr) String() string {
	s := fmt.Sprintf("%g", float64(e))
	return s
}

// StringExpr is a string literal.
type StringExpr string

func (e StringExpr) String() string {
	if strings.ContainsRune(string(e), '"') {
		return "'" + string(e) + "'"
	}
	return `"` + string(e) + `"`
}

// VarExpr references a variable: $name.
type VarExpr string

func (e VarExpr) String() string { return "$" + string(e) }

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpUnion
)

var opNames = [...]string{"or", "and", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod", "|"}

// String returns the operator as written in XPath.
func (op BinaryOp) String() string { return opNames[op] }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

func (e *BinaryExpr) String() string {
	return fmt.Sprintf("%s %s %s", parenthesize(e.L, e.Op, false), e.Op, parenthesize(e.R, e.Op, true))
}

// parenthesize wraps sub-expressions whose operator binds more loosely than
// the parent operator, so String() output re-parses with the same shape.
// Operators are left-associative, so a right operand of EQUAL precedence
// also needs parentheses ("a != (b != c)" must not print as "a != b != c").
func parenthesize(e Expr, parent BinaryOp, rightOperand bool) string {
	b, ok := e.(*BinaryExpr)
	if !ok {
		return e.String()
	}
	childPrec, parentPrec := opPrecedence(b.Op), opPrecedence(parent)
	if childPrec < parentPrec || (rightOperand && childPrec == parentPrec) {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func opPrecedence(op BinaryOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNeq:
		return 3
	case OpLt, OpLe, OpGt, OpGe:
		return 4
	case OpAdd, OpSub:
		return 5
	case OpMul, OpDiv, OpMod:
		return 6
	case OpUnion:
		return 7
	}
	return 0
}

// NegExpr is unary minus.
type NegExpr struct{ X Expr }

func (e *NegExpr) String() string {
	// Binary operands bind more loosely than unary minus; parenthesize so
	// the printed form re-parses with the same shape.
	if _, ok := e.X.(*BinaryExpr); ok {
		return "-(" + e.X.String() + ")"
	}
	return "-" + e.X.String()
}

// FuncExpr is a function call.
type FuncExpr struct {
	Name string // as written, e.g. "count" or "fn:string"
	Args []Expr
}

func (e *FuncExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// PathExpr is a location path, optionally rooted at a primary expression
// (FilterExpr '/' RelativeLocationPath in the XPath grammar).
type PathExpr struct {
	// Abs marks an absolute path (leading '/'). Ignored when Start is set.
	Abs bool
	// Start, when non-nil, is the primary expression the path is applied
	// to, e.g. the function call in "id('x')/child". Its predicates (the
	// FilterExpr part) are in StartPreds.
	Start      Expr
	StartPreds []Expr
	Steps      []*Step
}

func (e *PathExpr) String() string {
	var sb strings.Builder
	switch {
	case e.Start != nil:
		switch e.Start.(type) {
		case *FuncExpr, VarExpr, StringExpr, NumberExpr:
			sb.WriteString(e.Start.String())
		default:
			sb.WriteByte('(')
			sb.WriteString(e.Start.String())
			sb.WriteByte(')')
		}
		for _, p := range e.StartPreds {
			sb.WriteByte('[')
			sb.WriteString(p.String())
			sb.WriteByte(']')
		}
		if len(e.Steps) > 0 {
			sb.WriteByte('/')
		}
	case e.Abs:
		sb.WriteByte('/')
	}
	// Bare descendant-or-self::node() steps abbreviate to '//' when another
	// step follows; steps with predicates print in full.
	// hasLead reports that a '/' separator context already exists (an
	// absolute path or a filter base), so a leading bare dos step may
	// abbreviate; in a plain relative path it must print in full or the
	// output would read as an absolute '//' path.
	hasLead := e.Abs || e.Start != nil
	sepNeeded := false // '/' required before the next plain step
	for i, s := range e.Steps {
		bareDos := s.Axis == AxisDescendantOrSelf && s.Test.Kind == TestNode && len(s.Preds) == 0
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
