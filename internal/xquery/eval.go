package xquery

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/governor"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Item is one item of a sequence: *xmltree.Node, string, float64 or bool.
type Item any

// Seq is an XQuery sequence.
type Seq []Item

// Env is the dynamic evaluation environment.
type Env struct {
	parent *Env
	vars   map[string]Seq
	funcs  map[string]*FuncDecl

	// Ctx is the context item ("."), with 1-based position/size for
	// predicate evaluation.
	Ctx     Item
	CtxPos  int
	CtxSize int

	depth    int
	maxDepth int

	// gov, when non-nil, is checked throughout evaluation so runaway
	// queries stop promptly on cancellation or budget exhaustion.
	gov *governor.G

	// meter, when non-nil, accumulates evaluation work counters for the
	// observability layer. Child environments share the root's meter.
	meter *EvalStats

	// xp is the root's scratch for calls into XPath's core library,
	// shared by its children (callXPath).
	xp *xpathCall
}

// EvalStats counts evaluator work for one run: Steps is the number of Eval
// entries (expressions evaluated), FuncCalls the number of user-declared
// function invocations. Counters are atomic so a meter can be read while
// evaluation is still in flight.
type EvalStats struct {
	Steps     atomic.Int64
	FuncCalls atomic.Int64
}

// defaultMaxDepth bounds user-function recursion when no governor override
// is configured.
const defaultMaxDepth = 2048

// NewEnv returns a root environment with the context item set to ctx
// (pass a document node to evaluate a query "PASSING" that document).
func NewEnv(ctx Item) *Env {
	return &Env{vars: map[string]Seq{}, funcs: map[string]*FuncDecl{}, Ctx: ctx, CtxPos: 1, CtxSize: 1, maxDepth: defaultMaxDepth, xp: new(xpathCall)}
}

// Govern attaches an execution governor (may be nil) and adopts its
// recursion bound; it returns e for chaining.
func (e *Env) Govern(g *governor.G) *Env {
	e.gov = g
	e.maxDepth = g.MaxDepth(defaultMaxDepth)
	return e
}

// Meter attaches a work meter (may be nil) and returns e for chaining.
func (e *Env) Meter(m *EvalStats) *Env {
	e.meter = m
	return e
}

func (e *Env) child() *Env {
	// vars allocates lazily in Bind: most child environments only adjust
	// the context item (predicates, FLWOR tuples).
	return &Env{parent: e, funcs: e.funcs,
		Ctx: e.Ctx, CtxPos: e.CtxPos, CtxSize: e.CtxSize,
		depth: e.depth, maxDepth: e.maxDepth, gov: e.gov, meter: e.meter, xp: e.xp}
}

// Bind binds a variable in this environment.
func (e *Env) Bind(name string, v Seq) {
	if e.vars == nil {
		e.vars = map[string]Seq{}
	}
	e.vars[name] = v
}

// Lookup resolves a variable through the scope chain.
func (e *Env) Lookup(name string) (Seq, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// DynamicError is a runtime XQuery error.
type DynamicError struct{ Msg string }

func (e *DynamicError) Error() string { return "xquery: " + e.Msg }

func dynErrf(format string, args ...any) error {
	return &DynamicError{Msg: fmt.Sprintf(format, args...)}
}

// EvalModule evaluates a full module: prolog variables bind in order, then
// the body runs.
func EvalModule(m *Module, env *Env) (Seq, error) {
	for _, f := range m.Funcs {
		env.funcs[f.Name] = f
	}
	for _, v := range m.Vars {
		// `declare variable $x := .;` style initializers see the context.
		val, err := Eval(v.Init, env)
		if err != nil {
			return nil, err
		}
		env.Bind(v.Name, val)
	}
	if m.Body == nil {
		return nil, nil
	}
	return Eval(m.Body, env)
}

// Eval evaluates an expression. The amortized governor tick here covers
// every evaluation loop — FLWOR iteration, path steps, predicates — since
// each iteration re-enters Eval at least once.
func Eval(e Expr, env *Env) (Seq, error) {
	if err := env.gov.Tick(); err != nil {
		return nil, err
	}
	if env.meter != nil {
		env.meter.Steps.Add(1)
	}
	switch x := e.(type) {
	case StringLit:
		return Seq{string(x)}, nil
	case NumberLit:
		return Seq{float64(x)}, nil
	case VarRef:
		if v, ok := env.Lookup(string(x)); ok {
			return v, nil
		}
		return nil, dynErrf("undefined variable $%s", string(x))
	case ContextItem:
		if env.Ctx == nil {
			return nil, dynErrf("context item is undefined")
		}
		return Seq{env.Ctx}, nil
	case EmptySeq:
		return nil, nil
	case *Annotated:
		return Eval(x.X, env)
	case *Sequence:
		var out Seq
		for _, item := range x.Items {
			v, err := Eval(item, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *Binary:
		return evalBinary(x, env)
	case *Neg:
		v, err := Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return Seq{-seqNumber(v)}, nil
	case *IfExpr:
		cond, err := Eval(x.Cond, env)
		if err != nil {
			return nil, err
		}
		if EffectiveBool(cond) {
			return Eval(x.Then, env)
		}
		if x.Else == nil {
			return nil, nil
		}
		return Eval(x.Else, env)
	case *FLWOR:
		return evalFLWOR(x, env)
	case *Quantified:
		return evalQuantified(x, env)
	case *Path:
		return evalPath(x, env)
	case *Filter:
		base, err := Eval(x.Base, env)
		if err != nil {
			return nil, err
		}
		return applyPredicates(base, x.Preds, env)
	case *FuncCall:
		return evalCall(x, env)
	case *InstanceOf:
		v, err := Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return Seq{matchesSeqType(v, x.Type)}, nil
	case *DirectElem:
		return evalDirectElem(x, env)
	case TextLit:
		return Seq{string(x)}, nil
	case *CompElem:
		return evalCompElem(x, env)
	case *CompAttr:
		return evalCompAttr(x, env)
	case *CompText:
		s, err := bodyToString(x.Body, env)
		if err != nil {
			return nil, err
		}
		return Seq{xmltree.NewText(s)}, nil
	case *CompComment:
		s, err := bodyToString(x.Body, env)
		if err != nil {
			return nil, err
		}
		return Seq{xmltree.NewComment(s)}, nil
	case *CompPI:
		name, err := nameFromExpr(x.Name, env)
		if err != nil {
			return nil, err
		}
		s, err := bodyToString(x.Body, env)
		if err != nil {
			return nil, err
		}
		return Seq{xmltree.NewProcInst(name, s)}, nil
	}
	return nil, dynErrf("unhandled expression type %T", e)
}

// ---- scalars and coercions ----

// EffectiveBool computes the effective boolean value with XPath 1.0
// compatible semantics (matching the XSLT source language).
func EffectiveBool(s Seq) bool {
	if len(s) == 0 {
		return false
	}
	if _, ok := s[0].(*xmltree.Node); ok || len(s) > 1 {
		return true
	}
	return xpath.ToBool(s[0])
}

// atomize converts each item to its atomic value (string value for nodes).
func atomize(s Seq) Seq {
	out := make(Seq, len(s))
	for i, it := range s {
		if n, ok := it.(*xmltree.Node); ok {
			out[i] = n.StringValue()
		} else {
			out[i] = it
		}
	}
	return out
}

// itemToString is XPath's string() of one item (a node's string value).
func itemToString(it Item) string {
	if n, ok := it.(*xmltree.Node); ok {
		return n.StringValue()
	}
	return xpath.ToString(it)
}

// itemToNumber is XPath's number() of one item, a node by its string value.
func itemToNumber(it Item) float64 {
	if n, ok := it.(*xmltree.Node); ok {
		return xpath.StringToNumber(n.StringValue())
	}
	return xpath.ToNumber(it)
}

// StringValue returns the string value of a whole sequence: items joined by
// single spaces (XQuery fn:string on a singleton; data() join otherwise).
func StringValue(s Seq) string { return joinStrings(s, " ") }

// joinStrings joins the items' strings (itemToString) with sep.
func joinStrings(s Seq, sep string) string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = itemToString(it)
	}
	return strings.Join(parts, sep)
}

// ---- operators ----

func evalBinary(b *Binary, env *Env) (Seq, error) {
	if b.Op == OpOr || b.Op == OpAnd {
		l, err := Eval(b.L, env)
		if err != nil {
			return nil, err
		}
		lb := EffectiveBool(l)
		if b.Op == OpOr && lb {
			return Seq{true}, nil
		}
		if b.Op == OpAnd && !lb {
			return Seq{false}, nil
		}
		r, err := Eval(b.R, env)
		if err != nil {
			return nil, err
		}
		return Seq{EffectiveBool(r)}, nil
	}
	// The other operators evaluate both operands.
	l, err := Eval(b.L, env)
	if err != nil {
		return nil, err
	}
	r, err := Eval(b.R, env)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case OpUnion:
		nodes := make([]*xmltree.Node, 0, len(l)+len(r))
		for _, it := range append(append(Seq{}, l...), r...) {
			n, ok := it.(*xmltree.Node)
			if !ok {
				return nil, dynErrf("union operand is not a node")
			}
			nodes = append(nodes, n)
		}
		nodes = xmltree.SortDocOrder(nodes)
		out := make(Seq, len(nodes))
		for i, n := range nodes {
			out[i] = n
		}
		return out, nil

	case OpTo:
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		// Compared as floats first: a NaN or infinite bound (a node, a
		// division by zero) converts to an arbitrary int.
		lf, hf := itemToNumber(l[0]), itemToNumber(r[0])
		if !(hf >= lf) {
			return nil, nil
		}
		if !(hf-lf <= 10_000_000) {
			return nil, dynErrf("range %v to %v too large", lf, hf)
		}
		lo, hi := int(lf), int(hf)
		out := make(Seq, 0, hi-lo+1)
		for i := lo; i <= hi; i++ {
			out = append(out, float64(i))
		}
		return out, nil

	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return Seq{generalCompare(b.Op, l, r)}, nil

	default: // arithmetic
		a, c := seqNumber(l), seqNumber(r)
		switch b.Op {
		case OpAdd:
			return Seq{a + c}, nil
		case OpSub:
			return Seq{a - c}, nil
		case OpMul:
			return Seq{a * c}, nil
		case OpDiv:
			return Seq{a / c}, nil
		case OpIDiv:
			if c == 0 {
				return nil, dynErrf("integer division by zero")
			}
			return Seq{math.Trunc(a / c)}, nil
		case OpMod:
			return Seq{math.Mod(a, c)}, nil
		}
	}
	return nil, dynErrf("unhandled operator %v", b.Op)
}

// xpathCmp maps the comparison operators to XPath 1.0's.
var xpathCmp = [...]xpath.BinaryOp{OpEq: xpath.OpEq, OpNe: xpath.OpNeq, OpLt: xpath.OpLt,
	OpLe: xpath.OpLe, OpGt: xpath.OpGt, OpGe: xpath.OpGe}

// generalCompare implements existential comparison with XPath 1.0's rules
// (§3.4): a boolean compared with a sequence of nodes compares with that
// sequence's boolean, decided before atomizing; otherwise some pair of atoms
// must compare true (xpath.Compare).
func generalCompare(op BinOp, l, r Seq) bool {
	xop := xpathCmp[op]
	switch {
	case isBoolean(l) && allNodes(r):
		return xpath.Compare(xop, l[0], len(r) > 0)
	case isBoolean(r) && allNodes(l):
		return xpath.Compare(xop, len(l) > 0, r[0])
	}
	la, ra := atomize(l), atomize(r)
	for _, a := range la {
		for _, b := range ra {
			if xpath.Compare(xop, a, b) {
				return true
			}
		}
	}
	return false
}

func isBoolean(s Seq) bool {
	if len(s) != 1 {
		return false
	}
	_, ok := s[0].(bool)
	return ok
}

func allNodes(s Seq) bool {
	for _, it := range s {
		if _, ok := it.(*xmltree.Node); !ok {
			return false
		}
	}
	return true
}

// ---- FLWOR ----

func evalFLWOR(fl *FLWOR, env *Env) (Seq, error) {
	type tuple struct{ env *Env }
	tuples := []tuple{{env: env.child()}}

	for _, cl := range fl.Clauses {
		var next []tuple
		for _, tp := range tuples {
			in, err := Eval(cl.In, tp.env)
			if err != nil {
				return nil, err
			}
			switch cl.Kind {
			case ClauseLet:
				e2 := tp.env.child()
				e2.Bind(cl.Var, in)
				next = append(next, tuple{env: e2})
			case ClauseFor:
				for i, item := range in {
					e2 := tp.env.child()
					e2.Bind(cl.Var, Seq{item})
					if cl.At != "" {
						e2.Bind(cl.At, Seq{float64(i + 1)})
					}
					next = append(next, tuple{env: e2})
				}
			}
		}
		tuples = next
	}

	if fl.Where != nil {
		var kept []tuple
		for _, tp := range tuples {
			v, err := Eval(fl.Where, tp.env)
			if err != nil {
				return nil, err
			}
			if EffectiveBool(v) {
				kept = append(kept, tp)
			}
		}
		tuples = kept
	}

	if len(fl.Order) > 0 {
		type keyedTuple struct {
			tp   tuple
			keys []Item
		}
		kts := make([]keyedTuple, len(tuples))
		for i, tp := range tuples {
			kt := keyedTuple{tp: tp}
			for _, k := range fl.Order {
				v, err := Eval(k.Expr, tp.env)
				if err != nil {
					return nil, err
				}
				var key Item
				if len(v) > 0 {
					key = atomize(v[:1])[0]
				}
				kt.keys = append(kt.keys, key)
			}
			kts[i] = kt
		}
		sort.SliceStable(kts, func(a, b int) bool {
			for ki, k := range fl.Order {
				cmp := compareOrderKeys(kts[a].keys[ki], kts[b].keys[ki])
				if k.Descending {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		for i, kt := range kts {
			tuples[i] = kt.tp
		}
	}

	var out Seq
	for _, tp := range tuples {
		v, err := Eval(fl.Return, tp.env)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// evalQuantified evaluates some/every over the cartesian product of the
// bindings.
func evalQuantified(q *Quantified, env *Env) (Seq, error) {
	var iterate func(i int, e *Env) (bool, error)
	iterate = func(i int, e *Env) (bool, error) {
		if i == len(q.Binds) {
			v, err := Eval(q.Satisfies, e)
			if err != nil {
				return false, err
			}
			return EffectiveBool(v), nil
		}
		in, err := Eval(q.Binds[i].In, e)
		if err != nil {
			return false, err
		}
		for _, item := range in {
			e2 := e.child()
			e2.Bind(q.Binds[i].Var, Seq{item})
			ok, err := iterate(i+1, e2)
			if err != nil {
				return false, err
			}
			if ok && !q.Every {
				return true, nil // some: first witness wins
			}
			if !ok && q.Every {
				return false, nil // every: first counterexample loses
			}
		}
		return q.Every, nil
	}
	ok, err := iterate(0, env)
	if err != nil {
		return nil, err
	}
	return Seq{ok}, nil
}

// compareOrderKeys orders two atomized keys: numerically when both parse as
// numbers, else as strings; empty sorts first.
func compareOrderKeys(a, b Item) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	na, nb := itemToNumber(a), itemToNumber(b)
	if !math.IsNaN(na) && !math.IsNaN(nb) {
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		}
		return 0
	}
	return strings.Compare(itemToString(a), itemToString(b))
}

// ---- paths ----

func evalPath(p *Path, env *Env) (Seq, error) {
	var nodes []*xmltree.Node
	switch {
	case p.Base != nil:
		base, err := Eval(p.Base, env)
		if err != nil {
			return nil, err
		}
		if len(p.Steps) == 0 {
			return base, nil
		}
		for _, it := range base {
			n, ok := it.(*xmltree.Node)
			if !ok {
				return nil, dynErrf("path step applied to a non-node (%T)", it)
			}
			nodes = append(nodes, n)
		}
	case p.Abs:
		n, ok := env.Ctx.(*xmltree.Node)
		if !ok {
			return nil, dynErrf("absolute path with no context document")
		}
		nodes = []*xmltree.Node{n.Root()}
		if len(p.Steps) == 0 {
			return Seq{nodes[0]}, nil
		}
	default:
		n, ok := env.Ctx.(*xmltree.Node)
		if !ok {
			return nil, dynErrf("relative path with non-node context item")
		}
		nodes = []*xmltree.Node{n}
	}

	for _, step := range p.Steps {
		var collected []*xmltree.Node
		seen := map[*xmltree.Node]bool{}
		for _, n := range nodes {
			cands := axisNodes(step, n)
			candSeq := make(Seq, len(cands))
			for i, c := range cands {
				candSeq[i] = c
			}
			filtered, err := applyPredicates(candSeq, step.Preds, env)
			if err != nil {
				return nil, err
			}
			for _, it := range filtered {
				c := it.(*xmltree.Node)
				if !seen[c] {
					seen[c] = true
					collected = append(collected, c)
				}
			}
		}
		collected = xmltree.SortDocOrder(collected)
		nodes = collected
		if len(nodes) == 0 {
			break
		}
	}
	out := make(Seq, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out, nil
}

// axisNodes walks one axis in axis order (reverse axes in reverse document
// order, so positional predicates count proximity per XPath semantics).
func axisNodes(step *Step, n *xmltree.Node) []*xmltree.Node {
	return xpath.AxisNodes(step.Axis, n, step.Test)
}

// applyPredicates filters a sequence through predicates with positional
// semantics: a numeric predicate selects by position.
func applyPredicates(items Seq, preds []Expr, env *Env) (Seq, error) {
	for _, pred := range preds {
		if len(items) == 0 {
			return items, nil
		}
		var kept Seq
		size := len(items)
		for i, it := range items {
			e2 := env.child()
			e2.Ctx = it
			e2.CtxPos = i + 1
			e2.CtxSize = size
			v, err := Eval(pred, e2)
			if err != nil {
				return nil, err
			}
			keep := false
			if len(v) == 1 {
				if num, ok := v[0].(float64); ok {
					keep = num == float64(i+1)
				} else {
					keep = EffectiveBool(v)
				}
			} else {
				keep = EffectiveBool(v)
			}
			if keep {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	return items, nil
}

// ---- constructors ----

func evalDirectElem(d *DirectElem, env *Env) (Seq, error) {
	el := xmltree.NewElement(d.Name)
	for _, a := range d.Attrs {
		var sb strings.Builder
		for _, part := range a.Parts {
			if part.Expr == nil {
				sb.WriteString(part.Text)
				continue
			}
			v, err := Eval(part.Expr, env)
			if err != nil {
				return nil, err
			}
			sb.WriteString(StringValue(v))
		}
		el.SetAttr(a.Name, sb.String())
	}
	for _, c := range d.Children {
		if t, ok := c.(TextLit); ok {
			appendText(el, string(t))
			continue
		}
		v, err := Eval(c, env)
		if err != nil {
			return nil, err
		}
		appendContent(el, v)
	}
	el.Renumber()
	return Seq{el}, nil
}

// appendContent implements XQuery content sequence construction: adjacent
// atomic values join with single spaces into one text node; nodes are
// deep-copied; attribute nodes attach to the element.
func appendContent(el *xmltree.Node, v Seq) {
	pendingAtomic := []string{}
	flush := func() {
		if len(pendingAtomic) > 0 {
			appendText(el, strings.Join(pendingAtomic, " "))
			pendingAtomic = pendingAtomic[:0]
		}
	}
	for _, it := range v {
		if n, ok := it.(*xmltree.Node); ok {
			flush()
			if n.Kind == xmltree.AttributeNode {
				el.SetAttr(n.QName(), n.Data)
				continue
			}
			el.AppendChild(n.Clone())
			continue
		}
		pendingAtomic = append(pendingAtomic, itemToString(it))
	}
	flush()
}

func appendText(el *xmltree.Node, data string) {
	if data == "" {
		return
	}
	if n := len(el.Children); n > 0 && el.Children[n-1].Kind == xmltree.TextNode {
		el.Children[n-1].Data += data
		return
	}
	el.AppendChild(xmltree.NewText(data))
}

func evalCompElem(c *CompElem, env *Env) (Seq, error) {
	name, err := nameFromExpr(c.Name, env)
	if err != nil {
		return nil, err
	}
	el := xmltree.NewElement(name)
	if c.Body != nil {
		v, err := Eval(c.Body, env)
		if err != nil {
			return nil, err
		}
		appendContent(el, v)
	}
	el.Renumber()
	return Seq{el}, nil
}

func evalCompAttr(c *CompAttr, env *Env) (Seq, error) {
	name, err := nameFromExpr(c.Name, env)
	if err != nil {
		return nil, err
	}
	val, err := bodyToString(c.Body, env)
	if err != nil {
		return nil, err
	}
	return Seq{xmltree.NewAttr(name, val)}, nil
}

func nameFromExpr(e Expr, env *Env) (string, error) {
	if e == nil {
		return "", dynErrf("constructor requires a name")
	}
	v, err := Eval(e, env)
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(StringValue(v))
	if name == "" {
		return "", dynErrf("constructor name is empty")
	}
	return name, nil
}

func bodyToString(e Expr, env *Env) (string, error) {
	if e == nil {
		return "", nil
	}
	v, err := Eval(e, env)
	if err != nil {
		return "", err
	}
	return StringValue(v), nil
}

// ---- instance of ----

func matchesSeqType(v Seq, t SeqType) bool {
	if len(v) != 1 {
		return false
	}
	n, ok := v[0].(*xmltree.Node)
	if !ok {
		return false
	}
	switch t.Kind {
	case SeqTypeElement:
		return n.Kind == xmltree.ElementNode && (t.Name == "" || n.Name == t.Name)
	case SeqTypeAttribute:
		return n.Kind == xmltree.AttributeNode && (t.Name == "" || n.Name == t.Name)
	case SeqTypeText:
		return n.Kind == xmltree.TextNode
	case SeqTypeComment:
		return n.Kind == xmltree.CommentNode
	case SeqTypePI:
		return n.Kind == xmltree.ProcInstNode
	default:
		return true
	}
}

// ---- user functions ----

func evalCall(c *FuncCall, env *Env) (Seq, error) {
	if f, ok := env.funcs[c.Name]; ok {
		if len(c.Args) != len(f.Params) {
			return nil, dynErrf("%s() expects %d arguments, got %d", c.Name, len(f.Params), len(c.Args))
		}
		env.depth++
		if env.depth > env.maxDepth {
			return nil, fmt.Errorf("xquery: %w: recursion deeper than %d in %s()", governor.ErrRecursionLimit, env.maxDepth, c.Name)
		}
		if env.meter != nil {
			env.meter.FuncCalls.Add(1)
		}
		defer func() { env.depth-- }()
		callEnv := env.child()
		callEnv.depth = env.depth
		for i, p := range f.Params {
			v, err := Eval(c.Args[i], env)
			if err != nil {
				return nil, err
			}
			callEnv.Bind(p, v)
		}
		return Eval(f.Body, callEnv)
	}
	return evalCoreFunc(c, env)
}

// SerializeSeq renders a result sequence the way XMLQuery(... RETURNING
// CONTENT) would: nodes serialize, atomics print space-separated.
func SerializeSeq(s Seq) string {
	var sb strings.Builder
	lastAtomic := false
	for _, it := range s {
		if n, ok := it.(*xmltree.Node); ok {
			var b strings.Builder
			n.Serialize(&b, xmltree.SerializeOptions{OmitDecl: true})
			sb.WriteString(b.String())
			lastAtomic = false
			continue
		}
		if lastAtomic {
			sb.WriteByte(' ')
		}
		sb.WriteString(itemToString(it))
		lastAtomic = true
	}
	return sb.String()
}
