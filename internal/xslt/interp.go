package xslt

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/governor"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Engine executes a stylesheet functionally over a DOM tree. This is the
// paper's "XSLT no rewrite" evaluation path.
type Engine struct {
	sheet *Stylesheet

	// MaxDepth bounds template/instruction recursion; exceeded depth is a
	// runtime error rather than a stack overflow.
	MaxDepth int

	// Messages collects the output of xsl:message instructions.
	Messages []string

	// Trace, when non-nil, is invoked for every template instantiation
	// caused by apply-templates; used by the partial evaluator.
	Trace func(ev TraceEvent)

	// Runtime resolves key() and generate-id().
	Runtime *RuntimeFuncs

	// gov, when non-nil, bounds the transformation (cancellation and
	// resource budgets); set it with Govern.
	gov *governor.G

	// templatesApplied counts template-rule instantiations (built-in rules
	// included); TemplatesApplied exposes it to the observability layer.
	templatesApplied atomic.Int64
}

// TemplatesApplied returns the number of template rules instantiated so far
// by this engine — a work measure the trace layer records per run.
func (e *Engine) TemplatesApplied() int64 { return e.templatesApplied.Load() }

// TraceEvent describes one template instantiation observed during a
// transformation.
type TraceEvent struct {
	// TraceID is the ApplyTemplates instruction's trace id (-1 for the
	// initial root application).
	TraceID int
	// Node is the context node that activated the template.
	Node *xmltree.Node
	// Template is the activated template; nil when a built-in rule ran.
	Template *Template
	// Builtin is set when a built-in template rule handled the node.
	Builtin bool
}

// defaultMaxDepth bounds template recursion when no override is set.
const defaultMaxDepth = 1024

// New returns an Engine for the stylesheet.
func New(sheet *Stylesheet) *Engine {
	return &Engine{sheet: sheet, MaxDepth: defaultMaxDepth, Runtime: NewRuntimeFuncs(sheet)}
}

// Govern attaches an execution governor (may be nil) and adopts its
// recursion bound; it returns e for chaining. A governed engine checks for
// cancellation and budget exhaustion on every template instantiation.
func (e *Engine) Govern(g *governor.G) *Engine {
	e.gov = g
	e.MaxDepth = g.MaxDepth(defaultMaxDepth)
	return e
}

// Stylesheet returns the engine's stylesheet.
func (e *Engine) Stylesheet() *Stylesheet { return e.sheet }

// RuntimeError reports a dynamic error during a transformation.
type RuntimeError struct {
	Where string
	Err   error
}

func (r *RuntimeError) Error() string {
	return fmt.Sprintf("xslt: runtime error in %s: %v", r.Where, r.Err)
}

func (r *RuntimeError) Unwrap() error { return r.Err }

// frame is the per-transformation execution state.
type frame struct {
	engine *Engine
	out    *OutputBuilder
	// vars is the chain of in-scope variable bindings (innermost last).
	vars  []map[string]xpath.Value
	depth int
}

// Transform applies the stylesheet to doc (usually a document node) and
// returns the result tree as a document fragment node.
func (e *Engine) Transform(doc *xmltree.Node) (*xmltree.Node, error) {
	doc = e.sheet.StripSourceSpace(doc)
	f := &frame{engine: e, out: NewOutputBuilder()}
	f.pushScope()
	if err := f.bindGlobals(doc); err != nil {
		return nil, err
	}
	if err := f.applyTemplates([]*xmltree.Node{doc}, "", nil, -1); err != nil {
		return nil, err
	}
	result := f.out.Finish()
	result.Renumber()
	return result, nil
}

// TransformToString applies the stylesheet and serializes the result
// fragment without an XML declaration.
func (e *Engine) TransformToString(doc *xmltree.Node) (string, error) {
	frag, err := e.Transform(doc)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	frag.Serialize(&sb, xmltree.SerializeOptions{OmitDecl: true})
	return sb.String(), nil
}

func (f *frame) bindGlobals(doc *xmltree.Node) error {
	for _, def := range f.engine.sheet.GlobalVars {
		v, err := f.evalVarDef(def, doc)
		if err != nil {
			return err
		}
		f.bind(def.Name, v)
	}
	return nil
}

func (f *frame) pushScope() { f.vars = append(f.vars, map[string]xpath.Value{}) }
func (f *frame) popScope()  { f.vars = f.vars[:len(f.vars)-1] }
func (f *frame) bind(name string, v xpath.Value) {
	f.vars[len(f.vars)-1][name] = v
}

// LookupVar implements xpath.Variables over the scope chain.
func (f *frame) LookupVar(name string) (xpath.Value, bool) {
	for i := len(f.vars) - 1; i >= 0; i-- {
		if v, ok := f.vars[i][name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (f *frame) xpathContext(node *xmltree.Node, pos, size int) *xpath.Context {
	ctx := &xpath.Context{Node: node, Position: pos, Size: size, Vars: f}
	if f.engine.Runtime != nil {
		ctx.Funcs = f.engine.Runtime.Resolve
	}
	return ctx
}

func (f *frame) enter(where string) error {
	if err := f.engine.gov.Tick(); err != nil {
		return err
	}
	f.depth++
	if f.depth > f.engine.MaxDepth {
		return &RuntimeError{Where: where, Err: fmt.Errorf("%w: recursion deeper than %d (infinite template recursion?)", governor.ErrRecursionLimit, f.engine.MaxDepth)}
	}
	return nil
}

func (f *frame) leave() { f.depth-- }

// applyTemplates instantiates the best-matching template for each of nodes,
// in order, passing wp (nil: none) as its with-param values.
func (f *frame) applyTemplates(nodes []*xmltree.Node, mode string, wp map[string]xpath.Value, traceID int) error {
	for i, node := range nodes {
		if err := f.applyOne(node, mode, i+1, len(nodes), wp, traceID); err != nil {
			return err
		}
	}
	return nil
}

// applyOne is one template activation: it finds the rule for node, counts
// and traces the activation, and instantiates the rule with wp, or the
// built-in rule (which takes no parameters).
func (f *frame) applyOne(node *xmltree.Node, mode string, pos, size int, wp map[string]xpath.Value, traceID int) error {
	if err := f.enter("apply-templates"); err != nil {
		return err
	}
	defer f.leave()

	tmpl, err := f.engine.FindTemplate(node, mode, f)
	if err != nil {
		return err
	}
	f.engine.templatesApplied.Add(1)
	if f.engine.Trace != nil {
		f.engine.Trace(TraceEvent{TraceID: traceID, Node: node, Template: tmpl, Builtin: tmpl == nil})
	}
	if tmpl == nil {
		return f.builtinRule(node, mode)
	}
	return f.instantiate(tmpl, node, pos, size, wp)
}

// FindTemplate returns the highest-priority template matching node in mode,
// or nil when only the built-in rules apply (conflict resolution per XSLT
// 1.0 §5.5: priority first, then document order).
func (e *Engine) FindTemplate(node *xmltree.Node, mode string, vars xpath.Variables) (*Template, error) {
	var best *Template
	for _, t := range e.sheet.Templates {
		if t.Match == nil || t.Mode != mode {
			continue
		}
		ok, err := t.Match.Matches(node, vars)
		if err != nil {
			return nil, &RuntimeError{Where: t.String(), Err: err}
		}
		if !ok {
			continue
		}
		if best == nil || t.Priority > best.Priority ||
			(t.Priority == best.Priority && t.Index > best.Index) {
			best = t
		}
	}
	return best, nil
}

// builtinRule implements the XSLT 1.0 built-in template rules.
func (f *frame) builtinRule(node *xmltree.Node, mode string) error {
	switch node.Kind {
	case xmltree.DocumentNode, xmltree.ElementNode:
		return f.applyTemplates(node.Children, mode, nil, -1)
	case xmltree.TextNode, xmltree.AttributeNode:
		f.out.Text(node.StringValue())
	}
	// Comments and PIs: built-in rule produces nothing.
	return nil
}

func (f *frame) instantiate(t *Template, node *xmltree.Node, pos, size int, withParams map[string]xpath.Value) error {
	f.pushScope()
	defer f.popScope()
	for _, p := range t.Params {
		if v, ok := withParams[p.Name]; ok {
			f.bind(p.Name, v)
			continue
		}
		v, err := f.evalVarDef(p, node)
		if err != nil {
			return err
		}
		f.bind(p.Name, v)
	}
	return f.execSeq(t.Body, node, pos, size)
}

func (f *frame) execSeq(body []Instruction, node *xmltree.Node, pos, size int) error {
	f.pushScope() // xsl:variable scope covers following siblings
	defer f.popScope()
	for _, instr := range body {
		if err := f.exec(instr, node, pos, size); err != nil {
			return err
		}
	}
	return nil
}

func (f *frame) exec(instr Instruction, node *xmltree.Node, pos, size int) error {
	// Amortized governance check per instruction: covers xsl:for-each
	// bodies and long literal sequences that never instantiate a template.
	if err := f.engine.gov.Tick(); err != nil {
		return err
	}
	ctx := f.xpathContext(node, pos, size)
	switch in := instr.(type) {
	case *Text:
		f.out.Text(in.Data)

	case *MakeText:
		f.out.Text(in.Data)

	case *ValueOf:
		v, err := xpath.Eval(in.Select, ctx)
		if err != nil {
			return &RuntimeError{Where: "xsl:value-of", Err: err}
		}
		f.out.Text(xpath.ToString(v))

	case *LiteralElement:
		f.out.OpenElement(in.QName)
		for _, a := range in.Attrs {
			val, err := a.Value.Eval(ctx)
			if err != nil {
				return &RuntimeError{Where: "attribute value template", Err: err}
			}
			f.out.Attr(a.QName, val)
		}
		if err := f.execSeq(in.Body, node, pos, size); err != nil {
			return err
		}
		f.out.CloseElement()

	case *MakeElement:
		name, err := in.Name.Eval(ctx)
		if err != nil {
			return &RuntimeError{Where: "xsl:element", Err: err}
		}
		f.out.OpenElement(name)
		if err := f.execSeq(in.Body, node, pos, size); err != nil {
			return err
		}
		f.out.CloseElement()

	case *MakeAttribute:
		name, err := in.Name.Eval(ctx)
		if err != nil {
			return &RuntimeError{Where: "xsl:attribute", Err: err}
		}
		val, err := f.evalToString(in.Body, node, pos, size)
		if err != nil {
			return err
		}
		if err := f.out.Attr(name, val); err != nil {
			return &RuntimeError{Where: "xsl:attribute", Err: err}
		}

	case *MakeComment:
		val, err := f.evalToString(in.Body, node, pos, size)
		if err != nil {
			return err
		}
		f.out.Comment(val)

	case *MakePI:
		name, err := in.Name.Eval(ctx)
		if err != nil {
			return &RuntimeError{Where: "xsl:processing-instruction", Err: err}
		}
		val, err := f.evalToString(in.Body, node, pos, size)
		if err != nil {
			return err
		}
		f.out.PI(name, val)

	case *ApplyTemplates:
		selected, err := f.selectNodes(in.Select, ctx)
		if err != nil {
			return &RuntimeError{Where: "xsl:apply-templates", Err: err}
		}
		if len(in.Sorts) > 0 {
			selected, err = f.sortNodes(selected, in.Sorts, ctx)
			if err != nil {
				return err
			}
		}
		// with-param values are evaluated in the caller's context.
		wp, err := f.evalWithParams(in.Params, node)
		if err != nil {
			return err
		}
		return f.applyTemplates(selected, in.Mode, wp, in.TraceID)

	case *CallTemplate:
		var target *Template
		for _, t := range f.engine.sheet.Templates {
			if t.Name == in.Name {
				target = t
				break
			}
		}
		if target == nil {
			return &RuntimeError{Where: "xsl:call-template", Err: fmt.Errorf("no template named %q", in.Name)}
		}
		wp, err := f.evalWithParams(in.Params, node)
		if err != nil {
			return err
		}
		if err := f.enter("call-template " + in.Name); err != nil {
			return err
		}
		defer f.leave()
		return f.instantiate(target, node, pos, size, wp)

	case *ForEach:
		selected, err := xpath.EvalNodeSet(in.Select, ctx)
		if err != nil {
			return &RuntimeError{Where: "xsl:for-each", Err: err}
		}
		nodes := []*xmltree.Node(selected)
		if len(in.Sorts) > 0 {
			nodes, err = f.sortNodes(nodes, in.Sorts, ctx)
			if err != nil {
				return err
			}
		}
		for i, n := range nodes {
			if err := f.execSeq(in.Body, n, i+1, len(nodes)); err != nil {
				return err
			}
		}

	case *If:
		v, err := xpath.Eval(in.Test, ctx)
		if err != nil {
			return &RuntimeError{Where: "xsl:if", Err: err}
		}
		if xpath.ToBool(v) {
			return f.execSeq(in.Body, node, pos, size)
		}

	case *Choose:
		for _, w := range in.Whens {
			v, err := xpath.Eval(w.Test, ctx)
			if err != nil {
				return &RuntimeError{Where: "xsl:when", Err: err}
			}
			if xpath.ToBool(v) {
				return f.execSeq(w.Body, node, pos, size)
			}
		}
		return f.execSeq(in.Otherwise, node, pos, size)

	case *Copy:
		switch node.Kind {
		case xmltree.ElementNode:
			f.out.OpenElement(node.QName())
			if err := f.execSeq(in.Body, node, pos, size); err != nil {
				return err
			}
			f.out.CloseElement()
		case xmltree.TextNode:
			f.out.Text(node.Data)
		case xmltree.AttributeNode:
			if err := f.out.Attr(node.QName(), node.Data); err != nil {
				return &RuntimeError{Where: "xsl:copy", Err: err}
			}
		case xmltree.CommentNode:
			f.out.Comment(node.Data)
		case xmltree.ProcInstNode:
			f.out.PI(node.Name, node.Data)
		case xmltree.DocumentNode:
			return f.execSeq(in.Body, node, pos, size)
		}

	case *CopyOf:
		v, err := xpath.Eval(in.Select, ctx)
		if err != nil {
			return &RuntimeError{Where: "xsl:copy-of", Err: err}
		}
		if ns, ok := v.(xpath.NodeSet); ok {
			for _, n := range ns {
				f.out.CopyNode(n)
			}
		} else {
			f.out.Text(xpath.ToString(v))
		}

	case *DeclareVar:
		v, err := f.evalVarDef(in.Def, node)
		if err != nil {
			return err
		}
		f.bind(in.Def.Name, v)

	case *NumberInstr:
		if in.Value != nil {
			v, err := xpath.Eval(in.Value, ctx)
			if err != nil {
				return &RuntimeError{Where: "xsl:number", Err: err}
			}
			f.out.Text(xpath.NumberToString(xpath.ToNumber(v)))
			return nil
		}
		// level="single", default count pattern: position among preceding
		// siblings with the same name, plus one.
		n := 1
		if p := node.Parent; p != nil {
			for _, sib := range p.Children {
				if sib == node {
					break
				}
				if sib.Kind == node.Kind && sib.Name == node.Name {
					n++
				}
			}
		}
		f.out.Text(fmt.Sprintf("%d", n))

	case *Message:
		val, err := f.evalToString(in.Body, node, pos, size)
		if err != nil {
			return err
		}
		f.engine.Messages = append(f.engine.Messages, val)
		if in.Terminate {
			return &RuntimeError{Where: "xsl:message", Err: fmt.Errorf("terminated: %s", val)}
		}

	default:
		return &RuntimeError{Where: "exec", Err: fmt.Errorf("unhandled instruction %T", instr)}
	}
	return nil
}

// selectNodes evaluates an apply-templates select (nil = child::node()).
func (f *frame) selectNodes(sel xpath.Expr, ctx *xpath.Context) ([]*xmltree.Node, error) {
	if sel == nil {
		return ctx.Node.Children, nil
	}
	ns, err := xpath.EvalNodeSet(sel, ctx)
	if err != nil {
		return nil, err
	}
	return ns, nil
}

func (f *frame) evalWithParams(defs []*VarDef, node *xmltree.Node) (map[string]xpath.Value, error) {
	if len(defs) == 0 {
		return nil, nil
	}
	wp := make(map[string]xpath.Value, len(defs))
	for _, def := range defs {
		v, err := f.evalVarDef(def, node)
		if err != nil {
			return nil, err
		}
		wp[def.Name] = v
	}
	return wp, nil
}

// evalVarDef computes the value of a variable/param definition: select
// expression, result tree fragment from the body, or empty string.
func (f *frame) evalVarDef(def *VarDef, node *xmltree.Node) (xpath.Value, error) {
	if def.Select != nil {
		v, err := xpath.Eval(def.Select, f.xpathContext(node, 1, 1))
		if err != nil {
			return nil, &RuntimeError{Where: "variable $" + def.Name, Err: err}
		}
		return v, nil
	}
	if len(def.Body) == 0 {
		return "", nil
	}
	frag, err := f.evalToFragment(def.Body, node)
	if err != nil {
		return nil, err
	}
	// Result tree fragments are modelled as a node-set containing the
	// fragment root (a common XSLT 1.0 extension; string() and copy-of
	// behave per spec).
	return xpath.NodeSet{frag}, nil
}

// evalToFragment runs body against a fresh output builder and returns the
// fragment root.
func (f *frame) evalToFragment(body []Instruction, node *xmltree.Node) (*xmltree.Node, error) {
	saved := f.out
	f.out = NewOutputBuilder()
	err := f.execSeq(body, node, 1, 1)
	frag := f.out.Finish()
	f.out = saved
	if err != nil {
		return nil, err
	}
	frag.Renumber()
	return frag, nil
}

func (f *frame) evalToString(body []Instruction, node *xmltree.Node, pos, size int) (string, error) {
	frag, err := f.evalToFragment(body, node)
	if err != nil {
		return "", err
	}
	return frag.StringValue(), nil
}

// sortNodes orders nodes by the sort keys, stably, most-significant first.
func (f *frame) sortNodes(nodes []*xmltree.Node, sorts []SortKey, outer *xpath.Context) ([]*xmltree.Node, error) {
	type keyed struct {
		node *xmltree.Node
		strs []string
		nums []float64
	}
	items := make([]keyed, len(nodes))
	for i, n := range nodes {
		it := keyed{node: n}
		for _, sk := range sorts {
			ctx := f.xpathContext(n, i+1, len(nodes))
			v, err := xpath.Eval(sk.Select, ctx)
			if err != nil {
				return nil, &RuntimeError{Where: "xsl:sort", Err: err}
			}
			if sk.Numeric {
				it.nums = append(it.nums, xpath.ToNumber(v))
				it.strs = append(it.strs, "")
			} else {
				it.strs = append(it.strs, xpath.ToString(v))
				it.nums = append(it.nums, 0)
			}
		}
		items[i] = it
	}
	sort.SliceStable(items, func(a, b int) bool {
		for k, sk := range sorts {
			var cmp int
			if sk.Numeric {
				x, y := items[a].nums[k], items[b].nums[k]
				switch {
				case x < y:
					cmp = -1
				case x > y:
					cmp = 1
				}
			} else {
				cmp = strings.Compare(items[a].strs[k], items[b].strs[k])
			}
			if sk.Descending {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	out := make([]*xmltree.Node, len(items))
	for i, it := range items {
		out[i] = it.node
	}
	return out, nil
}
