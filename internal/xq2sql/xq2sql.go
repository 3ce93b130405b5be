// Package xq2sql implements the second rewrite stage of the paper (§2,
// Tables 7 and 11): an XQuery produced by the XSLT rewriter, running over an
// XMLType view generated from relational tables, is lowered to a SQL/XML
// query that constructs the result directly from the columns — "it does not
// contain any XSLT or XPath operators at all". XPath value predicates
// become relational predicates eligible for B-tree index access.
//
// The translator handles the expression shapes the inline-mode rewriter
// emits (FLWOR over view paths, direct constructors, fn:string/fn:concat of
// column-backed leaves, count/sum aggregates). Shapes outside the mapping
// return ErrNotRelational, and callers fall back to functional XQuery
// evaluation over the materialized view — mirroring the paper, where the
// rewrite applies when the structure is known and is abandoned otherwise.
package xq2sql

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/faultpoint"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// ErrNotRelational marks queries that cannot be lowered to SQL/XML; the
// caller should fall back to functional evaluation.
var ErrNotRelational = errors.New("xq2sql: query shape does not map to the relational view")

func notRelational(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotRelational, fmt.Sprintf(format, args...))
}

// viewNode is a position in the view's constructor tree.
type viewNode struct {
	// elem is the element constructor at this position (nil at a pure
	// column/literal position).
	name string
	// table supplying columns at this position.
	table string
	// children by element name, in declaration order.
	children []*viewNode
	// attrs maps attribute names to their backing columns (XMLAttributes
	// entries whose value is a column reference).
	attrs map[string]string
	// col is the backing column of a text leaf ("" otherwise). An element
	// whose content mixes the column with literals, aggregates or child
	// elements has none: its string value is not the column's.
	col string
	// agg links to the repeated child produced by an XMLAgg subquery.
	agg *aggInfo
}

type aggInfo struct {
	sub  *sqlxml.SubQuery
	body *viewNode // the element produced per inner row
}

func (n *viewNode) child(name string) *viewNode {
	for _, c := range n.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// buildViewTree converts a view body into the navigable form.
func buildViewTree(expr sqlxml.XMLExpr, table string) (*viewNode, error) {
	el, ok := expr.(*sqlxml.Element)
	if !ok {
		return nil, notRelational("view body must be an XMLElement")
	}
	node := &viewNode{name: el.Name, table: table}
	for _, a := range el.Attrs {
		if c, ok := a.Value.(*sqlxml.Column); ok {
			if node.attrs == nil {
				node.attrs = map[string]string{}
			}
			node.attrs[a.Name] = c.Name
		}
	}
	text := 0 // items contributing to the element's string value
	var walk func(children []sqlxml.XMLExpr) error
	walk = func(children []sqlxml.XMLExpr) error {
		for _, c := range children {
			switch x := c.(type) {
			case *sqlxml.Element:
				kid, err := buildViewTree(x, table)
				if err != nil {
					return err
				}
				node.children = append(node.children, kid)
				text++
			case *sqlxml.Column:
				node.col = x.Name
				text++
			case *sqlxml.Literal:
				text++
			case *sqlxml.Concat:
				if err := walk(x.Items); err != nil {
					return err
				}
			case *sqlxml.Agg:
				body, err := buildViewTree(x.Sub.Body, x.Sub.Table)
				if err != nil {
					return err
				}
				body.agg = &aggInfo{sub: x.Sub, body: body}
				node.children = append(node.children, body)
				text++
			case *sqlxml.ScalarAgg:
				text++ // aggregate text content; not navigable below
			default:
				return notRelational("unsupported view construct %T", c)
			}
		}
		return nil
	}
	if err := walk(el.Children); err != nil {
		return nil, err
	}
	if text > 1 {
		node.col = ""
	}
	return node, nil
}

// binding is what an XQuery variable resolves to.
type binding struct {
	node *viewNode
	// doc marks the $var000 binding (the document above the root element).
	doc bool
}

// translator lowers one module.
type translator struct {
	view *sqlxml.ViewDef
	root *viewNode
	vars map[string]binding

	// where collects predicates hoisted from view-root steps (selection
	// pushdown): `$var000/dept[deptno = 10]/...` filters the DRIVING table,
	// so the predicate belongs in Query.Where where the access-path chooser
	// can turn it into an index probe. whereSet distinguishes "no root
	// navigation seen" from "root navigated without predicates" — every
	// doc-rooted navigation must agree on the root predicates, or hoisting
	// would change which rows the other navigations see.
	where    []relstore.Pred
	whereSet bool
}

// hoistRootPreds records predicates found on a view-root step, enforcing
// agreement across navigations.
func (tr *translator) hoistRootPreds(ps []relstore.Pred) error {
	if !tr.whereSet {
		tr.where, tr.whereSet = ps, true
		return nil
	}
	if !predsEqual(tr.where, ps) {
		return notRelational("navigations disagree on view-root predicates; cannot hoist the selection")
	}
	return nil
}

func predsEqual(a, b []relstore.Pred) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Translate lowers a generated XQuery module into a SQL/XML query over the
// view's driving table. The module must follow the inline-rewriter shape:
// `declare variable $var000 := .;` binding the view row document.
func Translate(m *xquery.Module, view *sqlxml.ViewDef) (*sqlxml.Query, error) {
	if err := faultpoint.Hit("xq2sql.translate"); err != nil {
		return nil, err
	}
	root, err := buildViewTree(view.Body, view.Table)
	if err != nil {
		return nil, err
	}
	tr := &translator{view: view, root: root, vars: map[string]binding{}}

	if len(m.Funcs) > 0 {
		return nil, notRelational("query declares functions (non-inline rewrite); only fully inlined queries lower to SQL/XML")
	}
	for _, v := range m.Vars {
		if _, ok := xquery.Unwrap(v.Init).(xquery.ContextItem); ok {
			tr.vars[v.Name] = binding{doc: true}
			continue
		}
		return nil, notRelational("unsupported prolog variable $%s", v.Name)
	}

	body, err := tr.exprList(m.Body)
	if err != nil {
		return nil, err
	}
	q := &sqlxml.Query{Table: view.Table, Where: tr.where, Body: concatOf(body)}
	hoistTopCond(q)
	return q, nil
}

// hoistTopCond promotes a whole-body conditional (a match-pattern predicate
// compiled into `if (...) then ... else ()`) into the query's WHERE clause:
// a driving row that fails the condition produces nothing, so filtering the
// row at the access path is equivalent to constructing an empty result — and
// makes the predicate eligible for index access.
func hoistTopCond(q *sqlxml.Query) {
	c, ok := q.Body.(*sqlxml.Cond)
	if !ok || c.Else != nil || len(c.Preds) == 0 {
		return
	}
	q.Where = append(q.Where, c.Preds...)
	q.Body = c.Then
}

func concatOf(items []sqlxml.XMLExpr) sqlxml.XMLExpr {
	if len(items) == 1 {
		return items[0]
	}
	return &sqlxml.Concat{Items: items}
}

// exprList translates an expression into a list of XML constructors.
func (tr *translator) exprList(e xquery.Expr) ([]sqlxml.XMLExpr, error) {
	switch x := e.(type) {
	case *xquery.Annotated:
		return tr.exprList(x.X)
	case xquery.EmptySeq:
		return nil, nil
	case *xquery.Sequence:
		var out []sqlxml.XMLExpr
		for _, item := range x.Items {
			sub, err := tr.exprList(item)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	case xquery.TextLit:
		return []sqlxml.XMLExpr{&sqlxml.Literal{Text: string(x)}}, nil
	case xquery.StringLit:
		return []sqlxml.XMLExpr{&sqlxml.Literal{Text: string(x)}}, nil
	case *xquery.CompText:
		return tr.textValue(x.Body)
	case *xquery.DirectElem:
		el, err := tr.directElem(x)
		if err != nil {
			return nil, err
		}
		return []sqlxml.XMLExpr{el}, nil
	case *xquery.FuncCall:
		return tr.funcValue(x)
	case *xquery.FLWOR:
		return tr.flwor(x)
	case *xquery.IfExpr:
		return tr.condExpr(x)
	case *xquery.CompElem:
		return tr.compElem(x)
	}
	return nil, notRelational("unsupported expression %T", e)
}

// textValue translates the body of text{...}: fn:string(path) → Column,
// literals stay literal, fn:concat mixes.
func (tr *translator) textValue(e xquery.Expr) ([]sqlxml.XMLExpr, error) {
	switch x := xquery.Unwrap(e).(type) {
	case xquery.StringLit:
		return []sqlxml.XMLExpr{&sqlxml.Literal{Text: string(x)}}, nil
	case *xquery.FuncCall:
		return tr.funcValue(x)
	}
	return nil, notRelational("unsupported text content %T", e)
}

func (tr *translator) funcValue(f *xquery.FuncCall) ([]sqlxml.XMLExpr, error) {
	switch strings.TrimPrefix(f.Name, "fn:") {
	case "string":
		if len(f.Args) != 1 {
			return nil, notRelational("fn:string arity")
		}
		// fn:string over an aggregate lowers through the aggregate.
		if inner, ok := xquery.Unwrap(f.Args[0]).(*xquery.FuncCall); ok {
			return tr.funcValue(inner)
		}
		if lit, ok := xquery.Unwrap(f.Args[0]).(xquery.StringLit); ok {
			return []sqlxml.XMLExpr{&sqlxml.Literal{Text: string(lit)}}, nil
		}
		col, err := tr.columnOf(f.Args[0])
		if err != nil {
			return nil, err
		}
		return []sqlxml.XMLExpr{col}, nil
	case "concat":
		var out []sqlxml.XMLExpr
		for _, a := range f.Args {
			sub, err := tr.textValue(a)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	case "count", "sum":
		agg, err := tr.scalarAgg(strings.TrimPrefix(f.Name, "fn:"), f.Args)
		if err != nil {
			return nil, err
		}
		return []sqlxml.XMLExpr{agg}, nil
	}
	return nil, notRelational("unsupported function %s in content", f.Name)
}

// scalarAgg lowers count(path)/sum(path) over an aggregated view child into
// a SQL aggregate subquery.
func (tr *translator) scalarAgg(fn string, args []xquery.Expr) (sqlxml.XMLExpr, error) {
	if len(args) != 1 {
		return nil, notRelational("%s arity", fn)
	}
	node, preds, trailingCol, err := tr.resolveAggPath(args[0])
	if err != nil {
		return nil, err
	}
	sub := &sqlxml.SubQuery{
		Table:     node.agg.sub.Table,
		CorrInner: node.agg.sub.CorrInner,
		CorrOuter: node.agg.sub.CorrOuter,
		Where:     append(append([]relstore.Pred{}, node.agg.sub.Where...), preds...),
	}
	col := trailingCol
	if fn == "sum" && col == "" {
		return nil, notRelational("sum() needs a column-backed path")
	}
	return &sqlxml.ScalarAgg{Fn: fn, Col: col, Sub: sub}, nil
}

// resolveAggPath resolves a path ending at (or just below) an aggregated
// child: returns the agg node, translated predicates, and the trailing
// column when the path descends one leaf further.
func (tr *translator) resolveAggPath(e xquery.Expr) (*viewNode, []relstore.Pred, string, error) {
	path, ok := xquery.Unwrap(e).(*xquery.Path)
	if !ok {
		return nil, nil, "", notRelational("aggregate argument must be a path")
	}
	base, steps, err := tr.pathBase(path)
	if err != nil {
		return nil, nil, "", err
	}
	node := base
	var preds []relstore.Pred
	for i, s := range steps {
		if s.Axis != xpath.AxisChild || s.Test.Kind != xpath.TestName {
			return nil, nil, "", notRelational("unsupported step %s", s.Test.String())
		}
		next := node.child(s.Test.Name)
		if next == nil {
			return nil, nil, "", notRelational("no child %q in view structure", s.Test.Name)
		}
		node = next
		if node.agg != nil {
			ps, err := tr.stepPreds(s, node)
			if err != nil {
				return nil, nil, "", err
			}
			preds = ps
			rest := steps[i+1:]
			switch len(rest) {
			case 0:
				return node, preds, "", nil
			case 1:
				leaf := node.child(rest[0].Test.Name)
				if leaf == nil || leaf.col == "" {
					return nil, nil, "", notRelational("aggregate path tail %q is not column-backed", rest[0].Test.String())
				}
				return node, preds, leaf.col, nil
			default:
				return nil, nil, "", notRelational("aggregate path too deep")
			}
		}
		if len(s.Preds) > 0 {
			return nil, nil, "", notRelational("predicate before the aggregated child")
		}
	}
	return nil, nil, "", notRelational("path does not reach an aggregated child")
}

// directElem lowers a direct constructor.
func (tr *translator) directElem(d *xquery.DirectElem) (sqlxml.XMLExpr, error) {
	el := &sqlxml.Element{Name: d.Name}
	for _, a := range d.Attrs {
		if len(a.Parts) == 1 && a.Parts[0].Expr == nil {
			el.Attrs = append(el.Attrs, sqlxml.Attr{Name: a.Name, Value: &sqlxml.Literal{Text: a.Parts[0].Text}})
			continue
		}
		if len(a.Parts) == 1 {
			vals, err := tr.textValue(a.Parts[0].Expr)
			if err != nil {
				return nil, err
			}
			if len(vals) == 1 {
				el.Attrs = append(el.Attrs, sqlxml.Attr{Name: a.Name, Value: vals[0]})
				continue
			}
		}
		return nil, notRelational("unsupported attribute template on %s/@%s", d.Name, a.Name)
	}
	for _, c := range d.Children {
		// Computed attribute constructors with a static name attach to
		// the element (xsl:attribute lowering).
		if ca, ok := xquery.Unwrap(c).(*xquery.CompAttr); ok {
			name, okn := xquery.Unwrap(ca.Name).(xquery.StringLit)
			if !okn {
				return nil, notRelational("computed attribute name on %s", d.Name)
			}
			vals, err := tr.textValue(ca.Body)
			if err != nil {
				return nil, err
			}
			val := concatOf(vals)
			el.Attrs = append(el.Attrs, sqlxml.Attr{Name: string(name), Value: val})
			continue
		}
		sub, err := tr.exprList(c)
		if err != nil {
			return nil, err
		}
		el.Children = append(el.Children, sub...)
	}
	return el, nil
}

// flwor lowers let bindings (navigation) and for loops over aggregated
// children (XMLAgg subqueries).
func (tr *translator) flwor(f *xquery.FLWOR) ([]sqlxml.XMLExpr, error) {
	if f.Where != nil {
		return nil, notRelational("where clauses are not lowered (predicates belong in the path)")
	}
	if len(f.Clauses) == 0 {
		return tr.exprList(f.Return)
	}
	cl := f.Clauses[0]
	rest := &xquery.FLWOR{Clauses: f.Clauses[1:], Where: f.Where, Order: f.Order, Return: f.Return}
	if len(rest.Clauses) == 0 && rest.Where == nil && len(rest.Order) == 0 {
		// fall through to Return directly when this was the last clause
	}

	switch cl.Kind {
	case xquery.ClauseLet:
		node, preds, err := tr.resolveNav(cl.In)
		if err != nil {
			return nil, err
		}
		if len(preds) > 0 {
			return nil, notRelational("predicates on a let-bound single child")
		}
		saved, had := tr.vars[cl.Var]
		tr.vars[cl.Var] = binding{node: node}
		defer func() {
			if had {
				tr.vars[cl.Var] = saved
			} else {
				delete(tr.vars, cl.Var)
			}
		}()
		return tr.tail(rest)

	case xquery.ClauseFor:
		node, preds, err := tr.resolveNav(cl.In)
		if err != nil {
			return nil, err
		}
		if node.agg == nil {
			return nil, notRelational("for loop over a non-repeating view child %q", node.name)
		}
		if cl.At != "" {
			return nil, notRelational("positional variables are not lowered")
		}
		saved, had := tr.vars[cl.Var]
		tr.vars[cl.Var] = binding{node: node}
		defer func() {
			if had {
				tr.vars[cl.Var] = saved
			} else {
				delete(tr.vars, cl.Var)
			}
		}()

		sub := &sqlxml.SubQuery{
			Table:     node.agg.sub.Table,
			CorrInner: node.agg.sub.CorrInner,
			CorrOuter: node.agg.sub.CorrOuter,
			Where:     append(append([]relstore.Pred{}, node.agg.sub.Where...), preds...),
		}
		// order by a column of the inner table.
		if len(rest.Order) > 0 {
			if len(rest.Order) > 1 {
				return nil, notRelational("multiple order keys")
			}
			col, desc, err := tr.orderColumn(rest.Order[0], cl.Var)
			if err != nil {
				return nil, err
			}
			sub.OrderBy, sub.Descending = col, desc
			rest.Order = nil
		}
		body, err := tr.tail(rest)
		if err != nil {
			return nil, err
		}
		sub.Body = concatOf(body)
		return []sqlxml.XMLExpr{&sqlxml.Agg{Sub: sub}}, nil
	}
	return nil, notRelational("unsupported clause")
}

func (tr *translator) tail(rest *xquery.FLWOR) ([]sqlxml.XMLExpr, error) {
	if len(rest.Clauses) == 0 && rest.Where == nil && len(rest.Order) == 0 {
		return tr.exprList(rest.Return)
	}
	return tr.flwor(rest)
}

// orderColumn maps an order key like fn:number($v/sal) to an inner column.
func (tr *translator) orderColumn(k xquery.OrderKey, loopVar string) (string, bool, error) {
	e := xquery.Unwrap(k.Expr)
	if f, ok := e.(*xquery.FuncCall); ok && len(f.Args) == 1 {
		switch strings.TrimPrefix(f.Name, "fn:") {
		case "number", "string":
			e = xquery.Unwrap(f.Args[0])
		}
	}
	col, err := tr.columnOf(e)
	if err != nil {
		return "", false, err
	}
	c, ok := col.(*sqlxml.Column)
	if !ok {
		return "", false, notRelational("order key is not a column")
	}
	return c.Name, k.Descending, nil
}

// resolveNav resolves a navigation expression (a path from a bound
// variable) to a view node plus any translated predicates.
func (tr *translator) resolveNav(e xquery.Expr) (*viewNode, []relstore.Pred, error) {
	path, ok := xquery.Unwrap(e).(*xquery.Path)
	if !ok {
		if v, okv := xquery.Unwrap(e).(xquery.VarRef); okv {
			if b, okb := tr.vars[string(v)]; okb && b.node != nil {
				return b.node, nil, nil
			}
		}
		return nil, nil, notRelational("unsupported navigation %T", e)
	}
	base, steps, err := tr.pathBase(path)
	if err != nil {
		return nil, nil, err
	}
	node := base
	var preds []relstore.Pred
	for _, s := range steps {
		if s.Axis != xpath.AxisChild || s.Test.Kind != xpath.TestName {
			return nil, nil, notRelational("unsupported step %q", s.Test.String())
		}
		next := node.child(s.Test.Name)
		if next == nil {
			return nil, nil, notRelational("no child %q under %q in the view", s.Test.Name, node.name)
		}
		node = next
		ps, err := tr.stepPreds(s, node)
		if err != nil {
			return nil, nil, err
		}
		preds = append(preds, ps...)
	}
	return node, preds, nil
}

// pathBase resolves the path's base variable to a view node; a doc binding
// consumes the first step (the root element name).
func (tr *translator) pathBase(p *xquery.Path) (*viewNode, []*xquery.Step, error) {
	v, ok := xquery.Unwrap(p.Base).(xquery.VarRef)
	if !ok {
		return nil, nil, notRelational("path base must be a variable, got %T", p.Base)
	}
	b, okb := tr.vars[string(v)]
	if !okb {
		return nil, nil, notRelational("unbound variable $%s", string(v))
	}
	steps := p.Steps
	if b.doc {
		if len(steps) == 0 || steps[0].Test.Kind != xpath.TestName || steps[0].Test.Name != tr.root.name {
			return nil, nil, notRelational("document path must start at the view root element %q", tr.root.name)
		}
		// Predicates on the root step select DRIVING rows: hoist them into
		// the query's WHERE clause (selection pushdown) instead of rejecting.
		ps, err := tr.stepPreds(steps[0], tr.root)
		if err != nil {
			return nil, nil, err
		}
		if err := tr.hoistRootPreds(ps); err != nil {
			return nil, nil, err
		}
		return tr.root, steps[1:], nil
	}
	if b.node == nil {
		return nil, nil, notRelational("variable $%s has no view binding", string(v))
	}
	return b.node, steps, nil
}

// stepPreds translates a step's predicates against the node's backing
// table: each must be `childLeaf op literal`.
func (tr *translator) stepPreds(s *xquery.Step, node *viewNode) ([]relstore.Pred, error) {
	var out []relstore.Pred
	for _, pred := range s.Preds {
		p, err := tr.onePred(pred, node)
		if err != nil {
			return nil, err
		}
		out = append(out, p...)
	}
	return out, nil
}

func (tr *translator) onePred(e xquery.Expr, node *viewNode) ([]relstore.Pred, error) {
	switch x := xquery.Unwrap(e).(type) {
	case *xquery.Binary:
		switch x.Op {
		case xquery.OpAnd:
			l, err := tr.onePred(x.L, node)
			if err != nil {
				return nil, err
			}
			r, err := tr.onePred(x.R, node)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		case xquery.OpEq, xquery.OpNe, xquery.OpLt, xquery.OpLe, xquery.OpGt, xquery.OpGe:
			col, lit, flipped, err := tr.predOperands(x.L, x.R, node)
			if err != nil {
				return nil, err
			}
			op, err := cmpOp(x.Op, flipped)
			if err != nil {
				return nil, err
			}
			return []relstore.Pred{{Col: col, Op: op, Val: lit}}, nil
		}
	}
	return nil, notRelational("unsupported predicate %s", e.String())
}

// predOperands identifies the column side and the literal side.
func (tr *translator) predOperands(l, r xquery.Expr, node *viewNode) (col string, lit relstore.Value, flipped bool, err error) {
	if c, ok := tr.relColumn(l, node); ok {
		v, okv := tr.literalValue(r)
		if !okv {
			return "", nil, false, notRelational("comparison against a non-literal")
		}
		return c, v, false, nil
	}
	if c, ok := tr.relColumn(r, node); ok {
		v, okv := tr.literalValue(l)
		if !okv {
			return "", nil, false, notRelational("comparison against a non-literal")
		}
		return c, v, true, nil
	}
	return "", nil, false, notRelational("no column operand in predicate")
}

// relColumn maps a context-relative path (inside a predicate) to a column
// of the node's element: a child text leaf, or an attribute backed by a
// column (`@id` → the id column).
func (tr *translator) relColumn(e xquery.Expr, node *viewNode) (string, bool) {
	p, ok := xquery.Unwrap(e).(*xquery.Path)
	if !ok || p.Base != nil || p.Abs || len(p.Steps) != 1 {
		return "", false
	}
	s := p.Steps[0]
	if s.Test.Kind != xpath.TestName || len(s.Preds) != 0 {
		return "", false
	}
	switch s.Axis {
	case xpath.AxisChild:
		leaf := node.child(s.Test.Name)
		if leaf == nil || leaf.col == "" {
			return "", false
		}
		return leaf.col, true
	case xpath.AxisAttribute:
		col, ok := node.attrs[s.Test.Name]
		return col, ok
	}
	return "", false
}

// literalValue maps a run-time-constant operand to a relstore value. A free
// variable reference (one not bound to a view position) becomes a ParamValue
// placeholder: the plan compiles once and the caller binds the value per run
// (WithParam), so `row[@id = $id]` parameterizes one compiled plan.
func (tr *translator) literalValue(e xquery.Expr) (relstore.Value, bool) {
	switch x := xquery.Unwrap(e).(type) {
	case xquery.NumberLit:
		f := float64(x)
		if f == float64(int64(f)) {
			return int64(f), true
		}
		return f, true
	case xquery.StringLit:
		return string(x), true
	case xquery.VarRef:
		if _, bound := tr.vars[string(x)]; !bound {
			return relstore.ParamValue(string(x)), true
		}
	}
	return nil, false
}

func cmpOp(op xquery.BinOp, flipped bool) (relstore.CmpOp, error) {
	if flipped {
		switch op {
		case xquery.OpLt:
			op = xquery.OpGt
		case xquery.OpLe:
			op = xquery.OpGe
		case xquery.OpGt:
			op = xquery.OpLt
		case xquery.OpGe:
			op = xquery.OpLe
		}
	}
	switch op {
	case xquery.OpEq:
		return relstore.CmpEq, nil
	case xquery.OpNe:
		return relstore.CmpNe, nil
	case xquery.OpLt:
		return relstore.CmpLt, nil
	case xquery.OpLe:
		return relstore.CmpLe, nil
	case xquery.OpGt:
		return relstore.CmpGt, nil
	case xquery.OpGe:
		return relstore.CmpGe, nil
	}
	return 0, notRelational("operator %v", op)
}

// columnOf maps a navigation expression to a Column (or Literal for
// constant leaves).
func (tr *translator) columnOf(e xquery.Expr) (sqlxml.XMLExpr, error) {
	node, preds, err := tr.resolveNav(e)
	if err != nil {
		return nil, err
	}
	if len(preds) > 0 {
		return nil, notRelational("predicates on a scalar path")
	}
	if node.col == "" {
		return nil, notRelational("element %q is not column-backed", node.name)
	}
	return &sqlxml.Column{Name: node.col}, nil
}

// condExpr lowers `if (pred) then A else B` into a CASE-style conditional
// when the condition maps to column predicates on a bound loop variable.
func (tr *translator) condExpr(x *xquery.IfExpr) ([]sqlxml.XMLExpr, error) {
	preds, err := tr.condPreds(x.Cond)
	if err != nil {
		return nil, err
	}
	thenList, err := tr.exprList(x.Then)
	if err != nil {
		return nil, err
	}
	cond := &sqlxml.Cond{Preds: preds, Then: concatOf(thenList)}
	if x.Else != nil {
		if _, empty := xquery.Unwrap(x.Else).(xquery.EmptySeq); !empty {
			elseList, err := tr.exprList(x.Else)
			if err != nil {
				return nil, err
			}
			cond.Else = concatOf(elseList)
		}
	}
	return []sqlxml.XMLExpr{cond}, nil
}

// condPreds maps a boolean expression over a single bound variable's
// columns into relational predicates. Besides direct comparisons and
// conjunctions it lowers the shapes the match-pattern compiler emits
// (internal/core/pattern.go): `$c instance of element(name)` tests that the
// view structure already guarantees, and `fn:exists(($c)[pred])` filters
// whose predicates are column comparisons.
func (tr *translator) condPreds(e xquery.Expr) ([]relstore.Pred, error) {
	switch x := xquery.Unwrap(e).(type) {
	case *xquery.Binary:
		if x.Op == xquery.OpAnd {
			l, err := tr.condPreds(x.L)
			if err != nil {
				return nil, err
			}
			r, err := tr.condPreds(x.R)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		}
		col, lit, flipped, err := tr.condOperands(x.L, x.R)
		if err != nil {
			return nil, err
		}
		op, err := cmpOp(x.Op, flipped)
		if err != nil {
			return nil, err
		}
		return []relstore.Pred{{Col: col, Op: op, Val: lit}}, nil
	case *xquery.FuncCall:
		switch strings.TrimPrefix(x.Name, "fn:") {
		case "true":
			if len(x.Args) == 0 {
				return nil, nil
			}
		case "exists":
			if len(x.Args) == 1 {
				if flt, ok := xquery.Unwrap(x.Args[0]).(*xquery.Filter); ok {
					return tr.filterPreds(flt)
				}
			}
		}
	case *xquery.InstanceOf:
		if tr.instanceStaticallyTrue(x) {
			return nil, nil
		}
	}
	return nil, notRelational("unsupported condition %s", e.String())
}

// filterPreds lowers a match-pattern filter `($c)[pred...]` into column
// predicates against the candidate's view position.
func (tr *translator) filterPreds(flt *xquery.Filter) ([]relstore.Pred, error) {
	node, navPreds, err := tr.resolveNav(flt.Base)
	if err != nil {
		return nil, err
	}
	if len(navPreds) > 0 {
		return nil, notRelational("filter over a predicated path")
	}
	var out []relstore.Pred
	for _, p := range flt.Preds {
		ps, err := tr.onePred(p, node)
		if err != nil {
			return nil, err
		}
		out = append(out, ps...)
	}
	return out, nil
}

// instanceStaticallyTrue reports whether an `instance of` test is satisfied
// by the view structure itself: the variable is bound to a view element
// whose name matches the tested element type.
func (tr *translator) instanceStaticallyTrue(x *xquery.InstanceOf) bool {
	v, ok := xquery.Unwrap(x.X).(xquery.VarRef)
	if !ok {
		return false
	}
	b, okb := tr.vars[string(v)]
	if !okb || b.node == nil {
		return false
	}
	return x.Type.Kind == xquery.SeqTypeElement && (x.Type.Name == "" || x.Type.Name == b.node.name)
}

// condOperands maps `$v/leaf op literal` (either side) to a column name.
// Unlike predicate context, paths here are variable-rooted.
func (tr *translator) condOperands(l, r xquery.Expr) (string, relstore.Value, bool, error) {
	if col, err := tr.columnOf(l); err == nil {
		if c, ok := col.(*sqlxml.Column); ok {
			v, okv := tr.literalValue(r)
			if !okv {
				return "", nil, false, notRelational("condition against a non-literal")
			}
			return c.Name, v, false, nil
		}
	}
	if col, err := tr.columnOf(r); err == nil {
		if c, ok := col.(*sqlxml.Column); ok {
			v, okv := tr.literalValue(l)
			if !okv {
				return "", nil, false, notRelational("condition against a non-literal")
			}
			return c.Name, v, true, nil
		}
	}
	return "", nil, false, notRelational("condition has no column operand")
}

// compElem lowers a computed element constructor with a static name
// (xsl:element name="..."), treating its body like direct content.
func (tr *translator) compElem(c *xquery.CompElem) ([]sqlxml.XMLExpr, error) {
	name, ok := xquery.Unwrap(c.Name).(xquery.StringLit)
	if !ok {
		return nil, notRelational("computed element name")
	}
	d := &xquery.DirectElem{Name: string(name)}
	if c.Body != nil {
		if seq, okSeq := xquery.Unwrap(c.Body).(*xquery.Sequence); okSeq {
			d.Children = seq.Items
		} else {
			d.Children = []xquery.Expr{c.Body}
		}
	}
	el, err := tr.directElem(d)
	if err != nil {
		return nil, err
	}
	return []sqlxml.XMLExpr{el}, nil
}
