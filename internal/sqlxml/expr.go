// Package sqlxml implements the SQL/XML publishing layer: the standard
// generation functions (XMLElement, XMLAttributes, XMLAgg, XMLConcat, plus
// scalar aggregates) as an operator tree, XMLType views over relational
// tables (paper Table 3), and executable SQL/XML queries (paper Tables 7
// and 11) that pick B-tree access paths through internal/relstore.
package sqlxml

import (
	"fmt"
	"strings"

	"repro/internal/governor"
	"repro/internal/relstore"
	"repro/internal/xmltree"
)

// XMLExpr produces XML content from one row of a driving table.
type XMLExpr interface {
	// SQL renders the expression in SQL/XML syntax for EXPLAIN output and
	// documentation golden tests.
	SQL() string
}

// Element is XMLElement(name, attrs..., children...).
type Element struct {
	Name     string
	Attrs    []Attr
	Children []XMLExpr
}

// Attr is one XMLAttributes entry; the value is a column reference or
// literal.
type Attr struct {
	Name  string
	Value XMLExpr // Column or Literal
}

// Column emits the row's column value as text content.
type Column struct{ Name string }

// Literal emits constant text.
type Literal struct{ Text string }

// Concat is XMLConcat(items...): the children concatenated.
type Concat struct{ Items []XMLExpr }

// Agg is XMLAgg over a correlated scalar subquery: for each matching row of
// the inner table, Body is constructed; results concatenate in order.
type Agg struct{ Sub *SubQuery }

// ScalarAgg is a SQL aggregate (COUNT/SUM/AVG/MIN/MAX) over a correlated
// subquery, emitted as text content.
type ScalarAgg struct {
	Fn  string // "count", "sum", "avg", "min", "max"
	Col string // aggregated column ("" for count(*))
	Sub *SubQuery
}

// Cond is a conditional constructor (SQL CASE WHEN over the current row):
// when every predicate holds for the row, Then is constructed, else Else.
type Cond struct {
	Preds []relstore.Pred
	Then  XMLExpr
	Else  XMLExpr // may be nil
}

// SQL renders the conditional as CASE WHEN.
func (c *Cond) SQL() string {
	var conds []string
	for _, p := range c.Preds {
		conds = append(conds, strings.ToUpper(p.String()))
	}
	out := "CASE WHEN " + strings.Join(conds, " AND ") + " THEN " + c.Then.SQL()
	if c.Else != nil {
		out += " ELSE " + c.Else.SQL()
	}
	return out + " END"
}

// SubQuery is a correlated subquery over an inner table.
type SubQuery struct {
	Table string
	// Correlation predicate inner.CorrInner = outer.CorrOuter; both empty
	// for an uncorrelated subquery.
	CorrInner string
	CorrOuter string
	// Where holds additional constant predicates (candidates for index
	// access).
	Where []relstore.Pred
	// OrderBy optionally orders inner rows by a column.
	OrderBy    string
	Descending bool
	// Body is evaluated per inner row (for Agg).
	Body XMLExpr
}

// SQL renders the element constructor.
func (e *Element) SQL() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("%q", e.Name))
	if len(e.Attrs) > 0 {
		var as []string
		for _, a := range e.Attrs {
			as = append(as, fmt.Sprintf("%s AS %q", a.Value.SQL(), a.Name))
		}
		parts = append(parts, "XMLAttributes("+strings.Join(as, ", ")+")")
	}
	for _, c := range e.Children {
		parts = append(parts, c.SQL())
	}
	return "XMLElement(" + strings.Join(parts, ", ") + ")"
}

// SQL renders the column reference.
func (c *Column) SQL() string { return strings.ToUpper(c.Name) }

// SQL renders the literal.
func (l *Literal) SQL() string { return "'" + strings.ReplaceAll(l.Text, "'", "''") + "'" }

// SQL renders XMLConcat.
func (c *Concat) SQL() string {
	parts := make([]string, len(c.Items))
	for i, it := range c.Items {
		parts[i] = it.SQL()
	}
	return "XMLConcat(" + strings.Join(parts, ", ") + ")"
}

// SQL renders the correlated XMLAgg subquery.
func (a *Agg) SQL() string {
	return "(SELECT XMLAgg(" + a.Sub.Body.SQL() + ")" + a.Sub.fromWhereSQL() + ")"
}

// SQL renders the scalar aggregate subquery.
func (s *ScalarAgg) SQL() string {
	col := "*"
	if s.Col != "" {
		col = strings.ToUpper(s.Col)
	}
	return "(SELECT " + strings.ToUpper(s.Fn) + "(" + col + ")" + s.Sub.fromWhereSQL() + ")"
}

func (q *SubQuery) fromWhereSQL() string {
	var sb strings.Builder
	sb.WriteString(" FROM " + strings.ToUpper(q.Table))
	var conds []string
	for _, p := range q.Where {
		conds = append(conds, strings.ToUpper(p.String()))
	}
	if q.CorrInner != "" {
		conds = append(conds, strings.ToUpper(q.CorrInner)+" = OUTER."+strings.ToUpper(q.CorrOuter))
	}
	if len(conds) > 0 {
		sb.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if q.OrderBy != "" {
		sb.WriteString(" ORDER BY " + strings.ToUpper(q.OrderBy))
		if q.Descending {
			sb.WriteString(" DESC")
		}
	}
	return sb.String()
}

// evalContext carries the execution state while constructing XML for a row.
// Every table read — driving row, correlated subquery, scalar aggregate —
// goes through one pinned database snapshot, so a whole run observes a
// single committed state no matter how many inserts land mid-run.
//
// An evalContext belongs to one goroutine and is reused for every driving
// row it constructs, so nothing below is set up per row or per subquery
// evaluation: the row frames live as long as the context, and the subquery
// plans with their group scratch are drawn from a pool once per run. It
// serves both halves of construction: the byte program (program.go) and the
// tree walk below.
type evalContext struct {
	snap  *relstore.Snapshot
	stats *relstore.Stats
	// gov, when non-nil, bounds the construction: deep Agg nests and wide
	// scans abort promptly on cancellation or budget exhaustion.
	gov *governor.G
	// ticks counts the ops run (or expression nodes walked) since the
	// governor was last charged (flushTicks): the run's shared tick counter
	// is one contended cache line, so construction charges it every tickFlush
	// ops and at the end of each driving row instead of once per op.
	ticks int
	// params binds the placeholders of subquery WHERE clauses as their plans
	// are made; filters holds the program's CASE WHEN predicates, bound once
	// per run (Program.bind), and conds the walk's, compiled at the first row
	// each Cond tests.
	params  map[string]relstore.Value
	filters []relstore.Filter
	conds   map[*Cond][]relstore.Filter
	// open is the program's run-time "start tag open" bit.
	open bool
	// workers is how many morsel workers may construct one large Agg group
	// (split.go); at most 1 — as on every morsel worker's own context —
	// keeps every group serial. (int32 packs it beside open.)
	workers int32

	// driving is the row list being constructed at nesting depth 0 — the
	// driving batch; the group an Agg iterates is the list of its inner
	// frame, one level down.
	driving frame
	// lists numbers the row lists installed so far (frame.list).
	lists uint64
	// subs holds the run's subquery plans, found by SubQuery identity
	// (subBuf backs the first few).
	subs   []*subPlan
	subBuf [4]*subPlan
	// num is the formatting buffer for numeric values.
	num [32]byte
}

// tickFlush is how many ops construction runs between governor charges.
// Every flush is at least the governor's amortization interval, so it
// performs a full cancellation check; at some ten to fifty nanoseconds an
// op, a cancel is seen within tens of microseconds. It is this large
// because the workers splitting one group (split.go) share the counter: a
// flush every 64 ops cost a split some 6 % of its time in contention.
const tickFlush = 1024

// flushTicks charges the ops run since the last flush.
func (ec *evalContext) flushTicks() error {
	n := ec.ticks
	ec.ticks = 0
	return ec.gov.TickN(n)
}

// evalDoc constructs the XML of expr for the current driving row as a
// document tree and settles the row's governor charge.
func (ec *evalContext) evalDoc(expr XMLExpr) (*xmltree.Node, error) {
	doc := xmltree.NewDocument()
	if err := ec.eval(&treeSink{cur: doc}, expr, &ec.driving); err != nil {
		return nil, err
	}
	if err := ec.flushTicks(); err != nil {
		return nil, err
	}
	doc.Renumber()
	return doc, nil
}

// eval walks expr for the current row of f and builds what it constructs
// into out. This is the tree half of construction — the functional
// strategies' input and the byte program's identity oracle — so it stays a
// plain walk of the expression.
func (ec *evalContext) eval(out *treeSink, expr XMLExpr, f *frame) error {
	if ec.ticks++; ec.ticks >= tickFlush {
		if err := ec.flushTicks(); err != nil {
			return err
		}
	}
	switch e := expr.(type) {
	case *Literal:
		out.text(e.Text)
		return nil
	case *Column:
		ec.emitCell(out, f, e.Name)
		return nil
	case *Element:
		out.startElement(e.Name)
		// A repeated attribute name keeps the first one's position and the
		// last one's value (Node.SetAttr replaces in place), so only that
		// value is evaluated, there — as the program compiles it.
		for i, a := range e.Attrs {
			last := lastAttrNamed(e.Attrs, i)
			if last < 0 {
				continue
			}
			out.startAttr(a.Name)
			err := ec.evalScalar(out, e.Attrs[last].Value, f)
			out.endAttr()
			if err != nil {
				return err
			}
		}
		for _, c := range e.Children {
			if err := ec.eval(out, c, f); err != nil {
				return err
			}
		}
		out.endElement()
		return nil
	case *Concat:
		for _, it := range e.Items {
			if err := ec.eval(out, it, f); err != nil {
				return err
			}
		}
		return nil
	case *Agg:
		inner, ids, err := ec.group(e.Sub, f)
		if err != nil {
			return err
		}
		// The group becomes the row list one level down, so the subqueries
		// of the body join against all of it at once.
		body := ec.nest(f, inner, ids)
		for i := range ids {
			body.setPos(i)
			if err := ec.eval(out, e.Sub.Body, body); err != nil {
				return err
			}
		}
		return nil
	case *ScalarAgg:
		inner, ids, err := ec.group(e.Sub, f)
		if err != nil {
			return err
		}
		ec.emitScalarAgg(out, e, inner, ids)
		return nil
	case *Cond:
		holds := true
		fs := ec.condFilters(e, f.ts)
		for i := range fs {
			if !fs[i].Matches(f.ts, f.id) {
				holds = false
				break
			}
		}
		if holds {
			return ec.eval(out, e.Then, f)
		}
		if e.Else != nil {
			return ec.eval(out, e.Else, f)
		}
		return nil
	}
	return fmt.Errorf("sqlxml: unhandled expression %T", expr)
}

// condFilters returns e's predicates compiled against ts, the table of the
// rows e tests: compiled at the first test in this run, as the program
// compiles them with the plan. (The walk runs a bound body, so every
// predicate compares with a constant.)
func (ec *evalContext) condFilters(e *Cond, ts *relstore.TableSnap) []relstore.Filter {
	if fs, ok := ec.conds[e]; ok {
		return fs
	}
	fs := make([]relstore.Filter, len(e.Preds))
	for i, p := range e.Preds {
		ord := ts.ColIndex(p.Col)
		var typ relstore.ColType
		if ord >= 0 {
			typ = ts.Type(ord)
		}
		fs[i] = relstore.CompileFilter(typ, ord, p.Op, p.Val)
	}
	if ec.conds == nil {
		ec.conds = make(map[*Cond][]relstore.Filter)
	}
	ec.conds[e] = fs
	return fs
}

// evalScalar evaluates a scalar-producing expression (Column, Literal,
// ScalarAgg, or a Concat of those) into the attribute out has open.
func (ec *evalContext) evalScalar(out *treeSink, expr XMLExpr, f *frame) error {
	switch e := expr.(type) {
	case *Literal:
		out.text(e.Text)
		return nil
	case *Column:
		ec.emitCell(out, f, e.Name)
		return nil
	case *ScalarAgg:
		inner, ids, err := ec.group(e.Sub, f)
		if err != nil {
			return err
		}
		ec.emitScalarAgg(out, e, inner, ids)
		return nil
	case *Concat:
		for _, it := range e.Items {
			if err := ec.evalScalar(out, it, f); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("sqlxml: attribute value must be scalar, got %T", expr)
}

// emitCell adds the current row's cell of column col as text, formatted as
// the program formats it: NULL (or a column the table does not have) is no
// text. A VARCHAR cell becomes a string here, at the tree's edge.
func (ec *evalContext) emitCell(out *treeSink, f *frame, col string) {
	ord := f.ts.ColIndex(col)
	if ord < 0 {
		return
	}
	ec.emitAt(out, f.ts, ord, f.id)
}

// textOp formats a number for emitAt: as attribute text, so formatting it
// touches no start tag of a program's run.
var textOp = op{attr: true}

// emitAt adds the cell of row id in column ord of ts as text.
func (ec *evalContext) emitAt(out *treeSink, ts *relstore.TableSnap, ord, id int) {
	if ts.Type(ord) == relstore.StringCol {
		if b, ok := ts.Text(ord, id); ok {
			out.text(string(b))
		}
		return
	}
	if buf := ec.cellAt(ec.num[:0], &textOp, ts, ord, id); len(buf) > 0 {
		out.text(string(buf))
	}
}

// emitScalarAgg adds a SQL aggregate over the selected inner rows as text
// (aggregate).
func (ec *evalContext) emitScalarAgg(out *treeSink, e *ScalarAgg, inner *relstore.TableSnap, ids []int) {
	ord := inner.ColIndex(e.Col)
	num, best, isNum := aggregate(aggOf(e.Fn), inner, ord, ids)
	switch {
	case isNum:
		out.text(string(appendFloat(ec.num[:0], num)))
	case best >= 0:
		ec.emitAt(out, inner, ord, best)
	}
}
