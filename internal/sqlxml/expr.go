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
// plans with their group scratch are drawn from a pool once per run. It runs
// programs of both emitters (program.go).
type evalContext struct {
	snap  *relstore.Snapshot
	stats *relstore.Stats
	// gov, when non-nil, bounds the construction: deep Agg nests and wide
	// scans abort promptly on cancellation or budget exhaustion.
	gov *governor.G
	// ticks counts the ops run since the governor was last charged
	// (flushTicks): the run's shared tick counter is one contended cache
	// line, so construction charges it every tickFlush ops and at the end of
	// each driving row instead of once per op.
	ticks int
	// params binds the placeholders of subquery WHERE clauses as their plans
	// are made; filters holds the program's CASE WHEN predicates, bound once
	// per run (Program.bind).
	params  map[string]relstore.Value
	filters []relstore.Filter
	// open is a byte program's run-time "start tag open" bit.
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
	// sink is the document a tree program is building (runDoc), and raw the
	// bytes its value ops have written since its last opFlush.
	sink treeSink
	raw  []byte
	// fetched keeps what the member loop's fetches return, so that the
	// compiler cannot drop their loads (members).
	fetched uint64
}

// tickFlush is how many ops construction runs between governor charges.
// The count is of source ops: a program's superinstruction (a column op
// with the static run before it folded in) counts as the two it stands for,
// and evaluating a chunk's CASE WHEN masks counts nothing, as the per-member
// test it replaces counted nothing beyond its opCond; so the ticks a run
// charges do not depend on either. Every flush is at least the governor's
// amortization interval, so it performs a full cancellation check; at some
// ten to fifty nanoseconds an op, a cancel is seen within tens of
// microseconds. It is this large because the workers splitting one group
// (split.go) share the counter: a flush every 64 ops cost a split some 6 %
// of its time in contention.
const tickFlush = 1024

// flushTicks charges the ops run since the last flush.
func (ec *evalContext) flushTicks() error {
	n := ec.ticks
	ec.ticks = 0
	return ec.gov.TickN(n)
}
