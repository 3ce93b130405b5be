// Package sqlxml implements the SQL/XML publishing layer: the standard
// generation functions (XMLElement, XMLAttributes, XMLAgg, XMLConcat, plus
// scalar aggregates) as an operator tree, XMLType views over relational
// tables (paper Table 3), and executable SQL/XML queries (paper Tables 7
// and 11) that pick B-tree access paths through internal/relstore.
package sqlxml

import (
	"fmt"
	"sort"
	"strconv"
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
// row it constructs, so the scratch below is allocated once per run, not
// once per row or per subquery.
type evalContext struct {
	snap  *relstore.Snapshot
	stats *relstore.Stats
	// gov, when non-nil, bounds the construction: deep Agg nests and wide
	// scans abort promptly on cancellation or budget exhaustion.
	gov *governor.G

	// Pinned driving row (setRow): the batch engine hands the cursor row
	// references straight from the snapshot, so cell reads on the current
	// driving row skip even the snapshot's bounds check.
	curTable *relstore.TableSnap
	curRow   []relstore.Value
	curID    int

	// preds is the predicate list of the correlated subquery being planned
	// (its iterator is drained before the next subquery starts). ids holds
	// one selected-row-id list per Agg nesting depth: the list at depth d is
	// being iterated while the subqueries of its body fill depth d+1.
	preds []relstore.Pred
	ids   [][]int
	depth int
	// num is the formatting buffer for numeric values.
	num [32]byte
}

// setRow pins the driving row the next eval constructs from. row may be
// nil to unpin (reads fall back to the snapshot's Value path).
func (ec *evalContext) setRow(ts *relstore.TableSnap, id int, row []relstore.Value) {
	ec.curTable, ec.curID, ec.curRow = ts, id, row
}

// cell reads one column of (ts, id), via the pinned row when it matches.
func (ec *evalContext) cell(ts *relstore.TableSnap, id int, col string) relstore.Value {
	if ec.curRow != nil && ts == ec.curTable && id == ec.curID {
		if ci := ts.ColIndex(col); ci >= 0 && ci < len(ec.curRow) {
			return ec.curRow[ci]
		}
		return nil
	}
	return ts.Value(id, col)
}

// evalDoc constructs the XML of expr for (table,rowID) as a document tree.
func (ec *evalContext) evalDoc(expr XMLExpr, table *relstore.TableSnap, rowID int) (*xmltree.Node, error) {
	doc := xmltree.NewDocument()
	if err := ec.eval(&treeSink{cur: doc}, expr, table, rowID); err != nil {
		return nil, err
	}
	doc.Renumber()
	return doc, nil
}

// eval walks expr for (table,rowID) and reports what it constructs to out.
func (ec *evalContext) eval(out xmlSink, expr XMLExpr, table *relstore.TableSnap, rowID int) error {
	if err := ec.gov.Tick(); err != nil {
		return err
	}
	switch e := expr.(type) {
	case *Literal:
		out.text(e.Text)
		return nil
	case *Column:
		ec.emitValue(out, ec.cell(table, rowID, e.Name))
		return nil
	case *Element:
		out.startElement(e.Name)
		for i, a := range e.Attrs {
			// An element carries one attribute per name: a repeated name
			// keeps the first one's position and the last one's value.
			if last := lastAttrNamed(e.Attrs, i); last >= 0 {
				out.startAttr(a.Name)
				err := ec.evalScalar(out, e.Attrs[last].Value, table, rowID)
				out.endAttr()
				if err != nil {
					return err
				}
			}
		}
		for _, c := range e.Children {
			if err := ec.eval(out, c, table, rowID); err != nil {
				return err
			}
		}
		out.endElement(e.Name)
		return nil
	case *Concat:
		for _, it := range e.Items {
			if err := ec.eval(out, it, table, rowID); err != nil {
				return err
			}
		}
		return nil
	case *Agg:
		inner, ids, err := ec.subqueryRows(e.Sub, table, rowID)
		if err != nil {
			return err
		}
		ec.depth++ // ids stays live while the body's subqueries fill the next depth
		for _, id := range ids {
			if err = ec.eval(out, e.Sub.Body, inner, id); err != nil {
				break
			}
		}
		ec.depth--
		return err
	case *ScalarAgg:
		inner, ids, err := ec.subqueryRows(e.Sub, table, rowID)
		if err != nil {
			return err
		}
		ec.emitScalarAgg(out, e, inner, ids)
		return nil
	case *Cond:
		holds := true
		for _, p := range e.Preds {
			if !p.Matches(ec.cell(table, rowID, p.Col)) {
				holds = false
				break
			}
		}
		if holds {
			return ec.eval(out, e.Then, table, rowID)
		}
		if e.Else != nil {
			return ec.eval(out, e.Else, table, rowID)
		}
		return nil
	}
	return fmt.Errorf("sqlxml: unhandled expression %T", expr)
}

// lastAttrNamed resolves attribute i of an element against repeated names:
// -1 when an earlier attribute already claimed the name (this one only
// overrides that one's value), otherwise the index of the last attribute
// with the same name — i itself in the usual, duplicate-free case.
func lastAttrNamed(attrs []Attr, i int) int {
	if len(attrs) == 1 {
		return i
	}
	for j := 0; j < i; j++ {
		if sameName(attrs[j].Name, attrs[i].Name) {
			return -1
		}
	}
	last := i
	for j := i + 1; j < len(attrs); j++ {
		if sameName(attrs[j].Name, attrs[i].Name) {
			last = j
		}
	}
	return last
}

// sameName reports whether two qualified names denote the same (prefix,
// local) pair, which is how an xmltree element keys its attributes.
func sameName(a, b string) bool {
	if a == b {
		return true
	}
	pa, la := splitName(a)
	pb, lb := splitName(b)
	return pa == pb && la == lb
}

// splitName splits a qualified name at its first ':' as xmltree nodes do.
func splitName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// evalScalar evaluates a scalar-producing expression (Column, Literal,
// ScalarAgg, or a Concat of those) into the attribute out has open.
func (ec *evalContext) evalScalar(out xmlSink, expr XMLExpr, table *relstore.TableSnap, rowID int) error {
	switch e := expr.(type) {
	case *Literal:
		out.text(e.Text)
		return nil
	case *Column:
		ec.emitValue(out, ec.cell(table, rowID, e.Name))
		return nil
	case *ScalarAgg:
		inner, ids, err := ec.subqueryRows(e.Sub, table, rowID)
		if err != nil {
			return err
		}
		ec.emitScalarAgg(out, e, inner, ids)
		return nil
	case *Concat:
		for _, it := range e.Items {
			if err := ec.evalScalar(out, it, table, rowID); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("sqlxml: attribute value must be scalar, got %T", expr)
}

// emitValue reports one cell value as text: NULL is no text, integers and
// floats print as %d / trimmed %g would.
func (ec *evalContext) emitValue(out xmlSink, v relstore.Value) {
	switch x := v.(type) {
	case nil:
	case string:
		out.text(x)
	case int64:
		out.number(strconv.AppendInt(ec.num[:0], x, 10))
	case float64:
		out.number(appendFloat(ec.num[:0], x))
	default:
		out.text(fmt.Sprint(v))
	}
}

// appendFloat formats f the way the SQL layer prints numbers: an integral
// value as an integer, anything else in the shortest %g form.
func appendFloat(dst []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// emitScalarAgg reports a SQL aggregate over the selected inner rows. An
// aggregate over no (non-NULL) values is NULL — no text — except count and
// sum, which are 0.
func (ec *evalContext) emitScalarAgg(out xmlSink, e *ScalarAgg, inner *relstore.TableSnap, ids []int) {
	if e.Fn == "count" {
		out.number(strconv.AppendInt(ec.num[:0], int64(len(ids)), 10))
		return
	}
	var total float64
	var count int
	var best relstore.Value
	for _, id := range ids {
		v := inner.Value(id, e.Col)
		if v == nil {
			continue
		}
		count++
		total += toF(v)
		if best == nil ||
			(e.Fn == "min" && relstore.CompareValues(v, best) < 0) ||
			(e.Fn == "max" && relstore.CompareValues(v, best) > 0) {
			best = v
		}
	}
	switch e.Fn {
	case "sum":
		out.number(appendFloat(ec.num[:0], total))
	case "avg":
		if count > 0 {
			out.number(appendFloat(ec.num[:0], total/float64(count)))
		}
	case "min", "max":
		ec.emitValue(out, best)
	}
}

func toF(v relstore.Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	case string:
		f, _ := strconv.ParseFloat(strings.TrimSpace(x), 64)
		return f
	}
	return 0
}

// subqueryRows plans and runs the subquery for one outer row, returning the
// pinned inner table and the selected row ids (ordered). The inner scan
// reads the run's snapshot, so a subquery re-evaluated per outer row always
// sees the same inner rows. The returned ids are the context's scratch for
// the current nesting depth: valid until the next subqueryRows at that depth.
func (ec *evalContext) subqueryRows(sub *SubQuery, outer *relstore.TableSnap, outerRow int) (*relstore.TableSnap, []int, error) {
	inner := ec.snap.Table(sub.Table)
	if inner == nil {
		return nil, nil, fmt.Errorf("sqlxml: unknown table %q", sub.Table)
	}
	preds := sub.Where
	if sub.CorrInner != "" {
		ov := ec.cell(outer, outerRow, sub.CorrOuter)
		ec.preds = append(append(ec.preds[:0], sub.Where...), relstore.Pred{Col: sub.CorrInner, Op: relstore.CmpEq, Val: ov})
		preds = ec.preds
	}
	it := relstore.AccessPathBatchAt(inner, preds, ec.stats, ec.gov)
	for len(ec.ids) <= ec.depth {
		ec.ids = append(ec.ids, nil)
	}
	ids := ec.ids[ec.depth][:0]
	batch := relstore.GetBatch(0)
	for {
		n, ok := it.NextBatch(batch)
		if !ok {
			break
		}
		ids = append(ids, batch.IDs[:n]...)
	}
	relstore.PutBatch(batch)
	ec.ids[ec.depth] = ids
	if err := it.Err(); err != nil {
		return nil, nil, err
	}
	if sub.OrderBy != "" {
		sortByCol(inner, ids, sub.OrderBy, sub.Descending)
	}
	return inner, ids, nil
}

func sortByCol(t *relstore.TableSnap, ids []int, col string, desc bool) {
	lessAsc := func(a, b int) bool {
		return relstore.CompareValues(t.Value(a, col), t.Value(b, col)) < 0
	}
	sort.SliceStable(ids, func(i, j int) bool {
		if desc {
			return lessAsc(ids[j], ids[i])
		}
		return lessAsc(ids[i], ids[j])
	})
}
