package relstore

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
)

// Stats counts physical work done by operators; the benchmark harness reads
// these to show that the rewrite path touches fewer rows. All increments are
// atomic, so one Stats value can serve as the sink for several concurrent
// iterators; read a live sink with Snapshot.
type Stats struct {
	RowsScanned int64 // heap rows visited by full scans
	// IndexProbes counts the B-tree descents actually made: one per opened
	// index scan with a non-empty interval, one per non-NULL outer key of an
	// index join. A descent that was skipped is not counted.
	IndexProbes int64
	RowsEmitted int64
	FullScans   int64 // full-scan operators started
	// RangeScans counts index operators started: one per opened index scan
	// (probe or range), one per index-join batch.
	RangeScans int64
	// RowsFiltered counts rows an access path visited but rejected on a
	// residual predicate — the "rows in minus rows out" of the filter
	// operator, which EXPLAIN ANALYZE reports as filter selectivity. Every
	// bound on the driving index column is part of the B-tree interval, so a
	// two-sided range filters nothing on that column.
	RowsFiltered int64
	// Batches counts the chunks emitted by batch producers — RowsEmitted
	// divided by Batches is the realized average batch size.
	Batches int64
	// Morsels counts the morsels the morsel pool's workers executed (zero
	// for serial scans).
	Morsels int64
}

// Add accumulates other into s (atomically).
func (s *Stats) Add(other *Stats) {
	atomic.AddInt64(&s.RowsScanned, atomic.LoadInt64(&other.RowsScanned))
	atomic.AddInt64(&s.IndexProbes, atomic.LoadInt64(&other.IndexProbes))
	atomic.AddInt64(&s.RowsEmitted, atomic.LoadInt64(&other.RowsEmitted))
	atomic.AddInt64(&s.FullScans, atomic.LoadInt64(&other.FullScans))
	atomic.AddInt64(&s.RangeScans, atomic.LoadInt64(&other.RangeScans))
	atomic.AddInt64(&s.RowsFiltered, atomic.LoadInt64(&other.RowsFiltered))
	atomic.AddInt64(&s.Batches, atomic.LoadInt64(&other.Batches))
	atomic.AddInt64(&s.Morsels, atomic.LoadInt64(&other.Morsels))
}

// Snapshot returns an atomically-read copy of the counters, safe to take
// while iterators are still writing to s.
func (s *Stats) Snapshot() Stats {
	return Stats{
		RowsScanned:  atomic.LoadInt64(&s.RowsScanned),
		IndexProbes:  atomic.LoadInt64(&s.IndexProbes),
		RowsEmitted:  atomic.LoadInt64(&s.RowsEmitted),
		FullScans:    atomic.LoadInt64(&s.FullScans),
		RangeScans:   atomic.LoadInt64(&s.RangeScans),
		RowsFiltered: atomic.LoadInt64(&s.RowsFiltered),
		Batches:      atomic.LoadInt64(&s.Batches),
		Morsels:      atomic.LoadInt64(&s.Morsels),
	}
}

// CmpOp is a comparison operator in a predicate.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the SQL spelling.
func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Pred is a simple column-vs-constant predicate; conjunctions are slices.
// Val may be a ParamValue placeholder, in which case the predicate must be
// bound with BindPreds before execution.
type Pred struct {
	Col string
	Op  CmpOp
	Val Value
}

// String renders the predicate in SQL style; parameter placeholders render
// as :name bind variables.
func (p Pred) String() string { return string(appendPred(nil, p)) }

// appendPred appends p as String renders it.
func appendPred(dst []byte, p Pred) []byte {
	dst = append(dst, p.Col...)
	dst = append(dst, ' ')
	dst = append(dst, p.Op.String()...)
	dst = append(dst, ' ')
	return appendValue(dst, p.Val, true)
}

// appendValue appends v as EXPLAIN and SQL text spell it: a parameter
// placeholder as its :name bind variable, a string in single quotes when
// quote is set, anything else as fmt's %v would.
func appendValue(dst []byte, v Value, quote bool) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case string:
		if !quote {
			return append(dst, x...)
		}
		dst = append(dst, '\'')
		dst = append(dst, x...)
		return append(dst, '\'')
	case ParamValue:
		dst = append(dst, ':')
		return append(dst, x...)
	case nil:
		return append(dst, "<nil>"...)
	}
	return append(dst, fmt.Sprint(v)...)
}

// ParamValue is a bind-variable placeholder inside Pred.Val: the predicate
// compares against the parameter's value supplied at execution time via
// BindPreds. An unbound placeholder never matches any row.
type ParamValue string

// ErrUnboundParam reports execution of a parameterized predicate without a
// value for one of its parameters.
var ErrUnboundParam = errors.New("relstore: unbound parameter")

// BindPreds substitutes parameter placeholders with values from params,
// returning a new slice (the input is never mutated — compiled plans share
// their predicate slices across concurrent runs). Predicates without
// placeholders pass through; a placeholder missing from params is an error
// wrapping ErrUnboundParam.
func BindPreds(preds []Pred, params map[string]Value) ([]Pred, error) {
	if !HasParams(preds) {
		return preds, nil
	}
	return AppendBound(make([]Pred, 0, len(preds)), preds, params)
}

// AppendBound appends preds to dst with every placeholder bound from params,
// as BindPreds does, so a caller can bind into a buffer of its own.
func AppendBound(dst, preds []Pred, params map[string]Value) ([]Pred, error) {
	for _, p := range preds {
		if name, ok := p.Val.(ParamValue); ok {
			v, err := Param(params, string(name))
			if err != nil {
				return nil, err
			}
			p.Val = v
		}
		dst = append(dst, p)
	}
	return dst, nil
}

// AppendBoundPartial is AppendBound's lenient form for EXPLAIN: a
// placeholder params does not bind stays a placeholder, rendering as :name.
func AppendBoundPartial(dst, preds []Pred, params map[string]Value) []Pred {
	for _, p := range preds {
		if name, ok := p.Val.(ParamValue); ok {
			if v, bound := params[string(name)]; bound {
				p.Val = v
			}
		}
		dst = append(dst, p)
	}
	return dst
}

// Param returns the value params binds to name, or an error wrapping
// ErrUnboundParam.
func Param(params map[string]Value, name string) (Value, error) {
	v, bound := params[name]
	if !bound {
		return nil, fmt.Errorf("%w: $%s (bind it with WithParam)", ErrUnboundParam, name)
	}
	return v, nil
}

// HasParams reports whether any predicate carries an unbound placeholder.
func HasParams(preds []Pred) bool {
	for _, p := range preds {
		if _, ok := p.Val.(ParamValue); ok {
			return true
		}
	}
	return false
}

// Matches evaluates the predicate against a boxed cell value: a number
// against a number by value, a NaN on either side unordered (it satisfies
// != and nothing else, as in XPath 1.0 §3.4), and values of incomparable
// types by CompareValues' type-name order. It is the reference semantics:
// no access path evaluates a residual through it — the filter kernels
// (kernel.go) answer the same from the typed vectors, and the tests hold
// them to it.
func (p Pred) Matches(cell Value) bool {
	if cell == nil || p.Val == nil {
		return false // SQL three-valued logic: NULL never matches
	}
	if _, ok := p.Val.(ParamValue); ok {
		return false // unbound placeholder: callers must BindPreds first
	}
	c := CompareValues(cell, p.Val)
	if c == 0 && (isNaN(cell) || isNaN(p.Val)) {
		c = unordered // a NaN against a number
	}
	return accepts(p.Op, c)
}

func isNaN(v Value) bool {
	f, ok := v.(float64)
	return ok && f != f
}

// appendRange appends the interval [lo, hi] on col. A bound's value is
// unquoted, and a parameter placeholder renders as its :name bind variable
// (a plan over an unbound parameter is still explainable — its shape does
// not depend on the value).
func appendRange(dst []byte, col string, lo, hi Bound) []byte {
	switch {
	case isPoint(lo, hi):
		dst = append(dst, col...)
		dst = append(dst, " = "...)
		return appendValue(dst, lo.Value, false)
	case lo.Unbounded && hi.Unbounded:
		return append(dst, "(full)"...)
	}
	if !lo.Unbounded {
		op := " > "
		if lo.Inclusive {
			op = " >= "
		}
		dst = append(dst, col...)
		dst = append(dst, op...)
		dst = appendValue(dst, lo.Value, false)
	}
	if !hi.Unbounded {
		op := " < "
		if hi.Inclusive {
			op = " <= "
		}
		if !lo.Unbounded {
			dst = append(dst, " AND "...)
		}
		dst = append(dst, col...)
		dst = append(dst, op...)
		dst = appendValue(dst, hi.Value, false)
	}
	return dst
}

// appendPreds appends the conjunction of preds.
func appendPreds(dst []byte, preds []Pred) []byte {
	for i, p := range preds {
		if i > 0 {
			dst = append(dst, " AND "...)
		}
		dst = appendPred(dst, p)
	}
	return dst
}

func predsString(preds []Pred) string { return string(appendPreds(nil, preds)) }

// PathKind classifies a physical access path.
type PathKind uint8

// Access-path kinds, cheapest first for a selective predicate.
const (
	// PathIndexProbe is a B-tree equality probe (point lookup).
	PathIndexProbe PathKind = iota
	// PathIndexRange is a B-tree range scan over a bounded interval.
	PathIndexRange
	// PathFullScan reads every heap row, applying predicates as residual
	// filters.
	PathFullScan
)

// String names the path kind as it appears in EXPLAIN output.
func (k PathKind) String() string {
	switch k {
	case PathIndexProbe:
		return "index probe"
	case PathIndexRange:
		return "index range scan"
	default:
		return "full scan"
	}
}

// AccessPlan is a planned physical access path: the outcome of PlanAccessAt,
// openable into a BatchIterator. Separating planning from opening lets callers
// (the sqlxml access-path chooser) inspect or veto the choice — and report
// it — before any row is touched.
type AccessPlan struct {
	Kind PathKind
	// Col is the driving index column (index paths only).
	Col string
	// Lo and Hi bound the B-tree interval (index paths only).
	Lo, Hi Bound
	// Residual holds the predicates applied per row after the driving
	// access (every predicate, for a full scan).
	Residual []Pred
	// TableRows is the table's row count observed at planning time — the
	// statistic the chooser's cost reasoning is based on.
	TableRows int
}

// sargable reports whether p can bound a B-tree interval over a column of
// type typ. Its constant must be of the column's kind, a number on INT or
// FLOAT and a string on VARCHAR, to order against the keys as the kernels
// order it; a placeholder is planned as one, which is what WithParam binds.
// A NaN is unordered against every key, and a constant of another kind
// orders against every key by type name, the NaN key included, which the
// tree keeps outside every interval: either stays a residual filter.
func sargable(p Pred, typ ColType) bool {
	if p.Op == CmpNe {
		return false
	}
	switch v := p.Val.(type) {
	case ParamValue:
		return true
	case string:
		return typ == StringCol
	case int64:
		return typ != StringCol
	case float64:
		return typ != StringCol && v == v
	}
	return false
}

// PlanAccessAt plans the physical access for a conjunction of predicates over
// a pinned snapshot: a B-tree probe when an indexed column has an equality
// predicate, a range scan for an indexed inequality, otherwise a full scan.
// This is the "standard relational optimizer can select the index on the sal
// column" step of the paper (§2.1). The TableRows statistic is the snapshot's
// committed row count, so a plan chosen for a pinned run reflects exactly the
// state that run will scan. Predicates carrying unbound ParamValue
// placeholders are still planned (the plan shape does not depend on the
// value) but must be bound before Open.
//
// Every sargable predicate on the chosen index column folds into ONE
// interval [Lo, Hi]: the tightest bound on each side wins and, at equal
// values, an exclusive bound beats an inclusive one, so `c >= 10 AND c < 35`
// walks the keys it returns and nothing else. Contradictory bounds make an
// interval no key is in — an empty scan, not an error. A bound that cannot
// be ordered against the one already in place (an unbound placeholder at
// EXPLAIN time) stays a residual filter.
func PlanAccessAt(ts *TableSnap, preds []Pred) AccessPlan {
	rows := ts.NumRows()
	best := -1
	for i, p := range preds {
		if typ, _ := ts.ColType(p.Col); !ts.HasIndex(p.Col) || !sargable(p, typ) {
			continue
		}
		// Prefer equality probes over ranges.
		if best == -1 || (p.Op == CmpEq && preds[best].Op != CmpEq) {
			best = i
		}
	}
	if best == -1 {
		return AccessPlan{Kind: PathFullScan, Residual: preds, TableRows: rows}
	}
	plan := AccessPlan{Kind: PathIndexRange, Col: preds[best].Col, TableRows: rows, Lo: UnboundedBound, Hi: UnboundedBound}
	typ, _ := ts.ColType(plan.Col)
	plan.tighten(preds[best]) // first, so an equality is never displaced by a placeholder bound
	for i, p := range preds {
		if i == best {
			continue
		}
		if p.Col != plan.Col || !sargable(p, typ) || !plan.tighten(p) {
			plan.Residual = append(plan.Residual, p)
		}
	}
	if isPoint(plan.Lo, plan.Hi) {
		plan.Kind = PathIndexProbe
	}
	return plan
}

// tighten intersects the plan's interval with one sargable predicate on its
// column. It reports false, leaving the interval as it was, when the
// predicate's value cannot be ordered against a bound already in place.
func (p *AccessPlan) tighten(q Pred) bool {
	lo, hi := UnboundedBound, UnboundedBound
	switch q.Op {
	case CmpEq:
		lo = Bound{Value: q.Val, Inclusive: true}
		hi = lo
	case CmpLt:
		hi = Bound{Value: q.Val}
	case CmpLe:
		hi = Bound{Value: q.Val, Inclusive: true}
	case CmpGt:
		lo = Bound{Value: q.Val}
	case CmpGe:
		lo = Bound{Value: q.Val, Inclusive: true}
	}
	newLo, okLo := tighterBound(p.Lo, lo, 1)
	newHi, okHi := tighterBound(p.Hi, hi, -1)
	if !okLo || !okHi {
		return false
	}
	p.Lo, p.Hi = newLo, newHi
	return true
}

// tighterBound picks the tighter of two bounds on one side of an interval:
// dir is 1 for lower bounds (the larger value is tighter) and -1 for upper
// bounds. ok is false when both are bounded and either value is an unbound
// placeholder, whose order against the other is unknown until run time.
func tighterBound(cur, cand Bound, dir int) (b Bound, ok bool) {
	switch {
	case cand.Unbounded:
		return cur, true
	case cur.Unbounded:
		return cand, true
	case isParam(cur.Value) || isParam(cand.Value):
		return cur, false
	}
	switch c := dir * CompareValues(cand.Value, cur.Value); {
	case c > 0 || (c == 0 && !cand.Inclusive):
		return cand, true
	default:
		return cur, true
	}
}

func isParam(v Value) bool {
	_, ok := v.(ParamValue)
	return ok
}

// isPoint reports whether [lo, hi] is the closed interval of one value —
// an equality probe. Two placeholders are one value only when they are the
// same placeholder.
func isPoint(lo, hi Bound) bool {
	if lo.Unbounded || hi.Unbounded || !lo.Inclusive || !hi.Inclusive {
		return false
	}
	if isParam(lo.Value) || isParam(hi.Value) {
		return lo.Value == hi.Value
	}
	return CompareValues(lo.Value, hi.Value) == 0
}

// emptyInterval reports whether the interval provably holds no key (its
// bounds contradict each other); unbound placeholders prove nothing.
func (p AccessPlan) emptyInterval() bool {
	if p.Kind == PathFullScan || p.Lo.Unbounded || p.Hi.Unbounded || isParam(p.Lo.Value) || isParam(p.Hi.Value) {
		return false
	}
	c := CompareValues(p.Lo.Value, p.Hi.Value)
	return c > 0 || (c == 0 && !(p.Lo.Inclusive && p.Hi.Inclusive))
}

// FullScanPlanAt plans an unconditional full scan of a pinned snapshot with
// preds as residual filters — the pushdown-disabled access path: same rows,
// no index use.
func FullScanPlanAt(ts *TableSnap, preds []Pred) AccessPlan {
	return AccessPlan{Kind: PathFullScan, Residual: preds, TableRows: ts.NumRows()}
}

// Explain describes the planned operator from the plan's own fields — no
// snapshot is pinned and nothing is opened. Every run reports it
// (ExecStats.AccessPath), so it is built in a stack buffer and allocates
// only the string it returns.
func (p AccessPlan) Explain(t *Table) string {
	var buf [160]byte
	return string(p.appendExplain(buf[:0], t))
}

func (p AccessPlan) appendExplain(dst []byte, t *Table) []byte {
	switch p.Kind {
	case PathFullScan:
		return appendScanExplain(dst, t, p.Residual)
	case PathIndexProbe:
		dst = append(dst, "INDEX PROBE "...)
	default:
		dst = append(dst, "INDEX RANGE SCAN "...)
	}
	dst = append(dst, t.Name...)
	dst = append(dst, '(')
	dst = append(dst, p.Col...)
	dst = append(dst, ") "...)
	dst = appendRange(dst, p.Col, p.Lo, p.Hi)
	if len(p.Residual) > 0 {
		dst = append(dst, " FILTER "...)
		dst = appendPreds(dst, p.Residual)
	}
	return dst
}
