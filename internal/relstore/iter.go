package relstore

import (
	"errors"
	"fmt"
	"strings"
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
func (p Pred) String() string {
	v := p.Val
	switch x := v.(type) {
	case string:
		v = "'" + x + "'"
	case ParamValue:
		v = ":" + string(x)
	}
	return fmt.Sprintf("%s %s %v", p.Col, p.Op, v)
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
	out := make([]Pred, len(preds))
	for i, p := range preds {
		if name, ok := p.Val.(ParamValue); ok {
			v, bound := params[string(name)]
			if !bound {
				return nil, fmt.Errorf("%w: $%s (bind it with WithParam)", ErrUnboundParam, string(name))
			}
			p.Val = v
		}
		out[i] = p
	}
	return out, nil
}

// BindPredsPartial substitutes the parameters present in params and leaves
// missing ones as placeholders — the EXPLAIN-time variant of BindPreds,
// where an unbound parameter should render as :name rather than fail.
func BindPredsPartial(preds []Pred, params map[string]Value) []Pred {
	if !HasParams(preds) {
		return preds
	}
	out := make([]Pred, len(preds))
	for i, p := range preds {
		if name, ok := p.Val.(ParamValue); ok {
			if v, bound := params[string(name)]; bound {
				p.Val = v
			}
		}
		out[i] = p
	}
	return out
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

// Matches evaluates the predicate against a cell value.
func (p Pred) Matches(cell Value) bool {
	if cell == nil || p.Val == nil {
		return false // SQL three-valued logic: NULL never matches
	}
	if _, ok := p.Val.(ParamValue); ok {
		return false // unbound placeholder: callers must BindPreds first
	}
	c := CompareValues(cell, p.Val)
	switch p.Op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// boundText renders a bound's value; parameter placeholders render as :name
// bind variables (a plan over an unbound parameter is still explainable —
// its shape does not depend on the value).
func boundText(v Value) any {
	if name, ok := v.(ParamValue); ok {
		return ":" + string(name)
	}
	return v
}

func describeRange(col string, lo, hi Bound) string {
	switch {
	case isPoint(lo, hi):
		return fmt.Sprintf("%s = %v", col, boundText(lo.Value))
	case lo.Unbounded && hi.Unbounded:
		return "(full)"
	default:
		var parts []string
		if !lo.Unbounded {
			op := ">"
			if lo.Inclusive {
				op = ">="
			}
			parts = append(parts, fmt.Sprintf("%s %s %v", col, op, boundText(lo.Value)))
		}
		if !hi.Unbounded {
			op := "<"
			if hi.Inclusive {
				op = "<="
			}
			parts = append(parts, fmt.Sprintf("%s %s %v", col, op, boundText(hi.Value)))
		}
		return strings.Join(parts, " AND ")
	}
}

func predsString(preds []Pred) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

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

// sargable reports whether p can bound a B-tree interval.
func sargable(p Pred) bool { return p.Op != CmpNe && p.Val != nil }

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
		if !sargable(p) || !ts.HasIndex(p.Col) {
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
	plan.tighten(preds[best]) // first, so an equality is never displaced by a placeholder bound
	for i, p := range preds {
		if i == best {
			continue
		}
		if p.Col != plan.Col || !sargable(p) || !plan.tighten(p) {
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
// snapshot is pinned and nothing is opened.
func (p AccessPlan) Explain(t *Table) string {
	if p.Kind == PathFullScan {
		return scanExplain(t, p.Residual)
	}
	op := "INDEX RANGE SCAN"
	if p.Kind == PathIndexProbe {
		op = "INDEX PROBE"
	}
	s := op + " " + t.Name + "(" + p.Col + ") " + describeRange(p.Col, p.Lo, p.Hi)
	if len(p.Residual) > 0 {
		s += " FILTER " + predsString(p.Residual)
	}
	return s
}
