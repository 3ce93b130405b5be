package sqlxml

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/faultpoint"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/xmltree"
)

// This file is the access-path layer of the executor: every entry point that
// drives a table goes through one chooser (chooseAccess) fed by a RunSpec —
// the per-run half of the facade's unified Run API. The compiled plan is
// immutable and shared; everything a run can vary (extra predicates from
// WithWhere, bind variables from WithParam, the WithoutPushdown switch) rides
// in the spec and is merged copy-on-write, so concurrent runs of one plan
// never see each other's parameters.

// RunSpec carries per-run execution parameters into the executor. A nil
// *RunSpec means "no per-run parameters": the plan's own predicates over a
// fresh snapshot.
type RunSpec struct {
	// Extra holds driving-table predicates supplied at run time (WithWhere);
	// they AND with the plan's compiled WHERE clause.
	Extra []relstore.Pred
	// Params binds ParamValue placeholders — in the driving predicates and
	// anywhere in the query body — to concrete values for this run.
	Params map[string]relstore.Value
	// NoPushdown forces a full scan with every predicate applied as a
	// residual filter: same rows, no index use (the WithoutPushdown debug
	// option; output must be byte-identical).
	NoPushdown bool
	// Driving is written by the executor whenever it plans this run's driving
	// access path: the facade formats ExecStats.AccessPath from it.
	Driving DrivingPlan
	// Span, when non-nil, is the trace span of the strategy attempt this run
	// executes under; the executor opens scan/construct operator spans
	// beneath it. Nil (the usual case) disables operator tracing entirely.
	Span *obs.Span
	// Batch configures the driving access path's batch pipeline (chunk size
	// and morsel workers). The zero value means defaults.
	Batch relstore.BatchOpts
	// Snap, when non-nil, is the MVCC snapshot this run is pinned to: every
	// table read — driving scan, subqueries, aggregates — resolves against
	// it, so concurrent DML never perturbs an in-flight run. Nil pins a fresh
	// snapshot at open time.
	Snap *relstore.Snapshot

	// driving is the run's own buffer for its merged, bound driving
	// predicates (BindDriving): every attempt of the run rebinds into it.
	driving []relstore.Pred
}

// DrivingPlan is the driving access path the executor chose for a run, with
// the table it was planned over. The zero value — nothing planned yet —
// explains as "".
type DrivingPlan struct {
	Plan  relstore.AccessPlan
	Table *relstore.Table
}

// Explain is the EXPLAIN line of the access path.
func (d DrivingPlan) Explain() string {
	if d.Table == nil {
		return ""
	}
	return d.Plan.Explain(d.Table)
}

// snapshot returns the spec's pinned snapshot, or pins a fresh one from db
// for specs (and nil specs) that did not carry one.
func (s *RunSpec) snapshot(db *relstore.DB) *relstore.Snapshot {
	if s != nil && s.Snap != nil {
		return s.Snap
	}
	return db.Snapshot()
}

// smallTableRows is the chooser's only magic number: at or below this many
// rows a B-tree range scan cannot beat a straight scan of the heap, so the
// range path is demoted. Equality probes are never demoted — a probe's cost
// does not grow with the table.
const smallTableRows = 2

// merged returns the compiled WHERE clause joined with the spec's extra
// run-time predicates (copy-on-write: the compiled slice is never mutated).
func (s *RunSpec) merged(where []relstore.Pred) []relstore.Pred {
	if s == nil || len(s.Extra) == 0 {
		return where
	}
	out := make([]relstore.Pred, 0, len(where)+len(s.Extra))
	out = append(out, where...)
	return append(out, s.Extra...)
}

func (s *RunSpec) params() map[string]relstore.Value {
	if s == nil {
		return nil
	}
	return s.Params
}

func (s *RunSpec) noPushdown() bool { return s != nil && s.NoPushdown }

func (s *RunSpec) span() *obs.Span {
	if s == nil {
		return nil
	}
	return s.Span
}

func (s *RunSpec) batchOpts() relstore.BatchOpts {
	if s == nil {
		return relstore.BatchOpts{}
	}
	return s.Batch
}

// startOperators opens the scan and construct operator spans for a streaming
// cursor under the spec's attempt span. When no trace is attached (the usual
// case) the cursor's span fields stay nil and Next takes its untraced path.
func (s *RunSpec) startOperators(ts *relstore.TableSnap, plan relstore.AccessPlan, c *QueryCursor) {
	sp := s.span()
	if sp == nil {
		return
	}
	c.scanSp = sp.Start("scan")
	c.scanSp.SetAttr("path", plan.Explain(ts.Table()))
	c.scanSp.SetAttr("batch_size", c.size)
	// The workers the scan engaged: the pool's on the parallel route, 1 for
	// a serial full scan; a serial index path reports none.
	if c.par != nil {
		c.scanSp.SetAttr("workers", c.par.Workers())
	} else if plan.Kind == relstore.PathFullScan {
		c.scanSp.SetAttr("workers", 1)
	}
	c.buildSp = sp.Start("construct")
}

func (s *RunSpec) recordPath(ts *relstore.TableSnap, plan relstore.AccessPlan) {
	if s != nil {
		s.Driving = DrivingPlan{Plan: plan, Table: ts.Table()}
	}
}

// chooseAccess picks the physical access path for the pinned driving table:
// the planner's choice (PlanAccessAt), demoted to a full scan when the
// statistics say the index cannot pay for itself, or a forced full scan when
// pushdown is disabled. Either way the same predicates apply — only the
// mechanism differs — so the row set is identical across choices.
func chooseAccess(ts *relstore.TableSnap, preds []relstore.Pred, noPushdown bool) relstore.AccessPlan {
	if noPushdown {
		return relstore.FullScanPlanAt(ts, preds)
	}
	plan := relstore.PlanAccessAt(ts, preds)
	if plan.Kind == relstore.PathIndexRange && plan.TableRows <= smallTableRows {
		return relstore.FullScanPlanAt(ts, preds)
	}
	return plan
}

// BindDriving merges where — the compiled WHERE clause — with the spec's
// extra predicates and binds every parameter strictly (an unbound one is an
// error wrapping relstore.ErrUnboundParam: running it would silently match
// nothing). The result lives in the spec's own buffer, which the next
// BindDriving overwrites: the run's attempts follow one another, and each
// binds the same predicates again without allocating.
func (s *RunSpec) BindDriving(where []relstore.Pred) ([]relstore.Pred, error) {
	if s == nil || len(s.Extra) == 0 && !relstore.HasParams(where) {
		return relstore.BindPreds(where, s.params())
	}
	if n := len(where) + len(s.Extra); cap(s.driving) < n {
		s.driving = make([]relstore.Pred, 0, n)
	}
	buf, err := relstore.AppendBound(s.driving[:0], where, s.Params)
	if err == nil {
		buf, err = relstore.AppendBound(buf, s.Extra, s.Params)
	}
	if err != nil {
		return nil, err
	}
	s.driving = buf
	return buf, nil
}

// planDriving binds the run's driving predicates (BindDriving), chooses the
// access path against the pinned snapshot, and reports it back through the
// spec.
func (s *RunSpec) planDriving(ts *relstore.TableSnap, where []relstore.Pred) (relstore.AccessPlan, error) {
	bound, err := s.BindDriving(where)
	if err != nil {
		return relstore.AccessPlan{}, err
	}
	plan := chooseAccess(ts, bound, s.noPushdown())
	s.recordPath(ts, plan)
	return plan, nil
}

// BindQuery substitutes bind variables throughout q — the driving WHERE
// clause, conditional constructors, and nested subqueries — returning a new
// Query that shares every unmodified subtree with the original. An unbound
// placeholder is an error wrapping relstore.ErrUnboundParam.
func BindQuery(q *Query, params map[string]relstore.Value) (*Query, error) {
	where, err := relstore.BindPreds(q.Where, params)
	if err != nil {
		return nil, err
	}
	body, err := bindXML(q.Body, params)
	if err != nil {
		return nil, err
	}
	if !relstore.HasParams(q.Where) && body == q.Body {
		return q, nil
	}
	cp := *q
	cp.Where = where
	cp.Body = body
	return &cp, nil
}

// bindXML substitutes bind variables inside an XML construction tree
// (Cond predicates and SubQuery WHERE clauses), copy-on-write: subtrees
// without placeholders are returned as-is, shared with the compiled plan.
func bindXML(x XMLExpr, params map[string]relstore.Value) (XMLExpr, error) {
	switch e := x.(type) {
	case *Element:
		kids, changed, err := bindList(e.Children, params)
		if err != nil {
			return nil, err
		}
		if !changed {
			return e, nil
		}
		cp := *e
		cp.Children = kids
		return &cp, nil
	case *Concat:
		items, changed, err := bindList(e.Items, params)
		if err != nil {
			return nil, err
		}
		if !changed {
			return e, nil
		}
		return &Concat{Items: items}, nil
	case *Agg:
		sub, err := bindSub(e.Sub, params)
		if err != nil {
			return nil, err
		}
		if sub == e.Sub {
			return e, nil
		}
		return &Agg{Sub: sub}, nil
	case *ScalarAgg:
		sub, err := bindSub(e.Sub, params)
		if err != nil {
			return nil, err
		}
		if sub == e.Sub {
			return e, nil
		}
		cp := *e
		cp.Sub = sub
		return &cp, nil
	case *Cond:
		preds, err := relstore.BindPreds(e.Preds, params)
		if err != nil {
			return nil, err
		}
		then, err := bindXML(e.Then, params)
		if err != nil {
			return nil, err
		}
		els := e.Else
		if els != nil {
			if els, err = bindXML(els, params); err != nil {
				return nil, err
			}
		}
		if !relstore.HasParams(e.Preds) && then == e.Then && els == e.Else {
			return e, nil
		}
		return &Cond{Preds: preds, Then: then, Else: els}, nil
	default:
		// Column, Literal: no predicates to bind.
		return x, nil
	}
}

func bindList(xs []XMLExpr, params map[string]relstore.Value) ([]XMLExpr, bool, error) {
	changed := false
	out := xs
	for i, x := range xs {
		b, err := bindXML(x, params)
		if err != nil {
			return nil, false, err
		}
		if b != x && !changed {
			changed = true
			out = make([]XMLExpr, len(xs))
			copy(out, xs)
		}
		if changed {
			out[i] = b
		}
	}
	return out, changed, nil
}

func bindSub(s *SubQuery, params map[string]relstore.Value) (*SubQuery, error) {
	where, err := relstore.BindPreds(s.Where, params)
	if err != nil {
		return nil, err
	}
	body := s.Body
	if body != nil {
		if body, err = bindXML(body, params); err != nil {
			return nil, err
		}
	}
	if !relstore.HasParams(s.Where) && body == s.Body {
		return s, nil
	}
	cp := *s
	cp.Where = where
	cp.Body = body
	return &cp, nil
}

// planQuery resolves what every execution of q under spec starts from: the
// pinned snapshot, the driving table in it, the driving access path and the
// body with this run's parameters bound.
func (e *Executor) planQuery(q *Query, spec *RunSpec) (snap *relstore.Snapshot, ts *relstore.TableSnap, plan relstore.AccessPlan, body XMLExpr, err error) {
	if err = faultpoint.Hit("sqlxml.query.open"); err != nil {
		return
	}
	snap = spec.snapshot(e.DB)
	if ts = snap.Table(q.Table); ts == nil {
		err = fmt.Errorf("sqlxml: query references unknown table %q", q.Table)
		return
	}
	if plan, err = spec.planDriving(ts, q.Where); err != nil {
		return
	}
	body, err = bindXML(q.Body, spec.params())
	return
}

// OpenQueryCursorSpec opens a streaming execution of q: the driving access
// path is planned from the compiled WHERE clause plus the spec's run-time
// predicates, with parameters bound for this run only. Operator counters go
// to sink (nil discards them); g (may be nil) governs the scan and the
// construction.
func (e *Executor) OpenQueryCursorSpec(q *Query, sink *relstore.Stats, g *governor.G, spec *RunSpec) (*QueryCursor, error) {
	snap, ts, plan, body, err := e.planQuery(q, spec)
	if err != nil {
		return nil, err
	}
	return spec.openCursor(snap, ts, plan, body, "sqlxml.query.next", sink, g), nil
}

// OpenViewCursorSpec opens a streaming materialization of v — one XMLType
// instance per driving row passing where, pulled on demand. The fallback
// execution strategies pass the compiled plan's WHERE clause so a run that
// could not be lowered to SQL still filters (and index-probes) the driving
// table exactly like the SQL path would — cross-strategy result consistency.
func (e *Executor) OpenViewCursorSpec(v *ViewDef, where []relstore.Pred, sink *relstore.Stats, g *governor.G, spec *RunSpec) (*QueryCursor, error) {
	snap := spec.snapshot(e.DB)
	ts := snap.Table(v.Table)
	if ts == nil {
		return nil, fmt.Errorf("sqlxml: view %q references unknown table %q", v.Name, v.Table)
	}
	plan, err := spec.planDriving(ts, where)
	if err != nil {
		return nil, err
	}
	return spec.openCursor(snap, ts, plan, v.Body, "sqlxml.view.row", sink, g), nil
}

// MaterializeViewSpec builds the XMLType instance — a document node — of
// every view row passing where (the paper's "functional evaluation" input
// path: the XML is materialized before XSLT runs on it).
func (e *Executor) MaterializeViewSpec(v *ViewDef, where []relstore.Pred, sink *relstore.Stats, g *governor.G, spec *RunSpec) ([]*xmltree.Node, error) {
	c, err := e.OpenViewCursorSpec(v, where, sink, g, spec)
	if err != nil {
		return nil, err
	}
	return c.drain()
}

// ExplainQuerySpec describes the physical plan the spec would produce: the
// driving access path plus each nested subquery's join.
// Binding is lenient here: an unbound parameter renders as a :name bind
// variable instead of failing — the plan's shape does not depend on the
// value.
func (e *Executor) ExplainQuerySpec(q *Query, spec *RunSpec) string {
	snap := spec.snapshot(e.DB)
	ts := snap.Table(q.Table)
	if ts == nil {
		return "unknown table " + q.Table
	}
	preds := relstore.BindPredsPartial(spec.merged(q.Where), spec.params())
	plan := chooseAccess(ts, preds, spec.noPushdown())
	spec.recordPath(ts, plan)
	var sb strings.Builder
	sb.WriteString(plan.Explain(ts.Table()))
	explainSubqueries(snap, ts, q.Body, &sb, "  ")
	return sb.String()
}

// ExplainViewSpec describes the driving access path the fallback strategies
// would use to materialize v under spec — the view-side counterpart of
// ExplainQuerySpec, with the same lenient parameter binding.
func (e *Executor) ExplainViewSpec(v *ViewDef, where []relstore.Pred, spec *RunSpec) string {
	snap := spec.snapshot(e.DB)
	ts := snap.Table(v.Table)
	if ts == nil {
		return "unknown table " + v.Table
	}
	preds := relstore.BindPredsPartial(spec.merged(where), spec.params())
	plan := chooseAccess(ts, preds, spec.noPushdown())
	spec.recordPath(ts, plan)
	return plan.Explain(ts.Table())
}

// ExecQueryParallelSpec runs the query to trees: one result fragment per
// qualifying driving row, in driving-row order, drained from a QueryCursor
// whose worker count is workers (0: GOMAXPROCS). Like every cursor it
// constructs in parallel when its driving scan has the candidates for it
// (the paper notes the rewritten SQL/XML "can be efficiently executed by the
// underlying RDBMS aggregation process in parallel manner").
func (e *Executor) ExecQueryParallelSpec(q *Query, workers int, sink *relstore.Stats, g *governor.G, spec *RunSpec) ([]*xmltree.Node, error) {
	var s RunSpec
	if spec != nil {
		s = *spec
	}
	s.Batch.Workers = workers
	c, err := e.OpenQueryCursorSpec(q, sink, g, &s)
	if err != nil {
		return nil, err
	}
	return c.drain()
}

// RowBuf accumulates a run's serialized rows in one buffer: each row followed
// by '\n'. Append the next row to Bytes() and hand the extended slice to
// EndRow; Strings copies the finished result out, so a RowBuf can go back to
// its pool (GetRowBuf / PutRowBuf) while the strings live on.
type RowBuf struct {
	byteSink
	ends []int // ends[i] is the offset of row i's newline
}

var rowBufPool = sync.Pool{New: func() any { return new(RowBuf) }}

// GetRowBuf takes an empty buffer from the pool.
func GetRowBuf() *RowBuf { return rowBufPool.Get().(*RowBuf) }

// PutRowBuf recycles b. Nothing handed to a caller may alias its bytes:
// Strings copies.
func PutRowBuf(b *RowBuf) {
	b.Reset()
	rowBufPool.Put(b)
}

// Reset drops every row, keeping the capacity.
func (b *RowBuf) Reset() {
	b.byteSink = byteSink{buf: b.buf[:0]}
	b.ends = b.ends[:0]
}

// Bytes is the buffer so far: the slice the next row is appended to.
func (b *RowBuf) Bytes() []byte { return b.buf }

// EndRow takes buf — Bytes() extended by one row — and terminates the row.
func (b *RowBuf) EndRow(buf []byte) {
	b.ends = append(b.ends, len(buf))
	b.buf = append(buf, '\n')
}

// row is row i, without its newline.
func (b *RowBuf) row(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1] + 1
	}
	return b.buf[start:b.ends[i]]
}

// Strings copies the accumulated rows out: one string for the whole body
// and one substring of it per row (without the newline).
func (b *RowBuf) Strings() (body string, rows []string) {
	body = string(b.buf)
	rows = make([]string, len(b.ends))
	start := 0
	for i, end := range b.ends {
		rows[i] = body[start:end]
		start = end + 1
	}
	return body, rows
}
