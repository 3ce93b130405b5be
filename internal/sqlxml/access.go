package sqlxml

import (
	"fmt"
	"slices"
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
	// predicates (BindDriving, explainDriving): every attempt of the run
	// rebinds into it.
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
	return s.bindDriving(where, true)
}

// explainDriving is BindDriving's lenient sibling for EXPLAIN: a parameter
// the spec does not bind stays a placeholder and renders as :name — the
// plan's shape does not depend on the value. It writes the same buffer.
func (s *RunSpec) explainDriving(where []relstore.Pred) []relstore.Pred {
	preds, _ := s.bindDriving(where, false)
	return preds
}

func (s *RunSpec) bindDriving(where []relstore.Pred, strict bool) ([]relstore.Pred, error) {
	if s == nil || len(s.Extra) == 0 && !relstore.HasParams(where) {
		if !strict {
			return where, nil
		}
		return relstore.BindPreds(where, s.params())
	}
	if n := len(where) + len(s.Extra); cap(s.driving) < n {
		s.driving = make([]relstore.Pred, 0, n)
	}
	if !strict {
		buf := relstore.AppendBoundPartial(s.driving[:0], where, s.Params)
		s.driving = relstore.AppendBoundPartial(buf, s.Extra, s.Params)
		return s.driving, nil
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

// OpenQueryCursorSpec opens a streaming execution of q, pulled with
// AppendNext: the driving access path is planned from the compiled WHERE
// clause plus the spec's run-time predicates, with parameters bound for this
// run only. Operator counters go to sink (nil discards them); g (may be nil)
// governs the scan and the construction. It compiles q's byte program;
// OpenProgramCursorSpec runs one compiled beforehand.
func (e *Executor) OpenQueryCursorSpec(q *Query, sink *relstore.Stats, g *governor.G, spec *RunSpec) (*QueryCursor, error) {
	p, err := Compile(e.DB, q)
	if err != nil {
		return nil, err
	}
	return e.OpenProgramCursorSpec(p, sink, g, spec)
}

// OpenProgramCursorSpec is OpenQueryCursorSpec over p's query, with p as the
// cursor's program: a plan compiles its programs once and every run shares
// them. A byte program's cursor is the SQL strategy's, and its fault points
// are sqlxml.query.open and sqlxml.query.next; a tree program's rows are the
// documents the functional strategies evaluate, each a sqlxml.view.row.
func (e *Executor) OpenProgramCursorSpec(p *Program, sink *relstore.Stats, g *governor.G, spec *RunSpec) (*QueryCursor, error) {
	fp := "sqlxml.view.row"
	if !p.tree {
		if err := faultpoint.Hit("sqlxml.query.open"); err != nil {
			return nil, err
		}
		fp = "sqlxml.query.next"
	}
	snap := spec.snapshot(e.DB)
	ts := snap.Table(p.q.Table)
	if ts == nil {
		return nil, fmt.Errorf("sqlxml: query references unknown table %q", p.q.Table)
	}
	plan, err := spec.planDriving(ts, p.q.Where)
	if err != nil {
		return nil, err
	}
	return spec.openCursor(snap, ts, plan, p, fp, sink, g)
}

// MaterializeViewSpec builds the XMLType instance — a document node — of
// every view row passing where (the paper's "functional evaluation" input
// path: the XML is materialized before XSLT runs on it), with a tree program
// compiled for the call.
func (e *Executor) MaterializeViewSpec(v *ViewDef, where []relstore.Pred, sink *relstore.Stats, g *governor.G, spec *RunSpec) ([]*xmltree.Node, error) {
	return e.drainTrees(&Query{Table: v.Table, Where: where, Body: v.Body}, sink, g, spec)
}

// drainTrees runs q's tree program, compiled for the call, to the end.
func (e *Executor) drainTrees(q *Query, sink *relstore.Stats, g *governor.G, spec *RunSpec) ([]*xmltree.Node, error) {
	p, err := CompileTree(e.DB, q)
	if err != nil {
		return nil, err
	}
	c, err := e.OpenProgramCursorSpec(p, sink, g, spec)
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
	plan := chooseAccess(ts, spec.explainDriving(q.Where), spec.noPushdown())
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
	plan := chooseAccess(ts, spec.explainDriving(where), spec.noPushdown())
	spec.recordPath(ts, plan)
	return plan.Explain(ts.Table())
}

// ExecQueryParallelSpec runs the query's tree program to the end: one result
// fragment per qualifying driving row, in driving-row order, drained from a
// QueryCursor whose worker count is workers (0: GOMAXPROCS). Like every cursor it
// constructs in parallel when its driving scan has the candidates for it
// (the paper notes the rewritten SQL/XML "can be efficiently executed by the
// underlying RDBMS aggregation process in parallel manner").
func (e *Executor) ExecQueryParallelSpec(q *Query, workers int, sink *relstore.Stats, g *governor.G, spec *RunSpec) ([]*xmltree.Node, error) {
	var s RunSpec
	if spec != nil {
		s = *spec
	}
	s.Batch.Workers = workers
	return e.drainTrees(q, sink, g, &s)
}

// RowBuf accumulates a run's serialized rows in one buffer: each row followed
// by '\n'. Append the next row to Bytes() and hand the extended slice to
// EndRow; Strings copies the finished result out, so a RowBuf can go back to
// its pool (GetRowBuf / PutRowBuf) while the strings live on.
type RowBuf struct {
	buf  []byte
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
	b.buf = b.buf[:0]
	b.ends = b.ends[:0]
}

// Grow makes room for n more bytes, so that many can be appended without
// reallocating.
func (b *RowBuf) Grow(n int) { b.buf = slices.Grow(b.buf, n) }

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
