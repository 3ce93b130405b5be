// Package xsltdb is the public API of the repository: efficient XSLT
// processing in a relational database system, after Liu & Novoselsky
// (VLDB 2006).
//
// The package ties the pipeline together:
//
//	XSLT stylesheet
//	   │  partial evaluation over the input's structural information (§4)
//	   ▼
//	XQuery (inline when the template execution graph is acyclic — §3.3-3.7)
//	   │  XQuery→SQL/XML rewrite over the view definition (§2)
//	   ▼
//	SQL/XML plan over relational tables with B-tree index access paths
//
// A Database owns relational tables and XMLType views. CompileTransform
// compiles a stylesheet against a view, choosing the best strategy and
// falling back gracefully: SQL/XML plan → functional XQuery over
// materialized rows → functional XSLT interpretation ("no rewrite").
// Compiled plans are cached per (view, version, stylesheet, options) and
// shared across transforms; execution is available both materializing
// (Run) and streaming (OpenCursor), each reporting per-run ExecStats.
package xsltdb

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/wal"
	"repro/internal/xmltree"
	"repro/internal/xq2sql"
	"repro/internal/xquery"
	"repro/internal/xschema"
	"repro/internal/xslt"
)

// Re-exported relational building blocks.
type (
	// TableColumn declares a relational column.
	TableColumn = relstore.Column
	// Pred is a relational predicate (column op constant).
	Pred = relstore.Pred
	// Stats counts physical operator work.
	Stats = relstore.Stats
)

// Column types.
const (
	IntCol    = relstore.IntCol
	FloatCol  = relstore.FloatCol
	StringCol = relstore.StringCol
)

// Re-exported SQL/XML view constructors (paper Table 3 building blocks).
type (
	// XMLExpr is any SQL/XML generation expression.
	XMLExpr = sqlxml.XMLExpr
	// ViewDef defines an XMLType view over a driving table.
	ViewDef = sqlxml.ViewDef
	// XMLElement is the XMLElement() generation function.
	XMLElement = sqlxml.Element
	// XMLAttr is one XMLAttributes() entry.
	XMLAttr = sqlxml.Attr
	// XMLColumn emits a column value as text.
	XMLColumn = sqlxml.Column
	// XMLLiteral emits constant text.
	XMLLiteral = sqlxml.Literal
	// XMLConcat is XMLConcat().
	XMLConcat = sqlxml.Concat
	// XMLAgg aggregates a correlated subquery.
	XMLAgg = sqlxml.Agg
	// SubQuery is the correlated subquery of an XMLAgg/ScalarAgg.
	SubQuery = sqlxml.SubQuery
	// ScalarAgg is COUNT/SUM/AVG/MIN/MAX.
	ScalarAgg = sqlxml.ScalarAgg
)

// Strategy identifies how a compiled transformation executes.
type Strategy uint8

// Execution strategies, strongest first.
const (
	// StrategySQL: the full paper pipeline — the stylesheet became a
	// SQL/XML plan over the base tables (Tables 7/11).
	StrategySQL Strategy = iota
	// StrategyXQuery: the stylesheet became XQuery, evaluated functionally
	// over each materialized view row (the first rewrite stage only).
	StrategyXQuery
	// StrategyNoRewrite: functional XSLT interpretation over materialized
	// rows — the paper's baseline.
	StrategyNoRewrite
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategySQL:
		return "sql-rewrite"
	case StrategyXQuery:
		return "xquery-rewrite"
	default:
		return "no-rewrite"
	}
}

// Database owns relational tables and XMLType views. View registration and
// lookup are safe for concurrent use; the relational store carries its own
// locking, and compiled plans are cached concurrency-safely (see
// PlanCacheStats).
type Database struct {
	mu    sync.RWMutex
	rel   *relstore.DB
	exec  *sqlxml.Executor
	views map[string]*ViewDef
	// viewVersions tracks view redefinitions so compiled transforms can
	// recompile automatically (§7.3: "this recompilation process is
	// automated because the XSLT query has dependency on the XML schema
	// whose change is tracked by the database system").
	viewVersions map[string]int

	plans planCache

	// history is the run-history archive, nil until EnableRunHistory; the
	// atomic pointer keeps the disabled fast path at one load per run.
	history atomic.Pointer[obs.Archive]
	// cards is the always-on cardinality-accuracy tracker (est vs actual
	// rows per access-path shape, misestimate log above q-error 2).
	cards *obs.CardTracker

	// Durability (nil/zero for a purely in-memory database — see Open):
	// wal is the write-ahead log every mutation is recorded to before it is
	// applied, and writeMu serializes durable mutations so WAL order equals
	// apply order equals row-id order — the invariant replay depends on.
	wal      *wal.Log
	writeMu  sync.Mutex
	recovery wal.RecoverStats

	// closed flips once on Close; entry points check it, in-flight cursors
	// registered in cursors are failed with ErrDatabaseClosed.
	closed  atomic.Bool
	curMu   sync.Mutex
	cursors map[*Cursor]struct{}

	// tenants holds the per-tenant limits the serving layer resolves
	// admission against (guarded by mu, registered via WithTenant or
	// RegisterTenant).
	tenants map[string]TenantLimits
}

// newDatabase builds the in-memory core every Open starts from.
func newDatabase() *Database {
	rel := relstore.NewDB()
	return &Database{
		rel: rel, exec: sqlxml.NewExecutor(rel),
		views: map[string]*ViewDef{}, viewVersions: map[string]int{},
		cards:   obs.NewCardTracker(2.0, mMisestimates),
		cursors: map[*Cursor]struct{}{},
		tenants: map[string]TenantLimits{},
	}
}

// NewDatabase returns an empty in-memory database. It is a thin alias for
// Open() with no options, kept because an in-memory open cannot fail and
// the error-free form reads better in tests and examples.
func NewDatabase() *Database {
	d, err := Open()
	if err != nil { // unreachable: no WithDir means no I/O
		panic("xsltdb: in-memory Open failed: " + err.Error())
	}
	return d
}

// checkOpen refuses new work after Close.
func (d *Database) checkOpen() error {
	if d.closed.Load() {
		return ErrDatabaseClosed
	}
	return nil
}

// Closed reports whether Close has begun; entry points called after that
// return ErrDatabaseClosed. Serving layers use this for health checks.
func (d *Database) Closed() bool { return d.closed.Load() }

// registerCursor tracks an open cursor so Close can fail it. It reports
// false when the database closed around the registration — the caller must
// refuse the cursor instead of leaving an untracked stream running.
func (d *Database) registerCursor(c *Cursor) bool {
	if d.closed.Load() {
		return false
	}
	d.curMu.Lock()
	d.cursors[c] = struct{}{}
	d.curMu.Unlock()
	// Re-check after publishing: if Close raced us it may have missed the
	// cursor in its sweep, so take it back out and refuse.
	if d.closed.Load() {
		d.unregisterCursor(c)
		return false
	}
	return true
}

func (d *Database) unregisterCursor(c *Cursor) {
	d.curMu.Lock()
	delete(d.cursors, c)
	d.curMu.Unlock()
}

// Close shuts the database down: new runs, cursors and mutations are
// refused with ErrDatabaseClosed, every in-flight cursor terminates with the
// same sentinel (their already-pinned snapshots stay readable until each
// cursor releases — no map is ever nilled out), and the write-ahead log, if
// any, is synced and closed. Close is idempotent and safe to call
// concurrently; only the first call does the work.
func (d *Database) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	d.curMu.Lock()
	open := make([]*Cursor, 0, len(d.cursors))
	for c := range d.cursors {
		open = append(open, c)
	}
	d.curMu.Unlock()
	for _, c := range open {
		c.failDatabaseClosed()
	}
	// Serialize against in-flight durable writes so the WAL closes after
	// the last append it accepted.
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if d.wal != nil {
		return d.wal.Close()
	}
	return nil
}

// Rel exposes the underlying relational store.
func (d *Database) Rel() *relstore.DB { return d.rel }

// Stats returns a point-in-time snapshot of the physical operator counters
// accumulated across every execution on this database. The snapshot is read
// atomically, so it is safe to call while runs are in flight; per-run
// counters are available from RunWithStats and Cursor.Stats.
func (d *Database) Stats() *Stats {
	s := d.exec.Stats.Snapshot()
	return &s
}

// CreateTable creates a relational table. On a durable database the DDL is
// validated, logged to the WAL, and only then applied — so replay sees
// exactly the statements that took effect.
func (d *Database) CreateTable(name string, cols ...TableColumn) error {
	if err := d.checkOpen(); err != nil {
		return err
	}
	if d.wal == nil {
		_, err := d.rel.CreateTable(name, cols...)
		return err
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	// Validate before logging: a statement that cannot apply must never
	// reach the log, or replay would diverge from the original execution.
	if _, err := relstore.NewTable(name, cols...); err != nil {
		return err
	}
	if d.rel.Table(name) != nil {
		return fmt.Errorf("relstore: table %q already exists", name)
	}
	if err := d.logCreateTable(name, cols); err != nil {
		return err
	}
	_, err := d.rel.CreateTable(name, cols...)
	return err
}

// Insert appends a row to a table. On a durable database the row is
// coerced to its column types, logged to the WAL (synced per the open-time
// fsync policy), and only then applied to memory — write-ahead ordering, so
// a crash can lose at most the unsynced tail, never leave a logged row and
// an applied row disagreeing about order.
func (d *Database) Insert(table string, values ...relstore.Value) error {
	if err := d.checkOpen(); err != nil {
		return err
	}
	t := d.rel.Table(table)
	if t == nil {
		return fmt.Errorf("xsltdb: no table %q: %w", table, ErrNoTable)
	}
	if d.wal == nil {
		_, err := t.Insert(values...)
		return err
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	row, err := t.CoerceRow(values)
	if err != nil {
		return err
	}
	if err := d.logInsert(table, row); err != nil {
		return err
	}
	_, err = t.Insert(row...)
	return err
}

// CreateIndex builds a B-tree index on table.col.
func (d *Database) CreateIndex(table, col string) error {
	if err := d.checkOpen(); err != nil {
		return err
	}
	t := d.rel.Table(table)
	if t == nil {
		return fmt.Errorf("xsltdb: no table %q: %w", table, ErrNoTable)
	}
	if d.wal == nil {
		return t.CreateIndex(col)
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if t.ColIndex(col) < 0 {
		return fmt.Errorf("relstore: no column %q in table %q", col, table)
	}
	if err := d.logCreateIndex(table, col); err != nil {
		return err
	}
	return t.CreateIndex(col)
}

// CreateXMLView registers an XMLType view.
func (d *Database) CreateXMLView(v *ViewDef) error {
	if err := d.checkOpen(); err != nil {
		return err
	}
	if d.wal == nil {
		return d.applyCreateXMLView(v)
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := d.validateCreateXMLView(v); err != nil {
		return err
	}
	if err := d.logView(recCreateView, v); err != nil {
		return err
	}
	return d.applyCreateXMLView(v)
}

func (d *Database) validateCreateXMLView(v *ViewDef) error {
	if v.Name == "" {
		return fmt.Errorf("xsltdb: view needs a name: %w", ErrNoView)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, dup := d.views[v.Name]; dup {
		return fmt.Errorf("xsltdb: view %q already exists: %w", v.Name, ErrDuplicateView)
	}
	if d.rel.Table(v.Table) == nil {
		return fmt.Errorf("xsltdb: view %q references unknown table %q: %w", v.Name, v.Table, ErrNoTable)
	}
	return nil
}

func (d *Database) applyCreateXMLView(v *ViewDef) error {
	if v.Name == "" {
		return fmt.Errorf("xsltdb: view needs a name: %w", ErrNoView)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.views[v.Name]; dup {
		return fmt.Errorf("xsltdb: view %q already exists: %w", v.Name, ErrDuplicateView)
	}
	if d.rel.Table(v.Table) == nil {
		return fmt.Errorf("xsltdb: view %q references unknown table %q: %w", v.Name, v.Table, ErrNoTable)
	}
	d.views[v.Name] = v
	d.viewVersions[v.Name] = 1
	return nil
}

// ReplaceXMLView redefines an existing view (schema evolution, §7.3).
// Transforms compiled against the old definition recompile automatically on
// their next Run or OpenCursor; cached plans for the old definition are
// evicted. The replacement is non-blocking for readers: in-flight runs and
// cursors pinned the old (view, version) snapshot at open time and keep
// producing pre-replace output; only runs that START after the replacement
// see the new definition.
func (d *Database) ReplaceXMLView(v *ViewDef) error {
	if err := d.checkOpen(); err != nil {
		return err
	}
	if d.wal == nil {
		return d.applyReplaceXMLView(v)
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := d.validateReplaceXMLView(v); err != nil {
		return err
	}
	if err := d.logView(recReplaceView, v); err != nil {
		return err
	}
	return d.applyReplaceXMLView(v)
}

func (d *Database) validateReplaceXMLView(v *ViewDef) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, ok := d.views[v.Name]; !ok {
		return fmt.Errorf("xsltdb: no view %q to replace: %w", v.Name, ErrNoView)
	}
	if d.rel.Table(v.Table) == nil {
		return fmt.Errorf("xsltdb: view %q references unknown table %q: %w", v.Name, v.Table, ErrNoTable)
	}
	return nil
}

func (d *Database) applyReplaceXMLView(v *ViewDef) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.views[v.Name]; !ok {
		return fmt.Errorf("xsltdb: no view %q to replace: %w", v.Name, ErrNoView)
	}
	if d.rel.Table(v.Table) == nil {
		return fmt.Errorf("xsltdb: view %q references unknown table %q: %w", v.Name, v.Table, ErrNoTable)
	}
	d.views[v.Name] = v
	d.viewVersions[v.Name]++
	d.plans.evictView(v.Name)
	return nil
}

// View returns a registered view, or nil.
func (d *Database) View(name string) *ViewDef {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.views[name]
}

// viewAndVersion reads a view with its current version under the lock.
func (d *Database) viewAndVersion(name string) (*ViewDef, int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.views[name], d.viewVersions[name]
}

// MaterializeView builds the XMLType instance of every view row (the
// functional input path).
func (d *Database) MaterializeView(name string) ([]*xmltree.Node, error) {
	v := d.View(name)
	if v == nil {
		return nil, fmt.Errorf("xsltdb: no view %q: %w", name, ErrNoView)
	}
	return d.exec.MaterializeView(v)
}

// DeriveSchema computes the structural schema of a view's output (§3.2).
func (d *Database) DeriveSchema(name string) (*xschema.Schema, error) {
	v := d.View(name)
	if v == nil {
		return nil, fmt.Errorf("xsltdb: no view %q: %w", name, ErrNoView)
	}
	return d.exec.DeriveSchema(v)
}

// planState is the immutable result of one compilation. The plan cache
// shares planStates across CompiledTransforms and concurrent runs, so
// nothing in here may be mutated after compilePlanUncached returns.
type planState struct {
	view        *ViewDef
	viewVersion int
	sheet       *xslt.Stylesheet
	strategy    Strategy
	rewrite     *core.Result  // nil for no-rewrite
	plan        *sqlxml.Query // nil unless StrategySQL
	fallback    string        // why a stronger strategy was not used

	// brk is the plan's circuit breaker. It is the one mutable member —
	// internally synchronized — and, because the plan cache shares
	// planStates, its trip state is genuinely per-plan.
	brk *breaker
}

// chain lists the runtime degradation chain for this plan, strongest
// available strategy first. A forced strategy pins the chain to one entry:
// forcing is a correctness contract, so there is nothing to degrade to.
func (st *planState) chain(opts compileOptions) []Strategy {
	if opts.Force != nil {
		return []Strategy{st.strategy}
	}
	switch st.strategy {
	case StrategySQL:
		return []Strategy{StrategySQL, StrategyXQuery, StrategyNoRewrite}
	case StrategyXQuery:
		return []Strategy{StrategyXQuery, StrategyNoRewrite}
	default:
		return []Strategy{StrategyNoRewrite}
	}
}

// CompiledTransform is a stylesheet compiled against a view.
type CompiledTransform struct {
	db       *Database
	viewName string
	source   string
	opts     compileOptions

	// mu guards state, fallback and recompiles across concurrent
	// Run/OpenCursor calls racing with automatic recompilation.
	mu    sync.RWMutex
	state *planState

	// fallback explains why a stronger strategy was not used; rewritten on
	// automatic recompilation. Read it through FallbackReason().
	fallback string
	// recompiles counts automatic recompilations triggered by view
	// redefinition. Read it through Recompiles().
	recompiles int
}

// FallbackReason explains why a stronger strategy was not used ("" when the
// compiled strategy is the strongest). It replaces the former exported field
// of the same name, which was mutated by automatic recompilation and could
// not be read safely while runs were in flight; the method reads under the
// transform's lock.
func (ct *CompiledTransform) FallbackReason() string {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	return ct.fallback
}

// Recompiles counts the automatic recompilations this transform performed
// after view redefinitions (§7.3). Like FallbackReason, it replaces a
// former exported mutable field with a lock-protected accessor.
func (ct *CompiledTransform) Recompiles() int {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	return ct.recompiles
}

// CompileTransform compiles stylesheet text against the named view,
// choosing the strongest applicable strategy. Options may be the functional
// kind (WithForcedStrategy, WithParallelism, WithOuterPath) or a single
// legacy compileOptions struct. Identical compilations are served from the
// database's plan cache.
func (d *Database) CompileTransform(viewName, stylesheet string, opts ...Option) (*CompiledTransform, error) {
	co := buildOptions(opts)
	st, err := d.compilePlan(viewName, stylesheet, co, nil)
	if err != nil {
		return nil, err
	}
	return &CompiledTransform{
		db: d, viewName: viewName, source: stylesheet, opts: co,
		state: st, fallback: st.fallback,
	}, nil
}

// compilePlan resolves the view, consults the plan cache (with singleflight
// dedup of concurrent identical compilations), and compiles on a miss. sp,
// when non-nil, is the compile span of a traced run: the cache outcome is
// recorded on it, and on a miss the pipeline stages record phase spans
// beneath it.
func (d *Database) compilePlan(viewName, stylesheet string, co compileOptions, sp *obs.Span) (*planState, error) {
	view, version := d.viewAndVersion(viewName)
	if view == nil {
		return nil, fmt.Errorf("xsltdb: no view %q: %w", viewName, ErrNoView)
	}
	key := newPlanKey(viewName, version, stylesheet, co)
	st, hit, err := d.plans.get(key, func() (*planState, error) {
		return d.compilePlanUncached(view, version, stylesheet, co, sp)
	})
	if sp != nil {
		if hit {
			sp.SetAttr("cache", "hit")
		} else {
			sp.SetAttr("cache", "miss")
		}
	}
	return st, err
}

// compilePlanUncached runs the actual compilation pipeline: parse, schema
// derivation, XSLT→XQuery rewrite, optional outer-path composition,
// XQuery→SQL/XML lowering — degrading per the fallback chain unless a
// strategy is forced.
func (d *Database) compilePlanUncached(view *ViewDef, version int, stylesheet string, opts compileOptions, sp *obs.Span) (st *planState, err error) {
	// Compilation runs caller-provided stylesheet text through several
	// recursive-descent stages; contain any engine panic here so a malformed
	// input can never take the process down.
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("xsltdb: compile: %w", &InternalError{Panic: r, Stack: debug.Stack()})
		}
	}()
	parseSp := sp.Start("parse")
	sheet, err := xslt.ParseStylesheet(stylesheet)
	if err != nil {
		parseSp.Fail(err)
		parseSp.End()
		return nil, fmt.Errorf("%w: %w", ErrCompile, err)
	}
	parseSp.End()
	st = &planState{view: view, viewVersion: version, sheet: sheet, strategy: StrategyNoRewrite, brk: &breaker{}}

	if opts.Force != nil && *opts.Force == StrategyNoRewrite {
		if len(opts.OuterPath) > 0 {
			return nil, fmt.Errorf("xsltdb: OuterPath requires a rewrite strategy: %w", ErrRewriteFellBack)
		}
		return st, nil
	}

	schemaSp := sp.Start("derive-schema")
	schema, err := d.exec.DeriveSchema(view)
	if err != nil {
		schemaSp.Fail(err)
		schemaSp.End()
		if opts.Force != nil {
			return nil, fmt.Errorf("xsltdb: schema derivation failed: %w: %w", err, ErrRewriteFellBack)
		}
		st.fallback = "schema derivation failed: " + err.Error()
		return st, nil
	}
	schemaSp.End()
	// core.Rewrite is the paper's §4 stage: partial evaluation of the
	// stylesheet over the structural schema, then XQuery generation.
	xqSp := sp.Start("xquery-gen")
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		xqSp.Fail(err)
		xqSp.End()
		if opts.Force != nil {
			return nil, fmt.Errorf("xsltdb: rewrite failed: %w: %w", err, ErrRewriteFellBack)
		}
		st.fallback = "XSLT→XQuery rewrite failed: " + err.Error()
		return st, nil
	}
	if xqSp != nil {
		xqSp.SetAttr("inlined", res.Inlined)
	}
	xqSp.End()
	st.rewrite = res
	st.strategy = StrategyXQuery

	module := res.Module
	if len(opts.OuterPath) > 0 {
		projected, err := xq2sql.ProjectPath(module, opts.OuterPath)
		if err != nil {
			return nil, fmt.Errorf("xsltdb: outer path: %w", err)
		}
		module = projected
		st.rewrite = &core.Result{Module: module, Mode: res.Mode, Inlined: res.Inlined, PE: res.PE, Notes: res.Notes}
	}

	if opts.Force != nil && *opts.Force == StrategyXQuery {
		return st, nil
	}

	sqlSp := sp.Start("sql-rewrite")
	plan, err := xq2sql.Translate(module, view)
	if err != nil {
		sqlSp.Fail(err)
		sqlSp.End()
		if opts.Force != nil && *opts.Force == StrategySQL {
			return nil, fmt.Errorf("xsltdb: SQL lowering failed: %w: %w", err, ErrRewriteFellBack)
		}
		st.fallback = "XQuery→SQL/XML lowering failed: " + err.Error()
		return st, nil
	}
	if sqlSp != nil {
		info := xq2sql.Describe(plan)
		sqlSp.SetAttr("hoisted_preds", info.HoistedPreds)
		sqlSp.SetAttr("agg_subqueries", info.AggSubqueries)
		if info.ScalarAggs > 0 {
			sqlSp.SetAttr("scalar_aggs", info.ScalarAggs)
		}
		if info.Conds > 0 {
			sqlSp.SetAttr("residual_conds", info.Conds)
		}
	}
	sqlSp.End()
	st.plan = plan
	st.strategy = StrategySQL
	return st, nil
}

// snapshot returns the current compiled state under the read lock.
func (ct *CompiledTransform) snapshot() *planState {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	return ct.state
}

// ensureFresh recompiles the transform if its view was redefined since the
// last compilation (§7.3). It returns the state to execute plus how many
// recompilations this call performed (0 or 1). sp, when non-nil, is the
// traced run's compile span — it receives the cache outcome and, on an
// actual recompile, the pipeline phase spans.
func (ct *CompiledTransform) ensureFresh(sp *obs.Span) (*planState, int, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	_, cur := ct.db.viewAndVersion(ct.viewName)
	if cur == ct.state.viewVersion {
		if sp != nil {
			sp.SetAttr("cache", "fresh")
		}
		return ct.state, 0, nil
	}
	st, err := ct.db.compilePlan(ct.viewName, ct.source, ct.opts, sp)
	if err != nil {
		return nil, 0, fmt.Errorf("xsltdb: automatic recompilation after view change: %w", err)
	}
	ct.state = st
	ct.recompiles++
	ct.fallback = st.fallback
	return st, 1, nil
}

// Strategy reports the chosen execution strategy.
func (ct *CompiledTransform) Strategy() Strategy { return ct.snapshot().strategy }

// Inlined reports whether the XQuery stage fully inlined (§5 statistic).
func (ct *CompiledTransform) Inlined() bool {
	st := ct.snapshot()
	return st.rewrite != nil && st.rewrite.Inlined
}

// Notes lists the optimizations the rewriter applied.
func (ct *CompiledTransform) Notes() []string {
	st := ct.snapshot()
	if st.rewrite == nil {
		return nil
	}
	return st.rewrite.Notes
}

// XQuery returns the generated XQuery text ("" for no-rewrite).
func (ct *CompiledTransform) XQuery() string {
	st := ct.snapshot()
	if st.rewrite == nil {
		return ""
	}
	return st.rewrite.Module.String()
}

// SQL returns the generated SQL/XML text ("" unless StrategySQL).
func (ct *CompiledTransform) SQL() string {
	st := ct.snapshot()
	if st.plan == nil {
		return ""
	}
	return st.plan.SQL()
}

// Run executes the transformation — one serialized result per qualifying
// driving row — and returns the rows together with this run's private
// ExecStats. It is the single execution entry point: the context governs
// cancellation (plus the transform's WithTimeout, if any), and RunOptions
// parameterize the compiled plan without recompiling it — WithParam binds
// variables, WithWhere adds driving predicates (pushed down to index
// probes when possible), WithoutPushdown forces the full-scan baseline.
//
// A transform whose view was redefined since compilation recompiles
// automatically first (§7.3). On a run-stage error the returned Result is
// still non-nil: its Stats describe the work done up to the failure,
// including degradations, breaker activity, and recovered panics.
func (ct *CompiledTransform) Run(ctx context.Context, opts ...RunOption) (*Result, error) {
	if err := ct.db.checkOpen(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ro := buildRunOptions(opts)
	// A run under a slow threshold traces itself when the caller did not,
	// so a slow-run report always carries the full operator tree. The same
	// applies when the trace-sampling policy selects this run for the
	// run-history archive.
	hist := ct.db.history.Load()
	sampled := ct.opts.Sampling.wantTrace(hist)
	tr := ro.trace
	ownTrace := false
	if tr == nil && (sampled || (ct.opts.SlowThreshold > 0 && ct.opts.SlowSink != nil)) {
		tr = obs.New()
		ownTrace = true
	}
	if ownTrace {
		defer tr.Release()
	}

	start := time.Now()
	root := tr.Start("run")
	defer root.End()
	if root != nil {
		root.SetAttr("view", ct.viewName)
	}
	compileSp := root.Start("compile")
	st, recompiled, err := ct.ensureFresh(compileSp)
	compileSp.End()
	if err != nil {
		root.Fail(err)
		return nil, err
	}
	spec, access, err := ct.db.runSpec(st, ro, false)
	if err != nil {
		root.Fail(err)
		return nil, err
	}
	pin := snapPins.pin()
	defer snapPins.unpin(pin)
	if ct.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ct.opts.Timeout)
		defer cancel()
	}
	res := &Result{Stats: ExecStats{Recompiles: int64(recompiled), CompileWall: time.Since(start)}}
	es := &res.Stats
	var sink relstore.Stats
	rows, body, err := ct.db.runGoverned(ctx, st, ct.opts, spec, &sink, es, root)
	es.ExecWall = time.Since(start) - es.CompileWall
	es.mergeSink(sink.Snapshot())
	es.RowsProduced = int64(len(rows))
	es.AccessPath = *access
	es.EstRows = specEstRows(spec)
	ct.db.exec.AddStats(&sink)
	if root != nil {
		root.AddRowsOut(es.RowsProduced)
		if es.AccessPath != "" {
			root.SetAttr("access_path", es.AccessPath)
		}
		root.Fail(err)
		root.End()
	}
	recordRunMetrics(es, err)
	emitSlowRun(ct.opts.SlowThreshold, ct.opts.SlowSink, ct.viewName, tr, es, err)
	keep := sampled && ct.opts.Sampling.keep(es.CompileWall+es.ExecWall, err)
	ct.db.archiveRun(hist, "run", ct.viewName, start, spec, es, err, tr, keep, err == nil)
	if err != nil {
		return res, err
	}
	res.Rows, res.body = rows, body
	return res, nil
}

// runGoverned walks the plan's degradation chain: each strategy is skipped
// if its circuit breaker is open (never the last — something must always
// run), attempted under a fresh governor (so resource budgets never
// double-charge across attempts), and on a non-governance failure the run
// falls through to the next strategy. Governance verdicts — cancellation,
// resource limits, recursion limits — are final: retrying cannot help, so
// they return immediately and do not count against the breaker. body is the
// winning strategy's backing string (see runStrategy); a failed attempt's
// output is dropped whole, so a degraded run carries none of its bytes.
func (d *Database) runGoverned(ctx context.Context, st *planState, opts compileOptions, spec *sqlxml.RunSpec, sink *relstore.Stats, es *ExecStats, root *obs.Span) (rows []string, body string, err error) {
	chain := st.chain(opts)
	var lastErr error
	for i, s := range chain {
		last := i == len(chain)-1
		if !last && !st.brk.allow(s) {
			es.BreakerSkips++
			if root != nil {
				sk := root.Start(s.String())
				sk.SetAttr("breaker", "open")
				sk.SetAttr("skipped", "true")
				sk.End()
			}
			continue
		}
		g := governor.New(ctx).Limits(opts.MaxRows, opts.MaxOutputBytes, opts.MaxRecursionDepth)
		attempt := root.Start(s.String())
		if attempt != nil {
			if bs := st.brk.state(s); bs != "closed" {
				attempt.SetAttr("breaker", bs)
			}
		}
		spec.Span = attempt // strategies run sequentially; the last wins
		if d.history.Load() != nil {
			// With the console enabled, label this goroutine's profile
			// samples so /debug/pprof/profile breaks CPU down by strategy
			// and view. Only here — labeling per cursor row would dominate
			// the per-row cost.
			pprof.Do(ctx, pprof.Labels("strategy", s.String(), "view", st.view.Name), func(context.Context) {
				rows, body, err = d.runStrategy(s, st, opts, spec, sink, g, attempt)
			})
		} else {
			rows, body, err = d.runStrategy(s, st, opts, spec, sink, g, attempt)
		}
		if attempt != nil {
			attempt.SetAttr("gov_ticks", g.Ticks())
		}
		es.GovTicks += int64(g.Ticks())
		if err == nil {
			st.brk.success(s)
			es.StrategyUsed = s
			if attempt != nil {
				attempt.AddRowsOut(int64(len(rows)))
			}
			attempt.End()
			return rows, body, nil
		}
		attempt.Fail(err)
		attempt.End()
		if errors.Is(err, ErrInternal) {
			es.PanicsRecovered++
		}
		if governor.IsGovernance(err) {
			return nil, "", err
		}
		if st.brk.failure(s) {
			es.BreakerTrips++
		}
		lastErr = err
		if !last {
			es.Degradations++
			if root != nil {
				root.SetAttr("degraded_from", s.String())
				root.SetAttr("degradation_reason", err.Error())
			}
		}
	}
	return nil, "", lastErr
}

// runStrategy executes one strategy of a compiled state under governor g,
// with counters routed to sink and the run's spec applied: the SQL plan
// binds parameters and extra predicates into its access path; the fallback
// strategies apply the same driving predicates at view materialization (so
// every strategy selects the same rows) and bind the parameters into the
// XQuery environment. Engine panics are contained here — at the strategy
// boundary — so a panicking strategy degrades like any other failure
// instead of crashing the caller.
//
// The SQL strategy never builds a tree: the executor emits every row's bytes
// into one buffer and hands back body, the whole result as one string (each
// row newline-terminated), with out its per-row substrings. The functional
// strategies return independent row strings and an empty body.
func (d *Database) runStrategy(s Strategy, st *planState, opts compileOptions, spec *sqlxml.RunSpec, sink *relstore.Stats, g *governor.G, sp *obs.Span) (out []string, body string, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, body, err = nil, "", fmt.Errorf("xsltdb: %s: %w", s, &InternalError{Panic: r, Stack: debug.Stack()})
		}
	}()

	// charge bills one produced row against the governor's budgets. It also
	// ticks the cancellation check so that post-query loops (serialization,
	// per-row evaluation) stay responsive even with no budgets configured.
	charge := func(row string) error {
		if err := g.Tick(); err != nil {
			return err
		}
		if err := g.AddRow(); err != nil {
			return err
		}
		return g.AddOutput(len(row))
	}

	switch s {
	case StrategySQL:
		// A per-run WithWorkers overrides the compile-time parallelism for
		// both the scan's morsel pool (via spec.Batch) and the construction
		// fan-out here.
		workers := opts.Parallelism
		if spec != nil && spec.Batch.Workers > 0 {
			workers = spec.Batch.Workers
		}
		body, out, err := d.exec.EmitQuerySpec(st.plan, workers, sink, g, spec)
		if err != nil {
			return nil, "", err
		}
		for _, row := range out {
			if err := charge(row); err != nil {
				return nil, "", err
			}
		}
		return out, body, nil

	case StrategyXQuery:
		rows, err := d.exec.MaterializeViewSpec(st.view, st.drivingWhere(), sink, g, spec)
		if err != nil {
			return nil, "", err
		}
		evalSp := sp.Start("xquery-eval")
		defer evalSp.End()
		var meter *xquery.EvalStats
		if evalSp != nil {
			meter = new(xquery.EvalStats)
		}
		out := make([]string, len(rows))
		for i, row := range rows {
			evalSp.AddRowsIn(1)
			env := bindEnv(xquery.NewEnv(xquery.Item(row)), spec.Params)
			seq, err := xquery.EvalModule(st.rewrite.Module, env.Govern(g).Meter(meter))
			if err != nil {
				evalSp.Fail(err)
				return nil, "", fmt.Errorf("xsltdb: row %d: %w", i, err)
			}
			out[i] = xquery.SerializeSeq(seq)
			evalSp.AddRowsOut(1)
			if err := charge(out[i]); err != nil {
				evalSp.Fail(err)
				return nil, "", err
			}
		}
		if meter != nil {
			evalSp.SetAttr("eval_steps", meter.Steps.Load())
			evalSp.SetAttr("func_calls", meter.FuncCalls.Load())
		}
		return out, "", nil

	default: // StrategyNoRewrite
		rows, err := d.exec.MaterializeViewSpec(st.view, st.drivingWhere(), sink, g, spec)
		if err != nil {
			return nil, "", err
		}
		eng := xslt.New(st.sheet).Govern(g)
		interpSp := sp.Start("xslt-interpret")
		defer interpSp.End()
		out := make([]string, len(rows))
		for i, row := range rows {
			interpSp.AddRowsIn(1)
			s, err := eng.TransformToString(row)
			if err != nil {
				interpSp.Fail(err)
				return nil, "", fmt.Errorf("xsltdb: row %d: %w", i, err)
			}
			out[i] = s
			interpSp.AddRowsOut(1)
			if err := charge(s); err != nil {
				interpSp.Fail(err)
				return nil, "", err
			}
		}
		if interpSp != nil {
			interpSp.SetAttr("templates_applied", eng.TemplatesApplied())
		}
		return out, "", nil
	}
}

// Transform applies a stylesheet to standalone XML text functionally (the
// XMLTransform() convenience without a database).
func Transform(xmlText, stylesheet string) (string, error) {
	doc, err := xmltree.Parse(xmlText)
	if err != nil {
		return "", err
	}
	sheet, err := xslt.ParseStylesheet(stylesheet)
	if err != nil {
		return "", fmt.Errorf("%w: %w", ErrCompile, err)
	}
	return xslt.New(sheet).TransformToString(doc)
}

// RewriteToXQuery compiles a stylesheet against a compact schema (see
// internal/xschema) and returns the generated XQuery text plus whether it
// fully inlined.
func RewriteToXQuery(stylesheet, compactSchema string) (queryText string, inlined bool, err error) {
	sheet, err := xslt.ParseStylesheet(stylesheet)
	if err != nil {
		return "", false, fmt.Errorf("%w: %w", ErrCompile, err)
	}
	schema, err := xschema.ParseCompact(compactSchema)
	if err != nil {
		return "", false, fmt.Errorf("%w: %w", ErrCompile, err)
	}
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		return "", false, err
	}
	return res.Module.String(), res.Inlined, nil
}

// ChainedTransform is a pipeline: a view-backed first stage followed by
// stylesheets applied to each preceding stage's output. Later stages are
// rewritten against the statically-derived schema of the previous stage's
// output when possible (§3.2), else interpreted functionally.
type ChainedTransform struct {
	first  *CompiledTransform
	stages []chainStage
}

type chainStage struct {
	sheet *xslt.Stylesheet
	// module is the rewritten query for this stage; nil = interpret.
	module *xquery.Module
	// Rewritten reports whether the stage uses the XSLT→XQuery rewrite.
	Rewritten bool
}

// Then builds a pipeline that applies stylesheet to every output document
// of ct.
func (ct *CompiledTransform) Then(stylesheet string) (*ChainedTransform, error) {
	chain := &ChainedTransform{first: ct}
	return chain.Then(stylesheet)
}

// Then appends one more stage.
func (c *ChainedTransform) Then(stylesheet string) (*ChainedTransform, error) {
	sheet, err := xslt.ParseStylesheet(stylesheet)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCompile, err)
	}
	st := chainStage{sheet: sheet}
	// Static typing source: the previous rewritten module (first stage or
	// last chained stage).
	var prev *xquery.Module
	if len(c.stages) > 0 {
		prev = c.stages[len(c.stages)-1].module
	} else if first := c.first.snapshot(); first.rewrite != nil {
		prev = first.rewrite.Module
	}
	if prev != nil {
		if schema, err := core.DeriveOutputSchema(prev); err == nil {
			if res, err := core.Rewrite(sheet, schema, core.ModeAuto); err == nil {
				st.module = res.Module
				st.Rewritten = true
			}
		}
	}
	c.stages = append(c.stages, st)
	return c, nil
}

// Stages reports how many chained stages were rewritten (vs interpreted).
func (c *ChainedTransform) Stages() (rewritten, interpreted int) {
	for _, st := range c.stages {
		if st.Rewritten {
			rewritten++
		} else {
			interpreted++
		}
	}
	return rewritten, interpreted
}

// applyStages runs one row of the first stage's output through every
// chained stage under governor g (nil = ungoverned); shared by the
// materializing Run and the streaming cursor. sps, when non-nil, carries
// one operator span per stage (see stageSpans): each accumulates the
// per-row wall time and row counts of its stage.
func applyStages(stages []chainStage, sps []*obs.Span, row string, g *governor.G) (string, error) {
	for i, st := range stages {
		var sp *obs.Span
		var stageStart time.Time
		if sps != nil {
			sp = sps[i]
			stageStart = time.Now()
			sp.AddRowsIn(1)
		}
		doc, err := xmltree.ParseFragment(row)
		if err != nil {
			sp.Fail(err)
			return "", fmt.Errorf("xsltdb: chained stage input: %w", err)
		}
		if st.module != nil {
			seq, err := xquery.EvalModule(st.module, xquery.NewEnv(xquery.Item(doc)).Govern(g))
			if err != nil {
				sp.Fail(err)
				return "", err
			}
			row = xquery.SerializeSeq(seq)
		} else {
			out, err := xslt.New(st.sheet).Govern(g).TransformToString(doc)
			if err != nil {
				sp.Fail(err)
				return "", err
			}
			row = out
		}
		if sp != nil {
			sp.ObserveSince(stageStart)
			sp.AddRowsOut(1)
		}
	}
	return row, nil
}

// stageSpans opens one operator span per chained stage under a "chain" root
// span of tr (nil-safe: a nil trace yields nil everywhere, and applyStages
// skips all span work). The caller Ends the returned root when the pipeline
// finishes.
func stageSpans(tr *obs.Trace, stages []chainStage) ([]*obs.Span, *obs.Span) {
	if tr == nil {
		return nil, nil
	}
	root := tr.Start("chain")
	sps := make([]*obs.Span, len(stages))
	for i, st := range stages {
		sps[i] = root.Start(fmt.Sprintf("stage-%d", i+1))
		if st.Rewritten {
			sps[i].SetAttr("mode", "xquery-rewrite")
		} else {
			sps[i].SetAttr("mode", "interpreted")
		}
	}
	return sps, root
}

// Run executes the pipeline for every view row: the first stage runs with
// the given RunOptions, then each row flows through every chained stage.
// The chained stages honor the FIRST stage's full governance options — not
// just its recursion bound: MaxRows and MaxOutputBytes are enforced against
// the pipeline's final rows (a chained stage can expand its input, so
// charging only the first stage would let the pipeline overshoot the
// caller's budget), and WithTimeout covers the chained processing too.
func (c *ChainedTransform) Run(ctx context.Context, opts ...RunOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fo := c.first.opts
	if fo.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, fo.Timeout)
		defer cancel()
	}
	res, err := c.first.Run(ctx, opts...)
	if err != nil {
		return res, err
	}
	res.body = "" // the stages below replace the first stage's rows
	sps, chainSp := stageSpans(buildRunOptions(opts).trace, c.stages)
	defer chainSp.End()
	g := governor.New(ctx).Limits(fo.MaxRows, fo.MaxOutputBytes, fo.MaxRecursionDepth)
	for i, row := range res.Rows {
		out, err := applyStages(c.stages, sps, row, g)
		if err != nil {
			res.Rows = nil
			return res, err
		}
		if err := g.AddRow(); err != nil {
			res.Rows = nil
			return res, err
		}
		if err := g.AddOutput(len(out)); err != nil {
			res.Rows = nil
			return res, err
		}
		res.Rows[i] = out
	}
	return res, nil
}
