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
	"fmt"
	"io"
	"runtime/debug"
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

	plans  planCache
	wheres whereMemo

	// history is the run-history archive, nil until EnableRunHistory; the
	// atomic pointer keeps the disabled fast path at one load per run.
	history atomic.Pointer[obs.Archive]

	// metrics are this database's instruments on its own registry (Metrics);
	// pins maps each snapshot its runs and cursors hold to its pin time.
	metrics engineMetrics
	pinMu   sync.Mutex
	pinSeq  uint64
	pins    map[uint64]time.Time

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
	d := &Database{
		rel: rel, exec: sqlxml.NewExecutor(rel),
		views: map[string]*ViewDef{}, viewVersions: map[string]int{},
		pins:    map[uint64]time.Time{},
		cursors: map[*Cursor]struct{}{},
		tenants: map[string]TenantLimits{},
	}
	d.metrics = newEngineMetrics(d)
	return d
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
	d.wheres.evictView(v.Name)
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
	return d.exec.MaterializeViewSpec(v, nil, &d.exec.Stats, nil, nil)
}

// DeriveSchema computes the structural schema of a view's output (§3.2).
func (d *Database) DeriveSchema(name string) (*xschema.Schema, error) {
	v := d.View(name)
	if v == nil {
		return nil, fmt.Errorf("xsltdb: no view %q: %w", name, ErrNoView)
	}
	return d.exec.DeriveSchema(v)
}

// planState is the immutable result of one compilation: it has no mutable
// member, so the plan cache shares it across CompiledTransforms, tenants and
// concurrent runs without a lock. Nothing in here may be mutated after
// compilePlanUncached returns.
type planState struct {
	view        *ViewDef
	viewVersion int
	sheet       *xslt.Stylesheet
	strategy    Strategy
	rewrite     *core.Result    // nil for no-rewrite
	plan        *sqlxml.Query   // nil unless StrategySQL
	prog        *sqlxml.Program // plan's byte constructor, compiled with it
	fallback    string          // why a stronger strategy was not used
	// tree returns the view's tree constructor, the functional strategies'
	// input, compiled at the plan's first functional run (a plan that only
	// runs as SQL never compiles it) and shared by every later one.
	tree func() (*sqlxml.Program, error)
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

	// lastOut is the size of the last result Run produced: a run's pooled
	// buffer can come back empty (a collection drops the pool) and is grown
	// to it at once instead of from zero by repeated appends, which for a
	// megabyte result allocate several times its size. A warm buffer with
	// room for it is left as it is. One without is grown too, although the
	// last result may be some other run's, of another size: pooled buffers
	// are shared by every transform, and one warmed by a small result regrows
	// by appends otherwise (EXPERIMENTS.md "Columnar heap" measures both
	// sides).
	lastOut atomic.Int64
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
// kind (WithForcedStrategy, WithOuterPath, the governance knobs).
// Identical compilations are served from the database's plan cache.
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
	st = &planState{view: view, viewVersion: version, sheet: sheet, strategy: StrategyNoRewrite}
	// The functional strategies read the view's documents filtered by the
	// plan's driving predicates, so every strategy selects the same rows
	// (and index-probes the driving table as the SQL plan would).
	st.tree = sync.OnceValues(func() (*sqlxml.Program, error) {
		return sqlxml.CompileTree(d.rel, &sqlxml.Query{Table: view.Table, Where: st.drivingWhere(), Body: view.Body})
	})

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
	var prog *sqlxml.Program
	if err == nil {
		// Table schemas never change and tables are never dropped, so the
		// program's column ordinals hold for as long as the plan does.
		prog, err = sqlxml.Compile(d.rel, plan)
	}
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
	st.plan, st.prog = plan, prog
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

// execution is what Run and OpenCursor set up before a strategy is chosen:
// the trace (the caller's, or the execution's own when the sampling policy
// demands one), the root span, the freshly compiled state and the run's spec
// — and what they report to when it is over.
type execution struct {
	ct       *CompiledTransform
	kind     string // "run" or "cursor": the root span's name and the archive record's kind
	start    time.Time
	trace    *obs.Trace
	ownTrace bool
	sampled  bool
	root     *obs.Span
	st       *planState
	spec     *sqlxml.RunSpec
	es       ExecStats // Recompiles and CompileWall, the stats every execution starts from
}

// begin resolves the run options, decides on tracing, recompiles the
// transform if its view was redefined since compilation (§7.3) and pins the
// run's snapshot in its spec. A run the trace-sampling policy selects for the
// run-history archive traces itself when the caller did not.
func (ct *CompiledTransform) begin(kind string, opts []RunOption) (x execution, err error) {
	if err := ct.db.checkOpen(); err != nil {
		return x, err
	}
	ro := buildRunOptions(opts)
	x = execution{ct: ct, kind: kind, trace: ro.trace}
	x.sampled = ct.opts.Sampling.wantTrace(ct.db.history.Load())
	if x.trace == nil && x.sampled {
		x.trace, x.ownTrace = obs.New(), true
	}
	x.start = time.Now()
	x.root = x.trace.Start(kind)
	if x.root != nil {
		x.root.SetAttr("view", ct.viewName)
	}
	compileSp := x.root.Start("compile")
	st, recompiled, err := ct.ensureFresh(compileSp)
	compileSp.End()
	if err == nil {
		x.st = st
		x.spec, err = ct.db.runSpec(st, ro, false)
	}
	if err != nil {
		x.abort(err)
		return x, err
	}
	x.es = ExecStats{Recompiles: int64(recompiled), DataVersion: x.spec.Snap.CommitSeq(), CompileWall: time.Since(x.start)}
	return x, nil
}

// abort closes an execution that failed before any strategy ran: nothing was
// executed, so nothing is reported.
func (x *execution) abort(err error) {
	x.root.Fail(err)
	x.root.End()
	if x.ownTrace {
		x.trace.Release()
	}
}

// finish is the engine's one fold over a finished execution: the root span,
// the run metrics and the run-history archive all read the same ExecStats
// here, so they cannot disagree. err is the terminal error (nil for success).
func (x *execution) finish(es *ExecStats, err error) {
	if x.root != nil {
		x.root.AddRowsOut(es.RowsProduced)
		x.root.SetAttr("strategy", es.StrategyUsed.String())
		if es.AccessPath != "" {
			x.root.SetAttr("access_path", es.AccessPath)
		}
		x.root.SetAttr("compile_ns", int64(es.CompileWall))
		x.root.SetAttr("exec_ns", int64(es.ExecWall))
		x.root.Fail(err)
		x.root.End()
	}
	ct := x.ct
	ct.db.recordRunMetrics(es, err)
	keep := x.sampled && ct.opts.Sampling.keep(es.CompileWall+es.ExecWall, err)
	archiveRun(ct.db.history.Load(), x.kind, ct.viewName, x.start, es, err, x.trace, keep)
	if x.ownTrace {
		x.trace.Release()
	}
}

// Run executes the transformation — one serialized result per qualifying
// driving row — and returns the rows together with this run's private
// ExecStats. The context governs cancellation (plus the transform's
// WithTimeout, if any), and RunOptions parameterize the compiled plan without
// recompiling it — WithParam binds variables, WithWhere adds driving
// predicates (pushed down to index probes when possible), WithoutPushdown
// forces the full-scan baseline.
//
// A transform whose view was redefined since compilation recompiles
// automatically first (§7.3). On a run-stage error the returned Result is
// still non-nil: its Stats describe the work done up to the failure,
// including degradations and recovered panics.
func (ct *CompiledTransform) Run(ctx context.Context, opts ...RunOption) (*Result, error) {
	return ct.run(ctx, nil, opts)
}

// run is Run with the chained stages (nil for a plain transform) every row
// flows through. It walks the degradation chain with open + drain as the
// attempt: each strategy streams into the run's pooled buffer, which is
// emptied before every attempt, so a run that degrades mid-stream carries
// none of the failed attempt's bytes.
func (ct *CompiledTransform) run(ctx context.Context, stages []chainStage, opts []RunOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	x, err := ct.begin("run", opts)
	if err != nil {
		return nil, err
	}
	pin := ct.db.pin()
	defer ct.db.unpin(pin)
	if ct.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ct.opts.Timeout)
		defer cancel()
	}
	res := &Result{Stats: x.es}
	es := &res.Stats
	var sink relstore.Stats
	out := sqlxml.GetRowBuf()
	defer sqlxml.PutRowBuf(out)
	out.Grow(int(ct.lastOut.Load()))
	chain := startChain(x.trace, stages)
	p, err := ct.db.walkChain(ctx, x.st, ct.opts, x.spec, x.root, es, func(p *pipeline) error {
		out.Reset()
		chain.govern(ctx, &ct.opts)
		if err := ct.db.open(p, x.st, x.spec, &sink); err != nil {
			return err
		}
		return p.drain(chain, out)
	})
	if err == nil {
		res.body, res.Rows = out.Strings()
		ct.lastOut.Store(int64(len(res.body)))
		es.RowsProduced = int64(len(res.Rows))
		es.GovTicks += int64(p.gov.Ticks())
		p.end(es.RowsProduced, io.EOF)
	}
	chain.end()
	es.ExecWall = time.Since(x.start) - es.CompileWall
	es.mergeSink(sink.Snapshot())
	es.AccessPath = x.spec.Driving.Explain()
	ct.db.exec.AddStats(&sink)
	x.finish(es, err)
	return res, err
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

// chainRun is the chained stages of one execution with their trace spans:
// a "chain" root span and, under it, one operator span per stage that
// accumulates the stage's per-row wall time and row counts. Untraced, the
// spans are nil and apply skips all span work.
type chainRun struct {
	stages []chainStage
	root   *obs.Span
	sps    []*obs.Span
	// gov charges the pipeline's FINAL rows against the first stage's limits
	// — a chained stage can expand its input past what the first stage's own
	// governor saw — and bounds the stages' recursion.
	gov *governor.G
}

// startChain returns the chainRun of stages under tr — nil when there are no
// stages, which is how a plain transform runs.
func startChain(tr *obs.Trace, stages []chainStage) *chainRun {
	if len(stages) == 0 {
		return nil
	}
	cr := &chainRun{stages: stages}
	if tr != nil {
		cr.root = tr.Start("chain")
		cr.sps = make([]*obs.Span, len(stages))
		for i, st := range stages {
			cr.sps[i] = cr.root.Start(fmt.Sprintf("stage-%d", i+1))
			if st.Rewritten {
				cr.sps[i].SetAttr("mode", "xquery-rewrite")
			} else {
				cr.sps[i].SetAttr("mode", "interpreted")
			}
		}
	}
	return cr
}

// end closes the chain's root span when the execution finishes.
func (cr *chainRun) end() {
	if cr != nil {
		cr.root.End()
	}
}

// govern starts cr's final-row accounting afresh: once per cursor, once per
// attempt of a Run, so a run that degrades mid-stream never double-charges.
func (cr *chainRun) govern(ctx context.Context, o *compileOptions) {
	if cr != nil {
		cr.gov = o.governor(ctx)
	}
}

// stageError marks a failure downstream of the first stage's strategy — a
// chained stage's error or panic, the final-row limit — so that it is never
// charged to that strategy (see blameless).
type stageError struct{ error }

func (e stageError) Unwrap() error { return e.error }

// appendNext is p.appendNext with the row then passed through the chained
// stages and charged as a final row; on a nil cr — a plain transform — it is
// p.appendNext alone. This is the one stage decorator: Cursor.Next and drain
// both pull through it.
func (cr *chainRun) appendNext(p *pipeline, dst []byte) ([]byte, error) {
	out, err := p.appendNext(dst)
	if err != nil || cr == nil {
		return out, err
	}
	// What the stages make of the row is charged to cr.gov; every error from
	// here on is a stageError.
	s, err := cr.apply(string(out[len(dst):]))
	if err == nil {
		err = cr.gov.ChargeRow(len(s))
	}
	if err != nil {
		return dst, stageError{err}
	}
	return append(dst, s...), nil
}

// apply runs one row of the first stage's output through every chained stage.
func (cr *chainRun) apply(row string) (_ string, err error) {
	defer contain("chained stage", &err)
	g := cr.gov
	for i, st := range cr.stages {
		var sp *obs.Span
		var stageStart time.Time
		if cr.sps != nil {
			sp = cr.sps[i]
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

// Run executes the pipeline for every view row: the first stage runs with
// the given RunOptions, and each of its rows flows through every chained
// stage before the next is pulled. The chained stages honor the FIRST
// stage's full governance options — not just its recursion bound: a second
// governor charges the pipeline's final rows against MaxRows and
// MaxOutputBytes (a chained stage can expand its input, so charging only the
// first stage would let the pipeline overshoot the caller's budget), and
// WithTimeout covers the chained processing too.
func (c *ChainedTransform) Run(ctx context.Context, opts ...RunOption) (*Result, error) {
	return c.first.run(ctx, c.stages, opts)
}
