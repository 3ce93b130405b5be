package xsltdb

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
)

// RunOption configures one execution of a compiled transform (Run,
// OpenCursor, ExplainPlan). Run options never affect the compiled plan —
// one plan compiled once serves every combination of parameters — so they
// are deliberately not part of the plan-cache key.
type RunOption interface {
	applyRunOption(*runOptions)
}

type runOptionFunc func(*runOptions)

func (f runOptionFunc) applyRunOption(o *runOptions) { f(o) }

// runOptions accumulates the per-run configuration.
type runOptions struct {
	whereExprs []string
	params     map[string]relstore.Value
	noPushdown bool
	trace      *obs.Trace
	workers    int
	batchSize  int
	err        error // first invalid option, surfaced when the run starts
}

// WithParam binds the XPath/XQuery variable $name for this run. A compiled
// plan whose predicates reference $name (e.g. a stylesheet matching
// `row[@id = $id]`) executes as an index probe on the bound value — the
// plan is compiled once and parameterized per run, never recompiled.
// Supported value types: int, int64, float64, string.
func WithParam(name string, value any) RunOption {
	return runOptionFunc(func(o *runOptions) {
		var v relstore.Value
		switch x := value.(type) {
		case int:
			v = int64(x)
		case int64:
			v = x
		case float64:
			v = x
		case string:
			v = x
		default:
			if o.err == nil {
				o.err = fmt.Errorf("xsltdb: WithParam(%q): unsupported type %T: %w", name, value, ErrBadRunOption)
			}
			return
		}
		if o.params == nil {
			o.params = map[string]relstore.Value{}
		}
		o.params[name] = v
	})
}

// WithWhere adds a driving-table predicate for this run, written as an XPath
// comparison over the view's root element: `deptno = 10`, `@id = $id`,
// `price > 100 and qty < 5`. Names resolve through the view structure (a
// root attribute or leaf child element maps to its backing column) or
// directly to a driving-table column. The predicate joins the compiled
// plan's WHERE clause — pushed down to an index probe or range scan when
// the planner can — and applies identically under every execution strategy.
func WithWhere(expr string) RunOption {
	return runOptionFunc(func(o *runOptions) { o.whereExprs = append(o.whereExprs, expr) })
}

// WithoutPushdown disables index pushdown for this run: the driving table is
// fully scanned with every predicate applied as a residual filter. The
// result is byte-identical to the pushed-down run — only the physical
// access path (and RowsScanned) differs — which makes it the debugging
// baseline for verifying pushdown correctness and measuring its speedup.
func WithoutPushdown() RunOption {
	return runOptionFunc(func(o *runOptions) { o.noPushdown = true })
}

// WithTrace attaches an observability trace to this run: every pipeline
// phase — compile stages on a recompile, each strategy attempt, the scan and
// construct operators — records a span with wall time, rows and
// attributes. Render the result with t.Tree() (the EXPLAIN ANALYZE view) or
// t.JSON(). A run without WithTrace pays only a nil check per instrumented
// site, so tracing is strictly opt-in per run.
func WithTrace(t *obs.Trace) RunOption {
	return runOptionFunc(func(o *runOptions) { o.trace = t })
}

// WithWorkers bounds this run's morsel workers: a driving scan of at least
// 8 192 candidates (heap rows of a full scan, or ids of an index range) is
// filtered, group-joined and constructed a morsel at a time by that many
// workers, the caller's goroutine one of them; so is an XMLAgg group of at
// least 8 192 members whose body ends with its tags closed. Anything smaller
// runs serially. 1 forces fully serial execution (the debugging baseline —
// output is byte-identical at any worker count); 0 or unset means
// GOMAXPROCS. Negative counts are rejected as ErrBadRunOption.
func WithWorkers(n int) RunOption {
	return runOptionFunc(func(o *runOptions) {
		if n < 0 {
			if o.err == nil {
				o.err = fmt.Errorf("xsltdb: WithWorkers(%d): count must be >= 0: %w", n, ErrBadRunOption)
			}
			return
		}
		o.workers = n
	})
}

// WithBatchSize overrides the rows-per-batch chunk size of this run's
// driving access path (default relstore.DefaultBatchSize, 1024). Batch size
// never affects output bytes — only how often the storage layer amortizes
// its locks, fault checks and governor ticks; 1 approximates the historical
// row-at-a-time engine for A/B measurement. Negative sizes are rejected as
// ErrBadRunOption.
func WithBatchSize(n int) RunOption {
	return runOptionFunc(func(o *runOptions) {
		if n < 0 {
			if o.err == nil {
				o.err = fmt.Errorf("xsltdb: WithBatchSize(%d): size must be >= 0: %w", n, ErrBadRunOption)
			}
			return
		}
		o.batchSize = n
	})
}

func buildRunOptions(opts []RunOption) runOptions {
	var ro runOptions
	for _, o := range opts {
		o.applyRunOption(&ro)
	}
	return ro
}

// Result is the outcome of one Run: the serialized result rows (one per
// qualifying driving row) and the execution's private statistics. Run
// returns a non-nil Result even when the execution fails partway — Stats
// then describes the work done up to the failure.
type Result struct {
	// Rows holds the serialized results, one per driving row. The rows are
	// slices of one string holding the whole result, so keeping a single row
	// reachable keeps the run's entire output alive; strings.Clone a row that
	// should outlive the rest.
	Rows []string
	// Stats describes this run: physical operator counters, the access path
	// chosen, strategy degradations, wall times.
	Stats ExecStats

	// body is the string Rows are slices of: every row followed by a newline.
	body string
}

// WriteTo writes the result as Run returned it — every row followed by a
// newline — with a single write, and implements io.WriterTo. That write is
// the run's one backing string, handed over without copying (a writer that
// implements io.StringWriter, such as an http.ResponseWriter, receives it as
// is). Changes made to Rows after Run returned are not reflected.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, r.body)
	return int64(n), err
}

// runSpec resolves the run options against a compiled state: WithWhere
// expressions are lowered to driving-table predicates (through the where
// memo: the structure is derived once per view and text, the parameters are
// bound per run), their columns are validated against the pinned table,
// parameter bindings are validated against the driving predicates, and the
// sqlxml RunSpec is assembled. lenient skips the parameter-coverage check —
// ExplainPlan renders unbound parameters as :name placeholders instead of
// failing, since the plan's shape does not depend on the bound value.
func (d *Database) runSpec(st *planState, ro runOptions, lenient bool) (*sqlxml.RunSpec, error) {
	if ro.err != nil {
		return nil, ro.err
	}
	var extras []relstore.Pred
	for _, expr := range ro.whereExprs {
		preds, err := d.wheres.lower(st.view, expr)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRunOption, err)
		}
		if extras == nil {
			extras = preds // the memo's slice, read-only
		} else {
			extras = slices.Concat(extras, preds)
		}
	}
	// Pin this run's MVCC snapshot: every table read below the executor —
	// driving scan, subqueries, scalar aggregates — resolves against it, so
	// concurrent inserts and view replacements never perturb the run.
	snap := d.rel.Snapshot()
	// Validate raw column names that fell through view resolution: a typo
	// should fail loudly here, not silently match nothing per SQL NULL
	// semantics.
	ts := snap.Table(st.view.Table)
	if ts == nil {
		return nil, fmt.Errorf("xsltdb: view %q references unknown table %q: %w", st.view.Name, st.view.Table, ErrNoTable)
	}
	for _, p := range extras {
		if _, ok := ts.ColType(p.Col); !ok {
			return nil, fmt.Errorf("xsltdb: WithWhere: view %q exposes no column %q: %w", st.view.Name, p.Col, ErrBadRunOption)
		}
	}
	spec := &sqlxml.RunSpec{
		Extra:      extras,
		Params:     ro.params,
		NoPushdown: ro.noPushdown,
		Batch:      relstore.BatchOpts{BatchSize: ro.batchSize, Workers: ro.workers},
		Snap:       snap,
	}
	// Validate parameter coverage of the DRIVING predicates up front: an
	// unbound parameter would otherwise fail every strategy in the chain,
	// degrading twice only to report the same error. The binding lands in
	// the spec's buffer, which each attempt binds into again.
	if !lenient {
		if _, err := spec.BindDriving(st.drivingWhere()); err != nil {
			return nil, fmt.Errorf("xsltdb: %w", err)
		}
	}
	return spec, nil
}

// drivingWhere returns the compiled plan's driving predicates, which the
// fallback strategies apply at view materialization so every strategy
// produces the same row set as the SQL plan (cross-strategy consistency).
func (st *planState) drivingWhere() []relstore.Pred {
	if st.plan == nil {
		return nil
	}
	return st.plan.Where
}
