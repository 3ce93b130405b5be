package xsltdb

// The facade's one execution pipeline (DESIGN.md §6). A strategy is a value
// that is opened once over a run's spec and then pulled a row at a time:
//
//	walkChain ──► open(strategy) ──► appendNext ──► { Cursor.Next | drain }
//
// walkChain owns everything about choosing a strategy — attempt spans,
// degradation bookkeeping, the governance-is-final rule;
// open owns the switch over Strategy; appendNext owns the per-row work —
// limit check before the pull, row/output charge after it, panic
// containment around it. Run and Cursor differ only in who pulls: a cursor
// hands appendNext to its caller, so its strategy is fixed once opened; Run's
// attempt is open + drain to end of stream, so a mid-stream failure may still
// restart on the next strategy with the failed attempt's bytes dropped.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xmltree"
	"repro/internal/xquery"
	"repro/internal/xslt"
)

// pipeline is one attempt of one strategy: the governor it is charged to,
// the span it records under and, once opened, the source its rows are pulled
// from. Every attempt gets a fresh governor, so a run that degrades never
// double-charges its budgets.
type pipeline struct {
	strategy Strategy
	gov      *governor.G
	span     *obs.Span // nil when the run is untraced

	// rows is the driving cursor: it yields serialized rows under the SQL
	// strategy and view documents, one per driving row, under the functional
	// ones, where eval turns each document into its serialized result.
	rows   *sqlxml.QueryCursor
	eval   func(*pipeline, *xmltree.Node) (string, error)
	evalSp *obs.Span
	n      int // documents evaluated so far (names the row in eval errors)

	module *xquery.Module            // StrategyXQuery
	params map[string]relstore.Value //
	meter  *xquery.EvalStats         // non-nil only when traced
	eng    *xslt.Engine              // StrategyNoRewrite
}

// open opens p's strategy over the run's spec: the SQL plan binds parameters
// and extra predicates into its access path and streams serialized rows; the
// functional strategies apply the same driving predicates to the view (so
// every strategy selects the same rows), materialize ONE document per pull
// and evaluate it — XQuery with the run's parameters bound into its
// environment, the interpreter as is.
func (d *Database) open(p *pipeline, st *planState, spec *sqlxml.RunSpec, sink *relstore.Stats) (err error) {
	var operator string
	switch p.strategy {
	case StrategySQL:
		p.rows, err = d.exec.OpenProgramCursorSpec(st.prog, sink, p.gov, spec)
		return err
	case StrategyXQuery:
		operator, p.eval = "xquery-eval", (*pipeline).evalXQuery
		p.module, p.params = st.rewrite.Module, spec.Params
	default:
		operator, p.eval = "xslt-interpret", (*pipeline).interpret
		p.eng = xslt.New(st.sheet).Govern(p.gov)
	}
	tree, err := st.tree()
	if err != nil {
		return err
	}
	if p.rows, err = d.exec.OpenProgramCursorSpec(tree, sink, p.gov, spec); err != nil {
		return err
	}
	if p.evalSp = p.span.Start(operator); p.evalSp != nil && p.module != nil {
		p.meter = new(xquery.EvalStats)
	}
	return nil
}

func (p *pipeline) evalXQuery(doc *xmltree.Node) (string, error) {
	env := xquery.NewEnv(xquery.Item(doc))
	for name, v := range p.params {
		env.Bind(name, xquery.Seq{xqueryItem(v)})
	}
	seq, err := xquery.EvalModule(p.module, env.Govern(p.gov).Meter(p.meter))
	if err != nil {
		return "", err
	}
	return xquery.SerializeSeq(seq), nil
}

// interpret has no parameter mechanism: a parameterized run that degrades
// this far fails when the stylesheet actually dereferences the variable.
func (p *pipeline) interpret(doc *xmltree.Node) (string, error) {
	return p.eng.TransformToString(doc)
}

// xqueryItem converts a bound run parameter to the XQuery data model.
func xqueryItem(v relstore.Value) xquery.Item {
	switch x := v.(type) {
	case int64:
		return float64(x) // XQuery numbers are doubles
	case float64:
		return x
	case string:
		return x
	}
	return fmt.Sprint(v)
}

// appendNext appends the next row's bytes to dst. It returns io.EOF at end
// of stream and, on any error, dst unextended. This is where limits bound
// the work and not just the reply: the sticky cancellation/limit verdict is
// checked before a row is pulled and the row is charged as soon as it
// exists, so a run stops AT the row that exceeds its budget.
func (p *pipeline) appendNext(dst []byte) (out []byte, err error) {
	defer contain(p.strategy.String(), &err)
	if err := p.gov.Check(); err != nil {
		return dst, err
	}
	if p.eval == nil {
		out, err = p.rows.AppendNext(dst)
	} else {
		out, err = p.evalNext(dst)
	}
	if err == io.EOF {
		return dst, err
	}
	if err != nil {
		// A worker's panic, contained on its goroutine, is the same failure
		// as one raised here.
		var pe *relstore.PanicError
		if errors.As(err, &pe) {
			err = fmt.Errorf("xsltdb: %s: %w", p.strategy, &InternalError{Panic: pe.Value, Stack: pe.Stack})
		}
		return dst, err
	}
	if err := p.gov.ChargeRow(len(out) - len(dst)); err != nil {
		return dst, err
	}
	return out, nil
}

// evalNext is one pull of a functional strategy: the next view document,
// evaluated and serialized.
func (p *pipeline) evalNext(dst []byte) ([]byte, error) {
	doc, err := p.rows.Next()
	if err != nil {
		return dst, err
	}
	var start time.Time
	if p.evalSp != nil {
		start = time.Now()
		p.evalSp.AddRowsIn(1)
	}
	s, err := p.eval(p, doc)
	if err != nil {
		p.evalSp.Fail(err)
		return dst, fmt.Errorf("xsltdb: row %d: %w", p.n, err)
	}
	p.n++
	if p.evalSp != nil {
		p.evalSp.ObserveSince(start)
		p.evalSp.AddRowsOut(1)
	}
	return append(dst, s...), nil
}

// drain pulls p, through the chained stages of chain if any, to end of stream
// into out.
func (p *pipeline) drain(chain *chainRun, out *sqlxml.RowBuf) error {
	for {
		buf, err := chain.appendNext(p, out.Bytes())
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		out.EndRow(buf)
	}
}

// contain converts an engine panic into an error wrapping ErrInternal with
// the stack attached, so a panicking strategy fails — and degrades — like
// any other instead of crashing the caller. Use as `defer contain(what, &err)`.
func contain(what string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("xsltdb: %s: %w", what, &InternalError{Panic: r, Stack: debug.Stack()})
	}
}

// blameless reports whether err says nothing about the health of the
// strategy it stopped: a governance verdict, a closed database, a failure of
// a chained stage downstream of it. Another strategy would only meet such an
// error again, so it is final instead of degrading.
func blameless(err error) bool {
	var stage stageError
	return governor.IsGovernance(err) || errors.Is(err, ErrDatabaseClosed) || errors.As(err, &stage)
}

// end stops the attempt's driving cursor and finishes its spans with its
// outcome — io.EOF for a stream that ran to its end, nil for one abandoned
// healthy (a cursor closed early), else the error that stopped it — after
// rows rows were handed on.
func (p *pipeline) end(rows int64, err error) {
	if p.rows != nil {
		p.rows.Close()
	}
	if p.span == nil {
		return
	}
	if err == io.EOF {
		err = nil
	}
	if p.meter != nil {
		p.evalSp.SetAttr("eval_steps", p.meter.Steps.Load())
		p.evalSp.SetAttr("func_calls", p.meter.FuncCalls.Load())
	}
	if p.eng != nil && p.evalSp != nil {
		p.evalSp.SetAttr("templates_applied", p.eng.TemplatesApplied())
	}
	p.span.SetAttr("gov_ticks", p.gov.Ticks())
	p.span.AddRowsOut(rows)
	p.span.Fail(err)
	p.span.End()
}

// walkChain walks the plan's degradation chain, strongest strategy first,
// until attempt succeeds on one: each strategy is attempted as a fresh
// pipeline, with engine panics contained; a failed attempt is ended and the
// walk falls through to the next strategy. A blameless failure —
// cancellation, a resource or recursion limit, an error in a chained stage —
// is final and returns at once. The winning pipeline is returned still open
// for the caller to end; the walk's counters — degradations, recovered
// panics, the failed attempts' governor ticks — and the winning strategy go
// to es.
func (d *Database) walkChain(ctx context.Context, st *planState, opts compileOptions, spec *sqlxml.RunSpec, root *obs.Span, es *ExecStats, attempt func(*pipeline) error) (*pipeline, error) {
	strategies := st.chain(opts)
	var lastErr error
	for i, s := range strategies {
		p := &pipeline{strategy: s, span: root.Start(s.String()), gov: opts.governor(ctx)}
		spec.Span = p.span // attempts run one after another; the last wins
		err := d.try(ctx, st, p, attempt)
		if err == nil {
			es.StrategyUsed = s
			return p, nil
		}
		es.GovTicks += int64(p.gov.Ticks())
		p.end(0, err)
		if errors.Is(err, ErrInternal) {
			es.PanicsRecovered++
		}
		if blameless(err) {
			return nil, err
		}
		lastErr = err
		if i < len(strategies)-1 {
			es.Degradations++
			if root != nil {
				root.SetAttr("degraded_from", s.String())
				root.SetAttr("degradation_reason", err.Error())
			}
		}
	}
	return nil, lastErr
}

// governor returns a fresh governor over ctx carrying the transform's row,
// output and recursion limits.
func (o *compileOptions) governor(ctx context.Context) *governor.G {
	return governor.New(ctx).Limits(o.MaxRows, o.MaxOutputBytes, o.MaxRecursionDepth)
}

// try runs one attempt with engine panics contained. With the console
// enabled it labels the goroutine's profile samples, so /debug/pprof/profile
// breaks CPU down by strategy and view — per attempt, never per cursor row,
// where the labeling would dominate the row's cost.
func (d *Database) try(ctx context.Context, st *planState, p *pipeline, attempt func(*pipeline) error) (err error) {
	defer contain(p.strategy.String(), &err)
	if d.history.Load() == nil {
		return attempt(p)
	}
	pprof.Do(ctx, pprof.Labels("strategy", p.strategy.String(), "view", st.view.Name), func(context.Context) {
		err = attempt(p)
	})
	return err
}
