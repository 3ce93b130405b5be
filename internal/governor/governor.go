// Package governor is the execution-governance layer shared by every
// evaluation loop in the engine. A query running inside a database server
// must never run away with the process: it has to stop promptly when the
// session's context is cancelled, stay inside configured resource budgets
// (rows, output bytes, recursion depth), and report the violation as a
// typed error instead of crashing or silently truncating.
//
// A *G is created at the facade (Run/OpenCursor) and threaded down through
// the relstore iterators, the SQL/XML construction loops, the XQuery
// evaluator and the XSLT interpreter. Every layer calls Tick (amortized) or
// the budget methods; the first violation is sticky, so all layers unwind
// with the same error.
//
// All methods are safe on a nil receiver (they no-op), so internal code can
// call them unconditionally, and safe for concurrent use (parallel workers
// share one G).
package governor

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Sentinel errors. The public facade re-exports these, so errors.Is works
// across the package boundary.
var (
	// ErrCanceled reports that the run's context was cancelled or its
	// deadline expired. Errors carrying it also wrap the underlying
	// context error, so errors.Is(err, context.Canceled) keeps working.
	ErrCanceled = errors.New("execution canceled")
	// ErrLimitExceeded reports a configured resource budget was exhausted.
	ErrLimitExceeded = errors.New("resource limit exceeded")
	// ErrRecursionLimit reports template/function recursion deeper than
	// the configured bound (a runaway xsl:apply-templates, typically).
	ErrRecursionLimit = errors.New("recursion limit exceeded")
)

// LimitError carries which budget was exhausted; it wraps ErrLimitExceeded.
type LimitError struct {
	Kind  string // "rows" or "output-bytes"
	Limit int64
	Used  int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("governor: %s limit exceeded: %d > %d", e.Kind, e.Used, e.Limit)
}

func (e *LimitError) Unwrap() error { return ErrLimitExceeded }

// cancelError wraps both ErrCanceled and the context's own error.
type cancelError struct{ cause error }

func (e *cancelError) Error() string {
	return "governor: " + ErrCanceled.Error() + ": " + e.cause.Error()
}

func (e *cancelError) Unwrap() []error { return []error{ErrCanceled, e.cause} }

// tickMask amortizes context checks: a full check happens every
// tickMask+1 Ticks. Cancellation latency is therefore bounded by the time
// the engine needs for 64 ticks — microseconds, far inside the <100ms
// promptness budget — while the fast path stays one atomic add.
const tickMask = 63

// G governs one execution. The zero value is not useful; use New.
type G struct {
	ctx  context.Context
	done <-chan struct{}

	ticks atomic.Uint64

	maxRows   int64
	rows      atomic.Int64
	maxOutput int64
	output    atomic.Int64

	maxDepth int

	// failed latches the first violation so every layer unwinds with it.
	failed atomic.Pointer[error]
}

// New returns a governor bound to ctx. ctx may be nil (treated as
// context.Background()).
func New(ctx context.Context) *G {
	if ctx == nil {
		ctx = context.Background()
	}
	return &G{ctx: ctx, done: ctx.Done()}
}

// Limits configures the budgets; zero values mean unlimited. It returns g
// for chaining and must be called before the run starts.
func (g *G) Limits(maxRows, maxOutputBytes int64, maxDepth int) *G {
	g.maxRows = maxRows
	g.maxOutput = maxOutputBytes
	g.maxDepth = maxDepth
	return g
}

// Context returns the governed context (context.Background() on nil).
func (g *G) Context() context.Context {
	if g == nil || g.ctx == nil {
		return context.Background()
	}
	return g.ctx
}

// MaxDepth returns the configured recursion bound, or def when unset.
func (g *G) MaxDepth(def int) int {
	if g == nil || g.maxDepth <= 0 {
		return def
	}
	return g.maxDepth
}

// fail latches err as the governor's sticky terminal error.
func (g *G) fail(err error) error {
	g.failed.CompareAndSwap(nil, &err)
	return *g.failed.Load()
}

// Err returns the sticky violation, if any.
func (g *G) Err() error {
	if g == nil {
		return nil
	}
	if p := g.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Tick is the amortized per-iteration check: most calls are one atomic
// add; every 64th call performs the full cancellation check. Evaluation
// loops call it once per row / node / instruction.
func (g *G) Tick() error {
	if g == nil {
		return nil
	}
	if g.ticks.Add(1)&tickMask != 0 {
		if p := g.failed.Load(); p != nil {
			return *p
		}
		return nil
	}
	return g.Check()
}

// TickN charges n evaluation steps in one call — the batch-at-a-time form
// of Tick. A batch iterator that visits 1024 rows calls TickN(1024) once
// instead of Tick() 1024 times, keeping the ticks counter an honest work
// proxy while paying one atomic add per batch. A full cancellation check
// runs whenever the add crosses a 64-tick boundary, so cancellation latency
// is bounded by one batch regardless of batch size (n >= 64 always checks).
func (g *G) TickN(n int) error {
	if g == nil {
		return nil
	}
	if n <= 0 {
		if p := g.failed.Load(); p != nil {
			return *p
		}
		return nil
	}
	after := g.ticks.Add(uint64(n))
	if (after-uint64(n))>>6 == after>>6 {
		// No 64-tick boundary crossed: amortized path, sticky error only.
		if p := g.failed.Load(); p != nil {
			return *p
		}
		return nil
	}
	return g.Check()
}

// Check performs the full (unamortized) cancellation check: sticky error
// first, then the context.
func (g *G) Check() error {
	if g == nil {
		return nil
	}
	if p := g.failed.Load(); p != nil {
		return *p
	}
	if g.done != nil {
		select {
		case <-g.done:
			return g.fail(&cancelError{cause: g.ctx.Err()})
		default:
		}
	}
	return nil
}

// AddRow charges one produced result row against the row budget.
func (g *G) AddRow() error {
	if g == nil {
		return nil
	}
	n := g.rows.Add(1)
	if g.maxRows > 0 && n > g.maxRows {
		return g.fail(&LimitError{Kind: "rows", Limit: g.maxRows, Used: n})
	}
	return nil
}

// AddOutput charges n bytes of serialized output against the output budget.
func (g *G) AddOutput(n int) error {
	if g == nil {
		return nil
	}
	total := g.output.Add(int64(n))
	if g.maxOutput > 0 && total > g.maxOutput {
		return g.fail(&LimitError{Kind: "output-bytes", Limit: g.maxOutput, Used: total})
	}
	return nil
}

// ChargeRow charges one produced result row of n serialized bytes against
// the row and output budgets — what every row source does as soon as a row
// exists, so a budget stops the execution at the row that exceeds it.
func (g *G) ChargeRow(n int) error {
	if err := g.AddRow(); err != nil {
		return err
	}
	return g.AddOutput(n)
}

// Ticks returns the number of amortized checks performed so far — a cheap
// proxy for engine work (evaluation steps, rows, nodes) that the
// observability layer records as a span attribute without the engines
// having to count anything extra.
func (g *G) Ticks() uint64 {
	if g == nil {
		return 0
	}
	return g.ticks.Load()
}

// Rows returns the rows charged so far.
func (g *G) Rows() int64 {
	if g == nil {
		return 0
	}
	return g.rows.Load()
}

// OutputBytes returns the output bytes charged so far.
func (g *G) OutputBytes() int64 {
	if g == nil {
		return 0
	}
	return g.output.Load()
}

// IsGovernance reports whether err is a governance verdict — cancellation,
// a resource limit, or the recursion bound. Governance errors are final:
// the degradation chain must not retry a weaker strategy on them, because
// the verdict applies to the run, not to the strategy that surfaced it.
func IsGovernance(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrLimitExceeded) || errors.Is(err, ErrRecursionLimit)
}
