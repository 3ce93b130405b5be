package xsltdb

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xquery"
	"repro/internal/xslt"
)

// Cursor streams a transformation one driving row at a time (the paper's §6
// iterator-based pull evaluation): nothing is materialized up front — each
// Next pulls one row through the relstore access path, constructs its XML,
// and applies the strategy's evaluation. Use it when results are consumed
// incrementally or the full result set should not be held in memory.
//
// The protocol is Next until io.EOF, then Close. Next returns ErrCanceled
// (also matching the underlying context error) if the cursor's context is
// cancelled or its WithTimeout expires mid-iteration, ErrLimitExceeded when
// a WithMaxRows/WithMaxOutputBytes budget is exhausted, and ErrCursorClosed
// after Close. Any terminal error is sticky.
//
// A cursor is not safe for concurrent Next calls — open one cursor per
// goroutine instead (their stats never share a counter) — but Close may
// race an in-flight Next from another goroutine: Close cancels the run so
// the Next aborts promptly, and the underlying iterators and stats are
// released exactly once no matter how the race lands.
type Cursor struct {
	ctx    context.Context
	cancel context.CancelFunc
	db     *Database
	gov    *governor.G
	brk    *breaker

	// pull yields the next serialized row for the strategy, io.EOF at end.
	// It is captured by Next before releasing mu and runs outside the lock,
	// so a racing Close is never blocked behind a slow row.
	pull func() (string, error)

	strategy Strategy
	panics   atomic.Int64 // recovered pull panics (pull runs outside mu)

	// spec carries the run options down to the executor; accessPath receives
	// the chosen driving access path (written at open time, before Next can
	// run).
	spec       *sqlxml.RunSpec
	accessPath string

	// Observability: trace is the run's trace (the caller's WithTrace, or
	// the cursor's own when only a slow threshold demanded one), root the
	// cursor-lifetime span, attempt the winning strategy's span. slowTh and
	// slowSink are copied from the transform's options at open time.
	trace    *obs.Trace
	ownTrace bool
	root     *obs.Span
	attempt  *obs.Span
	viewName string
	slowTh   time.Duration
	slowSink func(SlowRun)

	// Archive bookkeeping: opened is the cursor's birth time (RunRecord
	// start), sampling/sampled are the trace-sampling policy and its
	// open-time decision, pinID the snapshot-pin handle held for the
	// cursor's lifetime.
	opened   time.Time
	sampling TraceSampling
	sampled  bool
	pinID    uint64

	mu           sync.Mutex
	sink         relstore.Stats
	rowsProduced int64
	recompiles   int64
	compileWall  time.Duration
	execWall     time.Duration
	degradations int64
	breakerSkips int64
	breakerTrips int64
	err          error // sticky terminal condition (io.EOF, governance, eval error)
	closed       bool

	releaseOnce sync.Once
}

// OpenCursor begins a streaming execution of the transform. A transform
// whose view was redefined since compilation recompiles automatically first
// (§7.3). The SQL strategy streams straight off the plan's access path;
// XQuery and no-rewrite materialize ONE view row per Next.
//
// RunOptions parameterize the stream exactly as they do Run: WithParam
// binds variables, WithWhere adds driving predicates (pushed down to the
// access path), WithoutPushdown forces the full-scan baseline.
//
// The strategy is fixed at open time: strategies whose circuit breaker is
// open are skipped, and a strategy that fails (or panics) while opening
// degrades to the next one in the chain. Mid-stream failures terminate the
// cursor — a half-delivered stream cannot be transparently restarted on a
// weaker strategy without re-emitting rows.
func (ct *CompiledTransform) OpenCursor(ctx context.Context, opts ...RunOption) (*Cursor, error) {
	if err := ct.db.checkOpen(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ro := buildRunOptions(opts)
	hist := ct.db.history.Load()
	sampled := ct.opts.Sampling.wantTrace(hist)
	tr := ro.trace
	ownTrace := false
	if tr == nil && (sampled || (ct.opts.SlowThreshold > 0 && ct.opts.SlowSink != nil)) {
		tr = obs.New()
		ownTrace = true
	}
	releaseTrace := func() {
		if ownTrace {
			tr.Release()
		}
	}

	start := time.Now()
	root := tr.Start("cursor")
	if root != nil {
		root.SetAttr("view", ct.viewName)
	}
	compileSp := root.Start("compile")
	st, recompiled, err := ct.ensureFresh(compileSp)
	compileSp.End()
	if err != nil {
		root.Fail(err)
		root.End()
		releaseTrace()
		return nil, err
	}
	spec, access, err := ct.db.runSpec(st, ro, false)
	if err != nil {
		root.Fail(err)
		root.End()
		releaseTrace()
		return nil, err
	}

	var cancel context.CancelFunc
	if ct.opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, ct.opts.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	g := governor.New(ctx).Limits(ct.opts.MaxRows, ct.opts.MaxOutputBytes, ct.opts.MaxRecursionDepth)
	c := &Cursor{
		ctx: ctx, cancel: cancel, db: ct.db, gov: g, brk: st.brk,
		spec:       spec,
		recompiles: int64(recompiled), compileWall: time.Since(start),
		trace: tr, ownTrace: ownTrace, root: root,
		viewName: ct.viewName, slowTh: ct.opts.SlowThreshold, slowSink: ct.opts.SlowSink,
		opened: start, sampling: ct.opts.Sampling, sampled: sampled,
	}

	chain := st.chain(ct.opts)
	var lastErr error
	for i, s := range chain {
		last := i == len(chain)-1
		if !last && !st.brk.allow(s) {
			c.breakerSkips++
			if root != nil {
				sk := root.Start(s.String())
				sk.SetAttr("breaker", "open")
				sk.SetAttr("skipped", "true")
				sk.End()
			}
			continue
		}
		attempt := root.Start(s.String())
		if attempt != nil {
			if bs := st.brk.state(s); bs != "closed" {
				attempt.SetAttr("breaker", bs)
			}
		}
		c.spec.Span = attempt
		pull, err := c.openStrategy(st, s, ct.opts)
		if err == nil {
			c.strategy = s
			c.attempt = attempt
			c.accessPath = *access
			c.pull = c.governed(pull)
			if !ct.db.registerCursor(c) {
				// Close raced the open: fail the cursor immediately instead
				// of leaving an untracked stream over a closed database.
				c.cancel()
				root.End()
				releaseTrace()
				return nil, ErrDatabaseClosed
			}
			mActiveCursors.Inc()
			c.pinID = snapPins.pin()
			return c, nil
		}
		attempt.Fail(err)
		attempt.End()
		if governor.IsGovernance(err) {
			cancel()
			root.Fail(err)
			root.End()
			releaseTrace()
			return nil, err
		}
		if st.brk.failure(s) {
			c.breakerTrips++
		}
		lastErr = err
		if !last {
			c.degradations++
			if root != nil {
				root.SetAttr("degraded_from", s.String())
				root.SetAttr("degradation_reason", err.Error())
			}
		}
	}
	cancel()
	root.Fail(lastErr)
	root.End()
	releaseTrace()
	return nil, lastErr
}

// openStrategy builds the raw per-row pull for one strategy; open-time
// panics are contained so the chain can degrade past a broken strategy.
func (c *Cursor) openStrategy(st *planState, s Strategy, opts compileOptions) (pull func() (string, error), err error) {
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			pull, err = nil, fmt.Errorf("xsltdb: %s: %w", s, &InternalError{Panic: r, Stack: debug.Stack()})
		}
	}()

	switch s {
	case StrategySQL:
		qc, err := c.db.exec.OpenQueryCursorSpec(st.plan, &c.sink, c.gov, c.spec)
		if err != nil {
			return nil, err
		}
		// The row's bytes are emitted into a buffer this cursor reuses for
		// every row (only one Next runs at a time); the string handed to the
		// caller is its one copy.
		var buf []byte
		return func() (string, error) {
			var err error
			buf, err = qc.AppendNext(buf[:0])
			if err != nil {
				return "", err
			}
			return string(buf), nil
		}, nil

	case StrategyXQuery:
		vc, err := c.db.exec.OpenViewCursorSpec(st.view, st.drivingWhere(), &c.sink, c.gov, c.spec)
		if err != nil {
			return nil, err
		}
		evalSp := c.spec.Span.Start("xquery-eval")
		var meter *xquery.EvalStats
		if evalSp != nil {
			meter = new(xquery.EvalStats)
		}
		module := st.rewrite.Module
		params := c.spec.Params
		row := 0
		return func() (string, error) {
			doc, err := vc.Next()
			if err != nil {
				return "", err
			}
			var start time.Time
			if evalSp != nil {
				start = time.Now()
			}
			env := bindEnv(xquery.NewEnv(xquery.Item(doc)), params)
			seq, err := xquery.EvalModule(module, env.Govern(c.gov).Meter(meter))
			if err != nil {
				evalSp.Fail(err)
				return "", fmt.Errorf("xsltdb: row %d: %w", row, err)
			}
			row++
			out := xquery.SerializeSeq(seq)
			if evalSp != nil {
				evalSp.ObserveSince(start)
				evalSp.AddRowsOut(1)
				evalSp.SetAttr("eval_steps", meter.Steps.Load())
			}
			return out, nil
		}, nil

	default: // StrategyNoRewrite
		vc, err := c.db.exec.OpenViewCursorSpec(st.view, st.drivingWhere(), &c.sink, c.gov, c.spec)
		if err != nil {
			return nil, err
		}
		eng := xslt.New(st.sheet).Govern(c.gov)
		interpSp := c.spec.Span.Start("xslt-interpret")
		row := 0
		return func() (string, error) {
			doc, err := vc.Next()
			if err != nil {
				return "", err
			}
			var start time.Time
			if interpSp != nil {
				start = time.Now()
			}
			s, err := eng.TransformToString(doc)
			if err != nil {
				interpSp.Fail(err)
				return "", fmt.Errorf("xsltdb: row %d: %w", row, err)
			}
			row++
			if interpSp != nil {
				interpSp.ObserveSince(start)
				interpSp.AddRowsOut(1)
				interpSp.SetAttr("templates_applied", eng.TemplatesApplied())
			}
			return s, nil
		}, nil
	}
}

// governed wraps a raw pull with the per-row governance work: a sticky
// cancellation/limit check before the pull, row/output charging after it,
// and panic containment around the whole step.
func (c *Cursor) governed(pull func() (string, error)) func() (string, error) {
	return func() (s string, err error) {
		defer func() {
			if r := recover(); r != nil {
				c.panics.Add(1)
				s, err = "", fmt.Errorf("xsltdb: %w", &InternalError{Panic: r, Stack: debug.Stack()})
			}
		}()
		if err := c.gov.Check(); err != nil {
			return "", err
		}
		s, err = pull()
		if err != nil {
			return "", err
		}
		if err := c.gov.AddRow(); err != nil {
			return "", err
		}
		if err := c.gov.AddOutput(len(s)); err != nil {
			return "", err
		}
		return s, nil
	}
}

// OpenCursor streams the whole pipeline: each driving row is pulled through
// the first stage's cursor and then through every chained stage before the
// next row is touched. RunOptions apply to the first (view-backed) stage.
// The chained stages honor the first stage's full governance options — a
// separate governor charges the pipeline's FINAL rows against MaxRows and
// MaxOutputBytes, since a chained stage can expand its input past what the
// first stage's own accounting saw.
func (c *ChainedTransform) OpenCursor(ctx context.Context, opts ...RunOption) (*Cursor, error) {
	cur, err := c.first.OpenCursor(ctx, opts...)
	if err != nil {
		return nil, err
	}
	stages := c.stages
	inner := cur.pull
	fo := c.first.opts
	g := governor.New(cur.ctx).Limits(fo.MaxRows, fo.MaxOutputBytes, fo.MaxRecursionDepth)
	sps, chainSp := stageSpans(cur.trace, stages)
	cur.pull = func() (string, error) {
		row, err := inner()
		if err != nil {
			chainSp.End()
			return "", err
		}
		out, err := applyStages(stages, sps, row, g)
		if err != nil {
			chainSp.End()
			return "", err
		}
		if err := g.AddRow(); err != nil {
			return "", err
		}
		if err := g.AddOutput(len(out)); err != nil {
			return "", err
		}
		return out, nil
	}
	return cur, nil
}

// Next returns the next serialized result row. It returns io.EOF at end of
// stream, an ErrCanceled-wrapping error if the cursor's context was
// cancelled, and ErrCursorClosed after Close. Any terminal error is sticky.
func (c *Cursor) Next() (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrCursorClosed
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return "", err
	}
	pull := c.pull
	c.mu.Unlock()

	start := time.Now()
	s, err := pull()
	wall := time.Since(start)

	c.mu.Lock()
	c.execWall += wall
	if c.closed {
		// Close won the race while the pull was in flight; Close already
		// released the cursor, so just report it gone.
		c.mu.Unlock()
		return "", ErrCursorClosed
	}
	if err != nil {
		c.terminateLocked(err)
		c.mu.Unlock()
		c.release()
		return "", err
	}
	c.rowsProduced++
	c.mu.Unlock()
	return s, nil
}

// terminateLocked records the sticky terminal condition and reports the
// outcome to the plan's circuit breaker. Callers hold c.mu and must call
// c.release() AFTER unlocking — release re-acquires the mutex for its stats
// snapshot and runs the slow-run sink outside any lock.
func (c *Cursor) terminateLocked(err error) {
	c.err = err
	switch {
	case err == io.EOF:
		c.brk.success(c.strategy)
	case governor.IsGovernance(err):
		// A governance verdict says nothing about the strategy's health.
	default:
		if c.brk.failure(c.strategy) {
			c.breakerTrips++
		}
	}
}

// release cancels the run, merges this cursor's counters into the
// database-wide aggregate, finishes the cursor's spans, records run metrics,
// and fires the slow-run sink — exactly once over the cursor's lifetime
// however Close, end-of-stream, and errors interleave. Must be called
// WITHOUT c.mu held: it takes the lock briefly for the stats snapshot and
// runs the sink callback (which may call Stats) unlocked.
func (c *Cursor) release() {
	c.releaseOnce.Do(func() {
		c.cancel()
		c.db.unregisterCursor(c)
		c.db.exec.AddStats(&c.sink)
		mActiveCursors.Dec()
		snapPins.unpin(c.pinID)

		c.mu.Lock()
		es := c.statsLocked()
		err := c.err
		c.mu.Unlock()

		outcome := err
		if outcome == io.EOF {
			outcome = nil
		}
		if c.attempt != nil {
			c.attempt.SetAttr("gov_ticks", c.gov.Ticks())
			c.attempt.AddRowsOut(es.RowsProduced)
			if outcome != nil {
				c.attempt.Fail(outcome)
			}
			c.attempt.End()
		}
		if c.root != nil {
			if es.AccessPath != "" {
				c.root.SetAttr("access_path", es.AccessPath)
			}
			c.root.AddRowsOut(es.RowsProduced)
			if outcome != nil {
				c.root.Fail(outcome)
			}
			c.root.End()
		}
		recordRunMetrics(&es, outcome)
		emitSlowRun(c.slowTh, c.slowSink, c.viewName, c.trace, &es, outcome)
		// err (pre-normalization) distinguishes a drained stream (io.EOF:
		// the actual row count is the true cardinality) from an early Close
		// or failure, where the actual says nothing about the estimate.
		keep := c.sampled && c.sampling.keep(es.CompileWall+es.ExecWall, outcome)
		c.db.archiveRun(c.db.history.Load(), "cursor", c.viewName, c.opened, c.spec, &es, outcome, c.trace, keep, err == io.EOF)
		if c.ownTrace {
			c.trace.Release()
		}
	})
}

// failDatabaseClosed terminates an in-flight cursor because its database
// was closed: the sticky error becomes ErrDatabaseClosed and the cursor is
// released. Unlike an ordinary failure it never counts against the plan's
// circuit breaker — the strategy did nothing wrong — and it is safe to race
// with Next and Close (release runs exactly once).
func (c *Cursor) failDatabaseClosed() {
	c.mu.Lock()
	if c.closed || c.err != nil {
		c.mu.Unlock()
		c.release() // idempotent; covers a cursor terminated but not yet released
		return
	}
	c.err = ErrDatabaseClosed
	c.mu.Unlock()
	c.release()
}

// Close releases the cursor. Closing early — before io.EOF — is the way to
// abandon a partially-consumed stream: the run's context is cancelled (an
// in-flight Next in another goroutine aborts promptly), the remaining rows
// are never pulled, and this run's counters are merged into the aggregate
// at that point. Close is idempotent and safe to call concurrently.
func (c *Cursor) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.pull = nil // release plan/iterator references
	c.mu.Unlock()
	c.release()
	return nil
}

// Stats returns a snapshot of this cursor's per-run statistics; valid both
// mid-iteration and after Close.
func (c *Cursor) Stats() ExecStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

// statsLocked builds the snapshot; callers hold c.mu.
func (c *Cursor) statsLocked() ExecStats {
	es := ExecStats{
		RowsProduced:    c.rowsProduced,
		AccessPath:      c.accessPath,
		EstRows:         specEstRows(c.spec),
		Recompiles:      c.recompiles,
		CompileWall:     c.compileWall,
		ExecWall:        c.execWall,
		StrategyUsed:    c.strategy,
		Degradations:    c.degradations,
		BreakerSkips:    c.breakerSkips,
		BreakerTrips:    c.breakerTrips,
		PanicsRecovered: c.panics.Load(),
		GovTicks:        int64(c.gov.Ticks()),
	}
	es.mergeSink(c.sink.Snapshot())
	return es
}

// Collect drains the cursor into a slice and closes it — Run semantics over
// a cursor; mostly useful in tests and small tools.
func (c *Cursor) Collect() ([]string, error) {
	defer c.Close()
	var out []string
	for {
		row, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
}
