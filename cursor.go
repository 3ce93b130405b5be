package xsltdb

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/relstore"
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
	cancel context.CancelFunc
	// x is the execution this cursor is the streaming half of. Its stats
	// (guarded by mu) accumulate what the chain walk recorded at open time,
	// then the rows and the time spent inside Next; the live pipeline's
	// governor ticks and the sink are folded in by statsLocked.
	x     execution
	chain *chainRun // chained stages (nil for a plain transform)
	pinID uint64    // snapshot-pin handle held for the cursor's lifetime

	// buf is the row buffer the pipeline appends into, reused for every row
	// (only one Next runs at a time); the string handed to the caller is its
	// one copy.
	buf []byte

	mu   sync.Mutex
	sink relstore.Stats
	// p is the open pipeline, fixed when the cursor opened. Next captures it
	// before releasing mu and pulls outside the lock, so a racing Close is
	// never blocked behind a slow row; release drops it, and with it the
	// plan and iterator references.
	p      *pipeline
	err    error // sticky terminal condition (io.EOF, governance, eval error)
	closed bool

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
// The strategy is fixed at open time: a strategy that fails (or panics)
// while opening degrades to the next one in the chain. Mid-stream failures
// terminate the cursor — a half-delivered stream cannot be transparently
// restarted on a weaker strategy without re-emitting rows.
func (ct *CompiledTransform) OpenCursor(ctx context.Context, opts ...RunOption) (*Cursor, error) {
	return ct.openCursor(ctx, nil, opts)
}

// openCursor is OpenCursor with the chained stages (nil for a plain
// transform) every row flows through. It walks the degradation chain with
// open alone as the attempt and hands the winning pipeline's pull to Next.
func (ct *CompiledTransform) openCursor(ctx context.Context, stages []chainStage, opts []RunOption) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	x, err := ct.begin("cursor", opts)
	if err != nil {
		return nil, err
	}
	var cancel context.CancelFunc
	if ct.opts.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, ct.opts.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	c := &Cursor{cancel: cancel, x: x, chain: startChain(x.trace, stages)}
	c.chain.govern(ctx, &ct.opts)
	c.p, err = ct.db.walkChain(ctx, x.st, ct.opts, x.spec, x.root, &c.x.es, func(p *pipeline) error {
		return ct.db.open(p, x.st, x.spec, &c.sink)
	})
	if err == nil {
		c.x.es.AccessPath = x.spec.Driving.Explain()
		c.pinID = ct.db.pin()
		if ct.db.registerCursor(c) {
			return c, nil
		}
		// Close raced the open: refuse the cursor instead of leaving an
		// untracked stream over a closed database.
		ct.db.unpin(c.pinID)
		c.p.end(0, nil)
		err = ErrDatabaseClosed
	}
	// However opening failed, nothing ran, so nothing is reported.
	cancel()
	c.chain.end()
	x.abort(err)
	return nil, err
}

// OpenCursor streams the whole pipeline: each driving row is pulled through
// the first stage's strategy and then through every chained stage before the
// next row is touched. RunOptions apply to the first (view-backed) stage,
// whose governance options the chained stages honor exactly as under Run.
func (c *ChainedTransform) OpenCursor(ctx context.Context, opts ...RunOption) (*Cursor, error) {
	return c.first.openCursor(ctx, c.stages, opts)
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
	p := c.p
	c.mu.Unlock()

	start := time.Now()
	buf, err := c.chain.appendNext(p, c.buf[:0])
	wall := time.Since(start)

	c.mu.Lock()
	c.x.es.ExecWall += wall
	if c.closed {
		// Close won the race while the pull was in flight; Close already
		// released the cursor, so just report it gone.
		c.mu.Unlock()
		return "", ErrCursorClosed
	}
	if c.err != nil {
		// The database closed while the pull was in flight: its verdict, not
		// the cancellation it caused, is the cursor's sticky error.
		err := c.err
		c.mu.Unlock()
		return "", err
	}
	if err != nil {
		c.err = err
		c.mu.Unlock()
		c.release()
		return "", err
	}
	c.buf = buf
	c.x.es.RowsProduced++
	c.mu.Unlock()
	return string(buf), nil
}

// release cancels the run, merges this cursor's counters into the
// database-wide aggregate, ends the pipeline and its spans and reports the
// finished execution, exactly once over the cursor's lifetime however Close,
// end-of-stream, and errors interleave. Must be called WITHOUT c.mu held: it
// takes the lock for the final accounting and reports unlocked.
func (c *Cursor) release() {
	c.releaseOnce.Do(func() {
		c.cancel()
		db := c.x.ct.db
		db.unregisterCursor(c)
		db.exec.AddStats(&c.sink)
		db.unpin(c.pinID)

		c.mu.Lock()
		err := c.err
		p := c.p
		c.p = nil
		c.x.es.GovTicks += int64(p.gov.Ticks())
		if errors.Is(err, ErrInternal) {
			c.x.es.PanicsRecovered++
		}
		p.end(c.x.es.RowsProduced, err)
		es := c.statsLocked()
		c.mu.Unlock()

		c.chain.end()
		if err == io.EOF {
			err = nil
		}
		c.x.finish(&es, err)
	})
}

// failDatabaseClosed terminates an in-flight cursor because its database
// was closed: the sticky error becomes ErrDatabaseClosed and the cursor is
// released. It is safe to race with Next and Close (release runs exactly
// once).
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
	es := c.x.es
	if c.p != nil {
		es.GovTicks += int64(c.p.gov.Ticks())
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
