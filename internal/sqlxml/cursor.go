package sqlxml

import (
	"io"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/xmltree"
)

// This file is the streaming half of the executor (the paper's §6
// iterator-based pull evaluation): instead of collecting every driving row
// up front, a cursor holds the relstore access path open and constructs one
// XMLType instance per call — as a tree (Next, what the functional
// strategies evaluate over) or directly as serialized bytes (AppendNext, the
// SQL strategy's output). The materializing entry points drain these
// cursors, so every execution style shares one construction path.
//
// Cursors write physical-operator counters to the sink passed at open time;
// passing a per-run sink keeps concurrent executions from sharing counters.
// A governor passed at open time bounds the execution: the driving scan and
// the construction both stop promptly when it reports cancellation or an
// exhausted budget.

// QueryCursor streams a SQL/XML query one qualifying driving row at a time.
// Internally it consumes the driving access path a batch at a time, by one
// of two routes chosen at open (relstore.OpenMorsels):
//
//   - serial: the scan refills a pooled relstore.Batch of row ids, and each
//     call constructs one buffered row;
//   - parallel: the morsel pool's workers group-join and construct every
//     morsel they filter, each with an evalContext of its own, and each call
//     hands out one constructed row in scan order.
//
// Either way the per-call surface stays row-oriented while the storage layer
// pays its locks, fault checks and governor ticks once per batch. A cursor
// is pulled by Next or by AppendNext, not both: on the parallel route the
// workers construct for the kind of the first pull.
//
// Next walks the body into a tree (evalContext.eval); AppendNext runs the
// body's compiled Program. A cursor opened over a plan's program binds the
// program's filters at open and binds the tree body only if it is pulled as
// trees; a cursor opened over a bare query or view binds the tree body at
// open and compiles a program only if it is pulled as bytes.
type QueryCursor struct {
	src  XMLExpr  // the body as compiled: parameters unbound
	body XMLExpr  // src with the run's parameters bound; nil until a tree pull needs it
	prog *Program // nil until a byte pull needs it
	ts   *relstore.TableSnap
	ec   *evalContext // the serial route's; the parallel route copies its run state
	fp   string       // faultpoint name hit once per handed-out row
	size int          // rows per batch

	it    relstore.BatchIterator // serial route
	batch *relstore.Batch        // current chunk (nil before first refill / after EOF)

	par   *relstore.Morsels[built] // parallel route
	ecs   []*evalContext           // per worker, created by the worker
	trees bool                     // par's workers build trees (Next), not bytes (AppendNext): the first pull's kind
	run   relstore.MorselRun[built]
	outs  []*built // the slot outputs handed out, whose buffers go back to the pool at the end

	pulled bool
	chunk  int // rows in the current batch or run
	bpos   int // rows of it handed out

	bytesOut int64 // serialized bytes produced so far

	// Operator spans, set only when the RunSpec carried a trace span
	// (startOperators); an untraced cursor pays one nil check per span site.
	scanSp  *obs.Span
	buildSp *obs.Span
}

// built is one morsel as the parallel route's workers construct it: its
// rows serialized (for AppendNext) or as trees (for Next). rows comes from
// the RowBuf pool, so a run's slots do not grow a buffer from empty each.
type built struct {
	rows *RowBuf
	docs []*xmltree.Node
}

// openCursor opens a cursor constructing src over plan's driving rows: with
// prog as its byte program when non-nil, whose filters it binds here; else
// with src bound as its tree body.
func (s *RunSpec) openCursor(snap *relstore.Snapshot, ts *relstore.TableSnap, plan relstore.AccessPlan, src XMLExpr, prog *Program, fp string, sink *relstore.Stats, g *governor.G) (*QueryCursor, error) {
	opts := s.batchOpts()
	c := &QueryCursor{src: src, prog: prog, ts: ts, ec: &evalContext{snap: snap, stats: sink, gov: g, params: s.params()}, fp: fp, size: opts.Size()}
	if err := c.bind(prog == nil); err != nil {
		return nil, err
	}
	c.par, c.it = relstore.OpenMorsels(plan, ts, sink, g, opts, c.construct)
	if c.par != nil {
		c.ecs = make([]*evalContext, c.par.Workers())
	}
	s.startOperators(ts, plan, c)
	return c, nil
}

// bind readies the cursor for a tree pull (trees) or a byte pull: it binds
// the run's parameters into the tree body, or compiles the program if the
// cursor has none and binds the program's filters. Either fails on an unbound
// parameter.
func (c *QueryCursor) bind(trees bool) (err error) {
	if trees {
		if c.body == nil {
			c.body, err = bindXML(c.src, c.ec.params)
		}
		return err
	}
	if c.prog == nil {
		if c.prog, err = Compile(c.ec.snap.DB(), &Query{Table: c.ts.Name(), Body: c.src}); err != nil {
			return err
		}
	}
	c.ec.filters, err = c.prog.bind(c.ec.params)
	return err
}

// construct is the parallel route's morsel job. Worker w installs the
// morsel's rows a batch at a time — the unit the body's subqueries are
// group-joined against, as on the serial route — and constructs each into
// out.
func (c *QueryCursor) construct(w int, ids []int, out *built) error {
	ec := c.ecs[w]
	if ec == nil {
		ec = &evalContext{snap: c.ec.snap, stats: c.ec.stats, gov: c.ec.gov, params: c.ec.params, filters: c.ec.filters}
		c.ecs[w] = ec
	}
	if out.rows == nil {
		out.rows = GetRowBuf()
	}
	out.rows.Reset()
	clear(out.docs)
	out.docs = out.docs[:0]
	for lo := 0; lo < len(ids); lo += c.size {
		hi := min(lo+c.size, len(ids))
		ec.setRows(c.ts, ids[lo:hi])
		for i := range hi - lo {
			ec.setPos(i)
			start := c.buildStart()
			var err error
			if c.trees {
				var doc *xmltree.Node
				if doc, err = ec.evalDoc(c.body); err == nil {
					out.docs = append(out.docs, doc)
				}
			} else {
				var buf []byte
				if buf, err = ec.runRow(c.prog, out.rows.buf); err == nil {
					out.rows.EndRow(buf)
				}
			}
			c.buildEnd(start, err)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// refill pulls the next batch (serial) or run (parallel) of driving rows.
// On the serial route it installs the batch as the eval context's driving
// row list — the unit the body's subqueries are group-joined against, so
// WithBatchSize bounds both a cursor's time to its first row and the memory
// its groups hold. It returns io.EOF on clean exhaustion, the scan's
// terminal error otherwise, and hands the batch and the contexts' subquery
// scratch back to their pools once the stream ends either way.
func (c *QueryCursor) refill() error {
	c.bpos = 0
	if c.par != nil {
		var ok bool
		if c.run, ok = c.par.Next(); ok {
			c.chunk = len(c.run.IDs)
			if c.run.Off == 0 && !slices.Contains(c.outs, c.run.Out) {
				c.outs = append(c.outs, c.run.Out)
			}
			return nil
		}
		c.chunk = 0
		for _, ec := range c.ecs { // the workers have exited
			if ec != nil {
				ec.release()
			}
		}
		for _, out := range c.outs {
			if out.rows != nil {
				PutRowBuf(out.rows)
				out.rows = nil
			}
		}
		c.outs = c.outs[:0]
		return c.end(c.par.Err())
	}
	if c.batch == nil {
		c.batch = relstore.GetBatch(0)
	}
	if _, ok := c.it.NextBatch(c.batch); ok {
		c.chunk = c.batch.Len()
		c.ec.setRows(c.ts, c.batch.IDs)
		return nil
	}
	relstore.PutBatch(c.batch)
	c.batch = nil
	c.chunk = 0
	c.ec.release()
	return c.end(c.it.Err())
}

// end reports the end of the driving stream: its error, or io.EOF after
// the stream's totals went on the spans.
func (c *QueryCursor) end(err error) error {
	if err != nil {
		return err
	}
	if c.scanSp != nil {
		if c.par != nil && c.ec.stats != nil {
			c.scanSp.SetAttr("morsels", atomic.LoadInt64(&c.ec.stats.Morsels))
		}
		if c.bytesOut > 0 {
			c.buildSp.SetAttr("bytes_out", c.bytesOut)
		}
	}
	return io.EOF
}

// advance moves to the next qualifying driving row, for a tree pull or a
// byte pull. It returns io.EOF when the driving scan is exhausted, and the
// scan's terminal error (cancellation, injected fault) when it stopped
// early. Under a trace the refills accrue on the scan span, with rows-out
// credited per refill.
func (c *QueryCursor) advance(trees bool) error {
	if !c.pulled {
		c.pulled, c.trees = true, trees
	}
	if trees && c.body == nil || !trees && c.prog == nil {
		if err := c.bind(trees); err != nil {
			return err
		}
	}
	if err := faultpoint.Hit(c.fp); err != nil {
		c.scanSp.Fail(err)
		return err
	}
	if c.bpos >= c.chunk {
		var scanStart time.Time
		if c.scanSp != nil {
			scanStart = time.Now()
		}
		err := c.refill()
		if c.scanSp != nil {
			c.scanSp.ObserveSince(scanStart)
			if err == nil {
				c.scanSp.AddRowsOut(int64(c.chunk))
			} else if err != io.EOF {
				c.scanSp.Fail(err)
			}
		}
		if err != nil {
			return err
		}
	}
	if c.par == nil {
		c.ec.setPos(c.bpos)
	}
	c.bpos++
	return nil
}

// buildStart / buildEnd bracket one row's construction with the construct
// span's accounting, so EXPLAIN ANALYZE can attribute a run's time between
// scan and construct.
func (c *QueryCursor) buildStart() (start time.Time) {
	if c.buildSp != nil {
		start = time.Now()
		c.buildSp.AddRowsIn(1)
	}
	return start
}

func (c *QueryCursor) buildEnd(start time.Time, err error) {
	if c.buildSp == nil {
		return
	}
	c.buildSp.ObserveSince(start)
	if err != nil {
		c.buildSp.Fail(err)
		return
	}
	c.buildSp.AddRowsOut(1)
}

// Next constructs the XML tree for the next qualifying driving row (see
// advance for the end-of-stream and error contract).
func (c *QueryCursor) Next() (*xmltree.Node, error) {
	if err := c.advance(true); err != nil {
		return nil, err
	}
	if c.par != nil {
		return c.run.Out.docs[c.run.Off+c.bpos-1], nil
	}
	start := c.buildStart()
	doc, err := c.ec.evalDoc(c.body)
	c.buildEnd(start, err)
	if err != nil {
		c.ec.release() // a failed row ends the stream
	}
	return doc, err
}

// AppendNext appends the serialized XML of the next qualifying driving row
// to dst — the bytes Next's tree would serialize to, produced without the
// tree. On error (io.EOF included) the returned slice is dst, unextended.
func (c *QueryCursor) AppendNext(dst []byte) ([]byte, error) {
	if err := c.advance(false); err != nil {
		return dst, err
	}
	if c.par != nil {
		row := c.run.Out.rows.row(c.run.Off + c.bpos - 1)
		c.bytesOut += int64(len(row))
		return append(dst, row...), nil
	}
	start := c.buildStart()
	out, err := c.ec.runRow(c.prog, dst)
	c.buildEnd(start, err)
	if err != nil {
		c.ec.release() // a failed row ends the stream
		return dst, err
	}
	c.bytesOut += int64(len(out) - len(dst))
	return out, nil
}

// Close stops the parallel route's workers and returns once they have
// exited; a serial cursor holds nothing to stop. It may race a pull on
// another goroutine, which then ends with an error.
func (c *QueryCursor) Close() {
	if c.par != nil {
		c.par.Close()
	}
}

// drain collects the cursor's remaining documents (the materializing
// execution style, layered on the streaming one).
func (c *QueryCursor) drain() ([]*xmltree.Node, error) {
	defer c.Close()
	var out []*xmltree.Node
	for {
		doc, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, doc)
	}
}
