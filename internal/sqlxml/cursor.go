package sqlxml

import (
	"errors"
	"io"
	"sync"
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
// SQL strategy's output), as its program's emitter says. The materializing
// entry points drain these cursors, so every execution style shares one
// construction path.
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
// pays its locks, fault checks and governor ticks once per batch. The
// cursor's program, whose filters it binds at open, fixes how it is pulled:
// a tree program's cursor with Next, a byte program's with AppendNext. The
// other pull is an error.
type QueryCursor struct {
	prog *Program
	ts   *relstore.TableSnap
	ec   *evalContext // the serial route's; the parallel route copies its run state
	fp   string       // faultpoint name hit once per handed-out row
	size int          // rows per batch

	it    relstore.BatchIterator // serial route
	batch *relstore.Batch        // current chunk (nil before first refill / after EOF)

	par *relstore.Morsels[built] // parallel route
	run relstore.MorselRun[built]
	// pool is par's scratch, its worker contexts included, until the stream
	// ends, when it goes back to the program (nil after). mu orders that
	// hand-back against Close, which may run on another goroutine and must
	// not stop a pool another run has taken since.
	pool *drivePool
	mu   sync.Mutex

	chunk int   // rows in the current batch or run
	bpos  int   // rows of it handed out
	stop  error // the driving stream's end, io.EOF or its terminal error; nil while it runs

	bytesOut int64 // serialized bytes produced so far

	// Operator spans, set only when the RunSpec carried a trace span
	// (startOperators); an untraced cursor pays one nil check per span site.
	scanSp  *obs.Span
	buildSp *obs.Span
}

// built is one morsel as the parallel route's workers construct it: its
// rows serialized (a byte program) or as trees (a tree program). A slot
// keeps its rows buffer from morsel to morsel and, in a kept pool, from run
// to run.
type built struct {
	rows *RowBuf
	docs []*xmltree.Node
}

// drivePool is the parallel route's scratch: the morsel pool, whose slots
// keep their selection vectors and row buffers, and a context per worker.
// A program keeps the last one a byte cursor finished with (Program.drive),
// so a warmed-up plan opens its parallel scan without allocating.
type drivePool struct {
	m   *relstore.Morsels[built]
	ecs []*evalContext
}

// takeDrive takes p's kept driving pool, if it keeps one.
func (p *Program) takeDrive() *drivePool { return p.drive.Swap(nil) }

// keepDrive keeps d (nil: none), which no cursor uses any more, for p's
// next parallel scan — unless p already keeps one, or is a tree program,
// whose slots hold trees that a kept pool would pin.
func (p *Program) keepDrive(d *drivePool) {
	if d != nil && !p.tree {
		p.drive.CompareAndSwap(nil, d)
	}
}

// morselJob is a cursor as its morsel pool's job: a pointer conversion, so
// handing the cursor to the pool allocates nothing.
type morselJob QueryCursor

func (j *morselJob) RunMorsel(w int, ids []int, out *built) error {
	return (*QueryCursor)(j).construct(w, ids, out)
}

// openCursor opens a cursor running prog over plan's driving rows, with
// prog's filters bound to the run's parameters.
func (s *RunSpec) openCursor(snap *relstore.Snapshot, ts *relstore.TableSnap, plan relstore.AccessPlan, prog *Program, fp string, sink *relstore.Stats, g *governor.G) (*QueryCursor, error) {
	opts := s.batchOpts()
	c := &QueryCursor{prog: prog, ts: ts, ec: &evalContext{snap: snap, stats: sink, gov: g, params: s.params(), workers: int32(opts.WorkerCount())}, fp: fp, size: opts.Size()}
	var err error
	if c.ec.filters, err = prog.bind(c.ec.params); err != nil {
		return nil, err
	}
	d := prog.takeDrive()
	var m *relstore.Morsels[built]
	if d != nil {
		m = d.m
	}
	if c.par, c.it = relstore.OpenMorsels(m, plan, ts, sink, g, opts, (*morselJob)(c)); c.par == nil {
		prog.keepDrive(d)
	} else {
		if d == nil {
			d = &drivePool{m: c.par}
		}
		for len(d.ecs) < c.par.Workers() {
			d.ecs = append(d.ecs, new(evalContext))
		}
		c.pool = d
	}
	s.startOperators(ts, plan, c)
	return c, nil
}

// construct is the parallel route's morsel job. Worker w installs the
// morsel's rows a batch at a time — the unit the body's subqueries are
// group-joined against, as on the serial route — and constructs each into
// out. A worker's context takes the run's state at its first morsel.
func (c *QueryCursor) construct(w int, ids []int, out *built) error {
	ec := c.pool.ecs[w]
	if ec.snap == nil {
		ec.bindRun(c.ec)
	}
	if c.prog.tree {
		clear(out.docs)
		out.docs = out.docs[:0]
	} else {
		if out.rows == nil {
			out.rows = new(RowBuf)
		}
		out.rows.Reset()
	}
	for lo := 0; lo < len(ids); lo += c.size {
		hi := min(lo+c.size, len(ids))
		ec.setRows(c.ts, ids[lo:hi])
		for i := range hi - lo {
			ec.setPos(i)
			start := c.buildStart()
			var err error
			if c.prog.tree {
				var doc *xmltree.Node
				if doc, err = ec.runDoc(c.prog); err == nil {
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
	if c.stop != nil {
		c.chunk = 0
		return c.stop
	}
	if c.par != nil {
		var ok bool
		if c.run, ok = c.par.Next(); ok {
			c.chunk = len(c.run.IDs)
			return nil
		}
		c.chunk = 0
		c.stop = c.end(c.par.Err())
		// The workers have exited: the pool goes back to the program.
		c.mu.Lock()
		d := c.pool
		c.pool = nil
		c.mu.Unlock()
		for _, ec := range d.ecs {
			ec.unbindRun()
		}
		c.prog.keepDrive(d)
		return c.stop
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
	c.stop = c.end(c.it.Err())
	return c.stop
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

// The errors of a pull the cursor's program does not construct for.
var (
	errTreePull = errors.New("sqlxml: Next on a cursor that constructs bytes (pull it with AppendNext)")
	errBytePull = errors.New("sqlxml: AppendNext on a cursor that constructs trees (pull it with Next)")
)

// advance moves to the next qualifying driving row. It returns io.EOF when
// the driving scan is exhausted, and the scan's terminal error
// (cancellation, injected fault) when it stopped early. Under a trace the
// refills accrue on the scan span, with rows-out credited per refill.
func (c *QueryCursor) advance() error {
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

// Next constructs the XML tree for the next qualifying driving row of a
// tree program's cursor (see advance for the end-of-stream and error
// contract).
func (c *QueryCursor) Next() (*xmltree.Node, error) {
	if !c.prog.tree {
		return nil, errTreePull
	}
	if err := c.advance(); err != nil {
		return nil, err
	}
	if c.par != nil {
		return c.run.Out.docs[c.run.Off+c.bpos-1], nil
	}
	start := c.buildStart()
	doc, err := c.ec.runDoc(c.prog)
	c.buildEnd(start, err)
	if err != nil {
		c.ec.release() // a failed row ends the stream
	}
	return doc, err
}

// AppendNext appends the serialized XML of the next qualifying driving row
// of a byte program's cursor to dst — the bytes the tree program's document
// would serialize to, produced without the tree. On error (io.EOF included)
// the returned slice is dst, unextended.
func (c *QueryCursor) AppendNext(dst []byte) ([]byte, error) {
	if c.prog.tree {
		return dst, errBytePull
	}
	if err := c.advance(); err != nil {
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

// Close stops the parallel route's workers and returns once their
// goroutines have exited; a serial cursor, or one whose stream has ended,
// holds nothing to stop. It may race a pull on another goroutine, which then
// ends with an error.
func (c *QueryCursor) Close() {
	c.mu.Lock()
	if c.pool != nil {
		c.par.Close()
	}
	c.mu.Unlock()
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
