package sqlxml

import (
	"io"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/xmltree"
)

// This file is the streaming half of the executor (the paper's §6
// iterator-based pull evaluation): instead of collecting every driving row
// up front, a cursor holds the relstore access-path iterator open and
// constructs one XMLType instance per call — as a tree (Next, what the
// functional strategies evaluate over) or directly as serialized bytes
// (AppendNext, the SQL strategy's output). The materializing entry points
// drain these cursors, so every execution style shares one construction path.
//
// Cursors write physical-operator counters to the sink passed at open time;
// passing a per-run sink keeps concurrent executions from sharing counters.
// A governor passed at open time bounds the execution: the driving iterator
// and the per-row construction both stop promptly when it reports
// cancellation or an exhausted budget.

// QueryCursor streams a SQL/XML query one qualifying driving row at a time.
// Internally it consumes the driving access path batch-at-a-time: the scan
// refills a pooled relstore.Batch of row ids + row references, and each call
// constructs one buffered row — the per-call surface stays row-oriented
// while the storage layer pays its locks, fault checks and governor ticks
// once per ~1024 rows.
type QueryCursor struct {
	body XMLExpr
	ts   *relstore.TableSnap
	it   relstore.BatchIterator
	ec   *evalContext
	fp   string // faultpoint name hit once per constructed row

	batch *relstore.Batch // current chunk (nil before first refill / after EOF)
	bpos  int             // consumption offset into batch

	out      byteSink // AppendNext's sink, reused across rows
	bytesOut int64    // serialized bytes produced so far

	// Operator spans, set only when the RunSpec carried a trace span
	// (startOperators); an untraced cursor pays one nil check per span site.
	scanSp  *obs.Span
	buildSp *obs.Span
}

// refill pulls the next batch from the driving iterator and installs it as
// the eval context's driving row list — the unit the body's subqueries are
// group-joined against, so WithBatchSize bounds both a cursor's time to its
// first row and the memory its groups hold. It returns io.EOF on clean
// exhaustion, the iterator's terminal error otherwise, and returns the batch
// and the context's subquery scratch to their pools once the stream ends
// either way.
func (c *QueryCursor) refill() error {
	if c.batch == nil {
		c.batch = relstore.GetBatch(0)
	}
	c.bpos = 0
	if _, ok := c.it.NextBatch(c.batch); !ok {
		relstore.PutBatch(c.batch)
		c.batch = nil
		c.ec.release()
		if err := c.it.Err(); err != nil {
			return err
		}
		// Surface how many morsels the parallel scan executed, if any, now
		// that the scan is complete.
		if c.scanSp != nil {
			if ms, ok := c.it.(interface{ MorselsExecuted() int }); ok {
				if n := ms.MorselsExecuted(); n > 0 {
					c.scanSp.SetAttr("morsels", n)
				}
			}
			if c.bytesOut > 0 {
				c.buildSp.SetAttr("bytes_out", c.bytesOut)
			}
		}
		return io.EOF
	}
	c.ec.setRows(c.ts, c.batch.IDs, c.batch.Rows)
	return nil
}

// advance moves the eval context to the next qualifying driving row. It
// returns io.EOF when the driving iterator is exhausted, and the iterator's
// terminal error (cancellation, injected fault) when it stopped early. Under
// a trace the batch refills accrue on the scan span, with rows-out credited
// per refilled batch.
func (c *QueryCursor) advance() error {
	if err := faultpoint.Hit(c.fp); err != nil {
		c.scanSp.Fail(err)
		return err
	}
	if c.batch == nil || c.bpos >= c.batch.Len() {
		var scanStart time.Time
		if c.scanSp != nil {
			scanStart = time.Now()
		}
		err := c.refill()
		if c.scanSp != nil {
			c.scanSp.ObserveSince(scanStart)
			if err == nil {
				c.scanSp.AddRowsOut(int64(c.batch.Len()))
			} else if err != io.EOF {
				c.scanSp.Fail(err)
			}
		}
		if err != nil {
			return err
		}
	}
	c.ec.setPos(c.bpos)
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
	if err != nil {
		c.ec.release() // a failed row ends the stream
	}
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
	if err := c.advance(); err != nil {
		return nil, err
	}
	start := c.buildStart()
	doc, err := c.ec.evalDoc(c.body)
	c.buildEnd(start, err)
	return doc, err
}

// AppendNext appends the serialized XML of the next qualifying driving row
// to dst — the bytes Next's tree would serialize to, produced without the
// tree. On error (io.EOF included) the returned slice is dst, unextended.
func (c *QueryCursor) AppendNext(dst []byte) ([]byte, error) {
	if err := c.advance(); err != nil {
		return dst, err
	}
	start := c.buildStart()
	c.out = byteSink{buf: dst}
	err := c.ec.evalRow(&c.out, c.body)
	c.buildEnd(start, err)
	if err != nil {
		return dst, err
	}
	c.bytesOut += int64(len(c.out.buf) - len(dst))
	return c.out.buf, nil
}

// drain collects the cursor's remaining documents (the materializing
// execution style, layered on the streaming one).
func (c *QueryCursor) drain() ([]*xmltree.Node, error) {
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
