package relstore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultpoint"
	"repro/internal/governor"
)

// This file is the batch-at-a-time execution contract. The original Volcano
// interface pulled one row id per call, paying interface dispatch, a
// faultpoint check, a governor tick and a table lock acquisition PER ROW.
// BatchIterator amortizes all four to once per ~1024-row chunk: producers
// fill a caller-supplied Batch from a pinned snapshot with no lock at all
// (their filter kernels write the qualifying ids straight into it), charge
// the governor once with TickN(n), and check their fault point once per
// NextBatch call. The per-row Iterator/RowAdapter shim that bridged the
// migration is gone — every consumer drains batches directly. Correlated
// subqueries inside XML construction do not open an iterator per outer row
// at all: they go through the group-join (join.go), which takes a batch of
// outer keys.

// DefaultBatchSize is the number of row ids a Batch carries unless the
// caller asks otherwise. 1024 rows is large enough to make the per-batch
// overheads (lock, faultpoint, governor) unmeasurable per row and small
// enough that a cancelled run aborts within one batch.
const DefaultBatchSize = 1024

// Batch is one chunk of scan output: the qualifying row ids of a pinned
// table snapshot, which consumers read cells of through the snapshot's
// typed readers. A producer's filter kernels write the ids straight into
// IDs: the batch is the scan's selection vector.
//
// Batches are pooled: obtain one with GetBatch, return it with PutBatch
// when the consumer is done. The zero Batch is usable but unpooled.
type Batch struct {
	// IDs holds the qualifying row ids, in ascending heap order.
	IDs []int
}

// Len reports how many rows the batch currently holds.
func (b *Batch) Len() int { return len(b.IDs) }

// reset empties the batch, keeping capacity.
func (b *Batch) reset() { b.IDs = b.IDs[:0] }

// grow makes room for up to n rows without reallocating per append.
func (b *Batch) grow(n int) {
	if cap(b.IDs) < n {
		b.IDs = make([]int, 0, n)
	}
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty pooled batch with capacity for size rows
// (DefaultBatchSize when size <= 0).
func GetBatch(size int) *Batch {
	if size <= 0 {
		size = DefaultBatchSize
	}
	b := batchPool.Get().(*Batch)
	b.reset()
	b.grow(size)
	return b
}

// PutBatch returns a batch to the pool. The caller must not touch b (or any
// slice obtained from it) afterwards.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	b.reset()
	batchPool.Put(b)
}

// BatchIterator is the batch-at-a-time execution contract. NextBatch fills
// batch (cleared first) with up to its capacity of qualifying row ids and
// returns how many it produced; ok=false means no rows were produced —
// either clean exhaustion or a terminal fault. Exactly like the row
// interface, consumers MUST check Err after a false NextBatch, otherwise an
// aborted scan silently truncates to an apparently-complete result.
type BatchIterator interface {
	// NextBatch fills batch with the next chunk of qualifying row ids.
	// n > 0 with ok=true, or n == 0 with ok=false at end of stream.
	NextBatch(batch *Batch) (n int, ok bool)
	// Err returns the terminal error that stopped the iterator early, or
	// nil after clean exhaustion.
	Err() error
}

// BatchOpts configures how an access plan opens its batch pipeline.
// The zero value means defaults: DefaultBatchSize rows per batch and
// GOMAXPROCS morsel workers for scans of at least MorselMinRows candidates.
type BatchOpts struct {
	// BatchSize is the chunk size; <= 0 means DefaultBatchSize.
	BatchSize int
	// Workers bounds the morsel worker pool: <= 0 means GOMAXPROCS, 1
	// forces a serial scan.
	Workers int
}

// Size resolves the effective batch size (DefaultBatchSize when unset).
func (o BatchOpts) Size() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// WorkerCount resolves the effective morsel worker bound (GOMAXPROCS when
// unset).
func (o BatchOpts) WorkerCount() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// batchScanIter is the serial full-table scan over a pinned snapshot: zero
// lock acquisitions (the snapshot's vector headers are immutable), one
// fault-point check and one governor charge per batch instead of per row.
// Rows appended after the snapshot was pinned are never visited — every
// consumer of one snapshot sees the same committed state (MVCC read
// isolation), which is what lets DML race in-flight runs without tearing
// their output.
type batchScanIter struct {
	snap  *TableSnap
	where conj
	size  int // rows per emitted batch
	pos   int
	stats *Stats
	gov   *governor.G
	err   error
}

// scanChunkRows bounds the heap rows visited per lock acquisition and per
// governor charge. A batch whose predicates filter everything would
// otherwise scan the whole table inside one NextBatch with no cancellation
// check; chunking keeps the cancel latency bounded by ~4k rows of work.
const scanChunkRows = 4096

func (s *batchScanIter) NextBatch(batch *Batch) (int, bool) {
	if s.err != nil {
		return 0, false
	}
	batch.reset()
	// The fault point fires before the exhaustion check so a test arming
	// EnableAfter(n) can force a failure on the final (empty) pull too.
	if err := faultpoint.Hit("relstore.scan.batch"); err != nil {
		s.err = err
		return 0, false
	}
	// The configured batch size is authoritative — a pooled Batch may carry
	// a larger capacity from a previous consumer.
	want := s.size
	batch.grow(want)
	rows := s.snap.n
	for batch.Len() == 0 && s.pos < rows {
		end := min(s.pos+scanChunkRows, rows)
		start := s.pos
		// No more candidates than the batch has room for can qualify, so a
		// step of that many never overfills it.
		for s.pos < end && batch.Len() < want {
			hi := min(end, s.pos+want-batch.Len())
			batch.IDs = s.where.sel(batch.IDs, s.snap, s.pos, hi, nil)
			s.pos = hi
		}
		scanned := s.pos - start
		if s.stats != nil {
			atomic.AddInt64(&s.stats.RowsScanned, int64(scanned))
			if filtered := scanned - batch.Len(); filtered > 0 && len(s.where.preds) > 0 {
				atomic.AddInt64(&s.stats.RowsFiltered, int64(filtered))
			}
		}
		if err := s.gov.TickN(scanned); err != nil {
			s.err = err
			return 0, false
		}
	}
	n := batch.Len()
	if n == 0 {
		return 0, false
	}
	if s.stats != nil {
		atomic.AddInt64(&s.stats.RowsEmitted, int64(n))
		atomic.AddInt64(&s.stats.Batches, 1)
	}
	return n, true
}

func (s *batchScanIter) Err() error { return s.err }

func appendScanExplain(dst []byte, t *Table, preds []Pred) []byte {
	dst = append(dst, "TABLE SCAN "...)
	dst = append(dst, t.Name...)
	if len(preds) == 0 {
		return dst
	}
	dst = append(dst, " FILTER "...)
	return appendPreds(dst, preds)
}

// batchIndexIter drives a B-tree descent over a pinned snapshot and emits
// the ids it finds, ascending, in batches: the descent and the copy of the
// ids run once under the table lock (the tree mutates in place on Insert),
// bounded to rows committed before the snapshot; the residual predicates'
// kernels then filter the ids lock-free against the snapshot's vectors.
type batchIndexIter struct {
	snap     *TableSnap
	plan     AccessPlan
	residual conj
	size     int // rows per emitted batch

	ids   []int // TableSnap.IndexIDs' answer, into buf when it fits
	buf   [8]int
	pos   int
	run   bool
	stats *Stats
	gov   *governor.G
	err   error
}

func (it *batchIndexIter) materialize() {
	it.run = true
	if it.plan.emptyInterval() && !it.plan.NaN {
		return // contradictory bounds: no key to descend to
	}
	if it.stats != nil {
		atomic.AddInt64(&it.stats.IndexProbes, 1)
	}
	it.ids = it.snap.IndexIDs(it.buf[:0], it.plan.Col, it.plan.Lo, it.plan.Hi, it.plan.NaN)
}

func (it *batchIndexIter) NextBatch(batch *Batch) (int, bool) {
	if it.err != nil {
		return 0, false
	}
	batch.reset()
	if err := faultpoint.Hit("relstore.index.batch"); err != nil {
		it.err = err
		return 0, false
	}
	if !it.run {
		it.materialize()
	}
	want := it.size
	batch.grow(want)
	for batch.Len() == 0 && it.pos < len(it.ids) {
		end := min(it.pos+scanChunkRows, len(it.ids))
		start := it.pos
		for it.pos < end && batch.Len() < want {
			hi := min(end, it.pos+want-batch.Len())
			batch.IDs = it.residual.sel(batch.IDs, it.snap, 0, 0, it.ids[it.pos:hi])
			it.pos = hi
		}
		if filtered := it.pos - start - batch.Len(); it.stats != nil && filtered > 0 {
			atomic.AddInt64(&it.stats.RowsFiltered, int64(filtered))
		}
		if err := it.gov.TickN(it.pos - start); err != nil {
			it.err = err
			return 0, false
		}
	}
	n := batch.Len()
	if n == 0 {
		return 0, false
	}
	if it.stats != nil {
		atomic.AddInt64(&it.stats.RowsEmitted, int64(n))
		atomic.AddInt64(&it.stats.Batches, 1)
	}
	return n, true
}

func (it *batchIndexIter) Err() error { return it.err }

// OpenBatchAt turns the plan into a live batch iterator over a pinned table
// snapshot, with counters routed to stats (may be nil) under governor g (may
// be nil): every row the iterator emits was committed before the snapshot
// was taken, no matter how many inserts race the scan. Where OpenMorsels
// would choose the morsel pool, the iterator is that pool with no job; its
// merge preserves heap order, so output is identical to the serial scan,
// and its workers exit once a NextBatch reports ok=false.
func (p AccessPlan) OpenBatchAt(ts *TableSnap, stats *Stats, g *governor.G, opts BatchOpts) BatchIterator {
	m, it := OpenMorsels[struct{}](nil, p, ts, stats, g, opts, nil)
	if m != nil {
		return m
	}
	return it
}

// OpenMorsels opens the plan over a pinned snapshot. When opts allows more
// than one worker and the plan has at least MorselMinRows candidates, it
// returns a morsel pool that runs job (nil: none) on every morsel — m itself
// when m is non-nil, reopened on its slots; otherwise it returns the serial
// batch iterator. Exactly one result is non-nil. An index range's id
// list is computed once, here or on the serial iterator's first batch,
// whichever way the choice goes.
func OpenMorsels[T any](m *Morsels[T], p AccessPlan, ts *TableSnap, stats *Stats, g *governor.G, opts BatchOpts, job MorselJob[T]) (*Morsels[T], BatchIterator) {
	workers := opts.WorkerCount()
	if p.Kind == PathFullScan {
		if stats != nil {
			atomic.AddInt64(&stats.FullScans, 1)
		}
		if workers > 1 && ts.NumRows() >= MorselMinRows {
			return newMorsels(m, ts, nil, ts.NumRows(), p.Residual, "relstore.scan.batch", stats, g, workers, opts.Size(), job), nil
		}
		return nil, &batchScanIter{snap: ts, where: compileConj(ts, p.Residual), size: opts.Size(), stats: stats, gov: g}
	}
	if stats != nil {
		atomic.AddInt64(&stats.RangeScans, 1)
	}
	it := &batchIndexIter{
		snap: ts, plan: p, residual: compileConj(ts, p.Residual),
		size: opts.Size(), stats: stats, gov: g,
	}
	if workers > 1 {
		it.materialize()
		if len(it.ids) >= MorselMinRows {
			return newMorsels(m, ts, it.ids, len(it.ids), p.Residual, "relstore.index.batch", stats, g, workers, opts.Size(), job), nil
		}
	}
	return nil, it
}
