package relstore

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faultpoint"
	"repro/internal/governor"
)

// Morsel-driven parallelism (Leis et al., SIGMOD 2014): the engine's one
// worker pool. The driving candidates of an access plan — the heap rows of a
// full scan, or the posting list of an index range — are cut into
// morselRows-sized morsels. A fixed set of workers claims them in order; on
// its worker a morsel is filtered by the residual predicates' kernels
// (kernel.go) into the selection vector of its slot, over the pinned
// snapshot, and its qualifying rows go to a caller-supplied job on the
// same worker (the SQL/XML construction of those rows, or nothing when the
// caller wants only the ids). The consumer pulls the morsels back strictly in
// morsel order and ids ascend within one, so the output order — and every
// serialized byte downstream — is the serial scan's.
//
// The look-ahead is bounded. A morsel's filtered rows and job output live in
// one of morselWindow slots per worker, reused round-robin, and a worker does
// not claim a morsel until the consumer has released the slot it maps to. A
// consumer that stops pulling stops the scan within the window, and a scan
// pays for its slots once, not per morsel.

// MorselMinRows is the candidate count below which a driving scan stays
// serial even when the caller allows workers: splitting a few thousand rows
// across goroutines costs more in scheduling than the scan itself.
const MorselMinRows = 8192

// morselRows is the number of candidates per morsel — big enough that the
// per-morsel bookkeeping (a claim, a governor charge, two lock round trips)
// is noise, small enough that the pool load-balances across skewed filters
// and jobs.
const morselRows = 4096

// morselWindow is how many morsels per worker may be in flight, the one the
// consumer is reading included: two keep a worker busy while the consumer
// drains the morsel in front of it.
const morselWindow = 2

// MorselJob processes one morsel's qualifying rows on worker w (0 <= w <
// Morsels.Workers()): ids ascend, rows of the pinned snapshot the pool
// scans. out is the morsel's slot output, still holding an earlier morsel's:
// the job overwrites it. It is called only for morsels with at least one
// row.
type MorselJob[T any] func(w int, ids []int, out *T) error

// MorselRun is what one pull hands the consumer: a run of at most the batch
// size of one morsel's qualifying rows, in scan order, and that morsel's job
// output, whose entries for these rows start at Off.
type MorselRun[T any] struct {
	IDs []int
	Out *T
	Off int
}

// PanicError is a panic recovered on a morsel worker. A panic can only be
// recovered on its own goroutine, so the pool contains it there and hands it
// to the consumer as the error of the morsel it hit.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("relstore: worker panic: %v", e.Value) }

// errMorselsClosed is what a pull reports when Close stopped the pool under it.
var errMorselsClosed = errors.New("relstore: morsel scan closed")

// Morsels is a morsel-parallel scan of one access plan over a pinned
// snapshot, running a job on every morsel. Next (or NextBatch, its
// BatchIterator form) and Err belong to one consumer goroutine; Close may be
// called from any goroutine, any number of times. Workers start on the first
// pull, so opening spawns nothing.
type Morsels[T any] struct {
	snap    *TableSnap
	cands   []int  // an index range's candidates; nil for a full scan (the heap rows)
	n       int    // candidates
	count   int    // morsels
	where   conj   // compiled once, read by every worker
	site    string // fault point hit once per pull
	stats   *Stats
	gov     *governor.G
	job     MorselJob[T]
	workers int
	size    int // rows per pull

	mu      sync.Mutex
	space   sync.Cond // a slot was released, or the pool stopped
	ready   sync.Cond // the head morsel is done, or the pool stopped
	slots   []morselSlot[T]
	next    int // the next morsel to claim
	head    int // the morsel the consumer reads
	started bool
	stopped bool
	wg      sync.WaitGroup

	// Consumer state.
	pos int // rows of the head morsel already pulled
	err error
}

// morselSlot holds one in-flight morsel: written by the worker that claimed
// it until done, then read by the consumer until it releases the slot.
type morselSlot[T any] struct {
	ids  []int // the morsel's selection vector
	out  T
	err  error
	done bool
}

func newMorsels[T any](ts *TableSnap, cands []int, n int, preds []Pred, site string, stats *Stats, g *governor.G, workers, size int, job MorselJob[T]) *Morsels[T] {
	count := (n + morselRows - 1) / morselRows
	workers = min(workers, count)
	m := &Morsels[T]{
		snap: ts, cands: cands, n: n, count: count, where: compileConj(ts, preds), site: site,
		stats: stats, gov: g, job: job, workers: workers, size: size,
		slots: make([]morselSlot[T], min(morselWindow*workers, count)),
	}
	m.space.L, m.ready.L = &m.mu, &m.mu
	return m
}

// Workers reports how many workers the scan runs.
func (m *Morsels[T]) Workers() int { return m.workers }

// Next pulls the next run of qualifying rows with its morsel's job output.
// ok=false means end of stream or a terminal error (Err); either way no
// worker is left running. The run is valid until the next call.
func (m *Morsels[T]) Next() (MorselRun[T], bool) {
	if m.err != nil {
		return MorselRun[T]{}, false
	}
	// The fault point and an unamortized governor check live on the consumer
	// side: one deterministic Hit per pull however the workers raced, and a
	// cancellation is seen even when the morsels the consumer still needs
	// are already built.
	if err := faultpoint.Hit(m.site); err != nil {
		return m.fail(err)
	}
	if err := m.gov.Check(); err != nil {
		return m.fail(err)
	}
	m.mu.Lock()
	if !m.started && !m.stopped {
		m.started = true
		m.wg.Add(m.workers)
		for w := range m.workers {
			go m.work(w)
		}
	}
	for m.head < m.count {
		s := &m.slots[m.head%len(m.slots)]
		// Claims go in morsel order, so a head nobody claimed before the
		// pool stopped never will be.
		for !s.done && !(m.stopped && m.head >= m.next) {
			m.ready.Wait()
		}
		switch {
		case !s.done:
			m.mu.Unlock()
			return m.fail(errMorselsClosed)
		case s.err != nil:
			m.mu.Unlock()
			return m.fail(s.err)
		case m.pos < len(s.ids):
			m.mu.Unlock()
			lo := m.pos
			m.pos = min(lo+m.size, len(s.ids))
			if m.stats != nil {
				atomic.AddInt64(&m.stats.RowsEmitted, int64(m.pos-lo))
				atomic.AddInt64(&m.stats.Batches, 1)
			}
			return MorselRun[T]{IDs: s.ids[lo:m.pos], Out: &s.out, Off: lo}, true
		}
		// The consumer is done with the head morsel: its slot goes back to
		// the workers.
		s.done = false
		m.head++
		m.pos = 0
		m.space.Signal()
	}
	m.mu.Unlock()
	m.Close()
	return MorselRun[T]{}, false
}

// NextBatch is Next as a BatchIterator, for callers that want only the
// qualifying rows. The batch gets copies: the slot is reused.
func (m *Morsels[T]) NextBatch(b *Batch) (int, bool) {
	b.reset()
	r, ok := m.Next()
	if !ok {
		return 0, false
	}
	b.IDs = append(b.IDs, r.IDs...)
	return b.Len(), true
}

// Err returns the terminal error that stopped the scan early, or nil.
func (m *Morsels[T]) Err() error { return m.err }

// Close stops the scan and returns once every worker has exited. A job
// already running finishes its morsel: cancel its governor for a prompt
// stop.
func (m *Morsels[T]) Close() {
	m.mu.Lock()
	m.stopped = true
	m.space.Broadcast()
	m.ready.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

func (m *Morsels[T]) fail(err error) (MorselRun[T], bool) {
	m.err = err
	m.Close()
	return MorselRun[T]{}, false
}

// work claims morsels in order while the window has room, until none is
// left or the pool stops; a failed morsel stops it.
func (m *Morsels[T]) work(w int) {
	defer m.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for !m.stopped && m.next < m.count && m.next >= m.head+len(m.slots) {
			m.space.Wait()
		}
		if m.stopped || m.next >= m.count {
			return
		}
		i := m.next
		m.next++
		s := &m.slots[i%len(m.slots)]
		m.mu.Unlock()
		err := m.run(w, i, s)
		m.mu.Lock()
		s.err, s.done = err, true
		if err != nil {
			m.stopped = true
			m.space.Broadcast()
		}
		if i == m.head {
			m.ready.Signal()
		}
	}
}

// run filters morsel i into s and runs the job on its rows, converting a
// panic into the morsel's error.
func (m *Morsels[T]) run(w, i int, s *morselSlot[T]) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	lo, hi := i*morselRows, min((i+1)*morselRows, m.n)
	if m.cands != nil {
		s.ids = m.where.sel(s.ids[:0], m.snap, 0, 0, m.cands[lo:hi])
	} else {
		s.ids = m.where.sel(s.ids[:0], m.snap, lo, hi, nil)
	}
	if m.stats != nil {
		if m.cands == nil {
			atomic.AddInt64(&m.stats.RowsScanned, int64(hi-lo))
		}
		atomic.AddInt64(&m.stats.Morsels, 1)
		if f := hi - lo - len(s.ids); f > 0 {
			atomic.AddInt64(&m.stats.RowsFiltered, int64(f))
		}
	}
	// One governor charge per morsel: a cancelled scan does at most one more
	// morsel of work per worker.
	if err := m.gov.TickN(hi - lo); err != nil {
		return err
	}
	if m.job == nil || len(s.ids) == 0 {
		return nil
	}
	return m.job(w, s.ids, &s.out)
}
