package obs

// The retention half of the observability layer: a bounded ring buffer of
// finished executions (the engine's v$sql / slow-query-log equivalent) with
// per-plan latency aggregates. The facade records one RunRecord per Run call
// or cursor lifetime; the console (console.go) serves the archive over HTTP.
//
// Cost model: recording is one short critical section per RUN — never per
// row — appending a value into a preallocated ring slot and bumping the
// plan's histogram. A nil *Archive records nothing, so the disabled path is
// one pointer check at run completion.

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// defaultArchiveCap bounds the ring when EnableRunHistory(0) is used.
	defaultArchiveCap = 256
	// archiveTopK is how many slowest runs each plan aggregate retains in
	// full (trace included) even after the ring evicts them.
	archiveTopK = 5
)

// RunRecord is one archived execution. Durations marshal as nanoseconds.
type RunRecord struct {
	// ID is the archive-assigned sequence number (1-based, monotonic).
	ID uint64 `json:"id"`
	// Kind is "run" for a materializing Run, "cursor" for a streaming one.
	Kind string `json:"kind"`
	// Start is when the execution began.
	Start time.Time `json:"start"`
	// View and Strategy identify the plan ((view, strategy) is the
	// aggregation key of PlanAggregate).
	View     string `json:"view"`
	Strategy string `json:"strategy"`
	// AccessPath is the EXPLAIN line of the driving access path ("" when
	// the run failed before planning one).
	AccessPath string `json:"access_path,omitempty"`
	// Rows counts serialized result rows handed to the caller.
	Rows int64 `json:"rows"`
	// Wall is CompileWall + ExecWall.
	Wall        time.Duration `json:"wall_ns"`
	CompileWall time.Duration `json:"compile_wall_ns"`
	ExecWall    time.Duration `json:"exec_wall_ns"`
	// Error is the terminal error ("" on success).
	Error string `json:"error,omitempty"`
	// Stats is the run's rendered ExecStats line.
	Stats string `json:"stats,omitempty"`
	// Sampled reports whether the trace-sampling policy retained this run's
	// trace; Trace/TraceJSON are set only then.
	Sampled   bool            `json:"sampled,omitempty"`
	Trace     string          `json:"trace,omitempty"`
	TraceJSON json.RawMessage `json:"trace_json,omitempty"`
	// TraceID is the request's W3C trace identity when the run was executed
	// on behalf of a served request (serve threads it via Trace.SetID); the
	// archive indexes such records so /runs/<trace-id> resolves them.
	TraceID string `json:"trace_id,omitempty"`
}

// planAggKey groups records per plan.
type planAggKey struct{ view, strategy string }

// planAgg accumulates one plan's statistics; guarded by the archive mutex.
type planAgg struct {
	calls   int64
	errors  int64
	rows    int64
	hist    *Histogram // wall-time seconds
	slowest []RunRecord
}

// PlanAggregate is the snapshot form of one plan's aggregate statistics.
type PlanAggregate struct {
	View     string `json:"view"`
	Strategy string `json:"strategy"`
	Calls    int64  `json:"calls"`
	Errors   int64  `json:"errors"`
	Rows     int64  `json:"rows"`
	// P50/P95/P99 are latency quantiles estimated from the histogram's
	// buckets (marshaled as nanoseconds).
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Slowest holds the plan's slowest runs in full, slowest first —
	// retained even after the ring evicted them.
	Slowest []RunRecord `json:"slowest,omitempty"`
}

// Archive is the bounded run-history ring plus per-plan aggregates. The zero
// value is not used; construct with NewArchive. A nil *Archive is valid
// everywhere and records nothing.
type Archive struct {
	capacity int

	// sampleSeq numbers sampling decisions for the ratio policy; it is NOT
	// the record ID sequence — runs the policy skips still get recorded.
	sampleSeq atomic.Uint64

	mu      sync.Mutex
	ring    []RunRecord // grows to capacity, then wraps; ID i at (i-1)%cap
	next    uint64      // ID the next Record call will assign (first is 1)
	plans   map[planAggKey]*planAgg
	byTrace map[string]uint64 // trace-id -> record ID, pruned with the ring
}

// NewArchive returns an archive retaining the most recent `capacity` runs
// (<= 0 uses defaultArchiveCap).
func NewArchive(capacity int) *Archive {
	if capacity <= 0 {
		capacity = defaultArchiveCap
	}
	return &Archive{capacity: capacity, next: 1, plans: map[planAggKey]*planAgg{}, byTrace: map[string]uint64{}}
}

// Cap returns the ring capacity (0 on nil).
func (a *Archive) Cap() int {
	if a == nil {
		return 0
	}
	return a.capacity
}

// Len returns how many records the ring currently holds (0 on nil).
func (a *Archive) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ring)
}

// SampleTick returns the next sampling sequence number (1-based). The ratio
// sampling policy decides deterministically off this counter, so N runs at
// ratio r sample floor(N*r)±1 runs regardless of interleaving. Returns 0 on
// a nil archive (callers treat that as "do not sample").
func (a *Archive) SampleTick() uint64 {
	if a == nil {
		return 0
	}
	return a.sampleSeq.Add(1)
}

// Record archives one finished execution, assigns and returns its ID.
// Nil-safe: a nil archive returns 0 and retains nothing.
func (a *Archive) Record(rec RunRecord) uint64 {
	if a == nil {
		return 0
	}
	if rec.Start.IsZero() {
		rec.Start = time.Now().Add(-rec.Wall)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rec.ID = a.next
	a.next++
	if len(a.ring) < a.capacity {
		a.ring = append(a.ring, rec)
	} else {
		slot := (rec.ID - 1) % uint64(a.capacity)
		// The ring evicts the record it overwrites; its trace-ID entry must
		// go with it or the index would grow without bound — unless a newer
		// run under the same trace (one upstream trace, two requests) has
		// taken the entry over.
		if old := a.ring[slot]; old.TraceID != "" && a.byTrace[old.TraceID] == old.ID {
			delete(a.byTrace, old.TraceID)
		}
		a.ring[slot] = rec
	}
	if rec.TraceID != "" {
		a.byTrace[rec.TraceID] = rec.ID
	}

	key := planAggKey{view: rec.View, strategy: rec.Strategy}
	agg := a.plans[key]
	if agg == nil {
		agg = &planAgg{hist: newStandaloneHistogram(nil)}
		a.plans[key] = agg
	}
	agg.calls++
	agg.rows += rec.Rows
	if rec.Error != "" {
		agg.errors++
	}
	agg.hist.Observe(rec.Wall.Seconds())
	// Insert into the plan's top-K slowest (slowest first), kept in full.
	pos := sort.Search(len(agg.slowest), func(i int) bool { return agg.slowest[i].Wall < rec.Wall })
	if pos < archiveTopK {
		if len(agg.slowest) < archiveTopK {
			agg.slowest = append(agg.slowest, RunRecord{})
		}
		copy(agg.slowest[pos+1:], agg.slowest[pos:])
		agg.slowest[pos] = rec
	}
	return rec.ID
}

// Runs returns the most recent records, newest first. limit <= 0 returns
// everything retained. Nil-safe.
func (a *Archive) Runs(limit int) []RunRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.ring)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]RunRecord, 0, limit)
	for id := a.next - 1; id >= 1 && len(out) < limit; id-- {
		out = append(out, a.ring[(id-1)%uint64(a.capacity)])
	}
	return out
}

// Run returns the record with the given ID, if the ring still retains it.
func (a *Archive) Run(id uint64) (RunRecord, bool) {
	if a == nil || id == 0 {
		return RunRecord{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if id >= a.next || a.next-id > uint64(len(a.ring)) {
		return RunRecord{}, false
	}
	return a.ring[(id-1)%uint64(a.capacity)], true
}

// RunByTrace returns the record carrying the given W3C trace ID, if the
// ring still retains it. Nil-safe.
func (a *Archive) RunByTrace(traceID string) (RunRecord, bool) {
	if a == nil || traceID == "" {
		return RunRecord{}, false
	}
	a.mu.Lock()
	id, ok := a.byTrace[traceID]
	var rec RunRecord
	if ok {
		rec = a.ring[(id-1)%uint64(a.capacity)]
	}
	a.mu.Unlock()
	return rec, ok
}

// Plans snapshots the per-plan aggregates, sorted by (view, strategy).
func (a *Archive) Plans() []PlanAggregate {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]PlanAggregate, 0, len(a.plans))
	for key, agg := range a.plans {
		out = append(out, PlanAggregate{
			View: key.view, Strategy: key.strategy,
			Calls: agg.calls, Errors: agg.errors, Rows: agg.rows,
			P50:     time.Duration(agg.hist.Quantile(0.50) * float64(time.Second)),
			P95:     time.Duration(agg.hist.Quantile(0.95) * float64(time.Second)),
			P99:     time.Duration(agg.hist.Quantile(0.99) * float64(time.Second)),
			Slowest: append([]RunRecord(nil), agg.slowest...),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].View != out[j].View {
			return out[i].View < out[j].View
		}
		return out[i].Strategy < out[j].Strategy
	})
	return out
}
