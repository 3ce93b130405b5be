package xsltdb

// The facade half of the observability layer: the engine's built-in metric
// instruments (registered on obs.Default and served by Registry.Handler /
// cmd/xsltdb -metrics-addr). Per-run trace plumbing lives in xsltdb.go
// (execution) and pipeline.go; everything here is the process-wide
// aggregation those runs feed.

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Built-in instruments. Registration is idempotent, so multiple Databases in
// one process share these series — the registry aggregates across them just
// like a real server's /metrics endpoint would.
var (
	mRuns = obs.Default.NewCounterVec("xsltdb_runs_total",
		"Completed executions (Run calls and cursor lifetimes) by strategy and outcome.",
		"strategy", "outcome")
	mRunSeconds = obs.Default.NewHistogramVec("xsltdb_run_seconds",
		"End-to-end execution latency (compile + exec) in seconds.",
		nil, "strategy")
	mRowsScanned = obs.Default.NewCounter("xsltdb_rows_scanned_total",
		"Heap rows visited by full scans across all runs.")
	mRowsReturned = obs.Default.NewCounter("xsltdb_rows_returned_total",
		"Serialized result rows handed to callers across all runs.")
	mDegradations = obs.Default.NewCounter("xsltdb_degradations_total",
		"Strategy degradations (a failing strategy fell through to a weaker one).")
	mPanics = obs.Default.NewCounter("xsltdb_panics_recovered_total",
		"Engine panics contained at the facade boundary.")
	mActiveCursors = obs.Default.NewGauge("xsltdb_active_cursors",
		"Cursors currently open (streaming executions in flight).")
	mSnapshotPins = obs.Default.NewGauge("xsltdb_snapshot_pins",
		"MVCC snapshots currently pinned by in-flight runs and open cursors.")
	mWalAppendSeconds = obs.Default.NewHistogram("xsltdb_wal_append_seconds",
		"Wall time of one WAL append (frame write plus any policy-driven fsync or rotation).",
		walLatencyBuckets)
	mWalFsyncSeconds = obs.Default.NewHistogram("xsltdb_wal_fsync_seconds",
		"Wall time of one WAL fsync call.", walLatencyBuckets)
)

func init() {
	obs.Default.NewGaugeFunc("xsltdb_snapshot_pin_oldest_age_seconds",
		"Age of the oldest MVCC snapshot pin still held by an in-flight run or open cursor (0 when none).",
		snapPins.oldestAgeSeconds)
}

// walLatencyBuckets resolve the microsecond-to-millisecond range WAL IO
// lives in; the default buckets start at 1ms and would flatten it. The 0.1 s
// bound is the stall threshold the diagnostics layer's wal-fsync-stall
// detector reads the fsync histogram's tail above.
var walLatencyBuckets = []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 1}

// snapPins tracks every live MVCC snapshot pin with its acquisition time so
// the oldest-pin-age gauge can expose long-held snapshots (a stuck cursor
// keeps old versions alive; age is the signal, count alone is not).
var snapPins = &pinTracker{pins: map[uint64]time.Time{}}

type pinTracker struct {
	mu   sync.Mutex
	seq  uint64
	pins map[uint64]time.Time
}

// pin registers a new snapshot pin and bumps the pin-count gauge.
func (p *pinTracker) pin() uint64 {
	p.mu.Lock()
	p.seq++
	id := p.seq
	p.pins[id] = time.Now()
	p.mu.Unlock()
	mSnapshotPins.Inc()
	return id
}

// unpin releases a pin taken with pin.
func (p *pinTracker) unpin(id uint64) {
	p.mu.Lock()
	delete(p.pins, id)
	p.mu.Unlock()
	mSnapshotPins.Dec()
}

func (p *pinTracker) oldestAgeSeconds() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var oldest time.Time
	for _, t := range p.pins {
		if oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Seconds()
}

// recordRunMetrics folds one finished execution into the process-wide
// instruments. err is the run's terminal error (nil for success; cursor
// callers normalize io.EOF to nil first).
func recordRunMetrics(es *ExecStats, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	mRuns.With(es.StrategyUsed.String(), outcome).Inc()
	mRunSeconds.With(es.StrategyUsed.String()).Observe((es.CompileWall + es.ExecWall).Seconds())
	mRowsScanned.Add(es.RowsScanned)
	mRowsReturned.Add(es.RowsProduced)
	mDegradations.Add(es.Degradations)
	mPanics.Add(es.PanicsRecovered)
}

// MetricsRegistry returns the process-wide metrics registry the engine's
// built-in instruments report to. Serve it over HTTP with
// MetricsRegistry().Handler(), or render it with WriteTo (Prometheus text
// exposition format).
func MetricsRegistry() *obs.Registry { return obs.Default }
