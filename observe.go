package xsltdb

// The facade half of the observability layer: a database's built-in metric
// instruments, on the registry the database owns (Metrics). Per-run trace
// plumbing lives in xsltdb.go (execution) and pipeline.go; everything here is
// the per-database aggregation those runs feed.

import (
	"time"

	"repro/internal/obs"
)

// engineMetrics are one database's counters and histograms and the registry
// they live on. Its gauges are computed from the database's own state at
// scrape time (newEngineMetrics), so they cannot drift from it.
type engineMetrics struct {
	reg              *obs.Registry
	runs             *obs.CounterVec
	runSeconds       *obs.HistogramVec
	rowsScanned      *obs.Counter
	rowsReturned     *obs.Counter
	degradations     *obs.Counter
	panics           *obs.Counter
	walAppendSeconds *obs.Histogram
	walFsyncSeconds  *obs.Histogram
}

func newEngineMetrics(d *Database) engineMetrics {
	reg := obs.NewRegistry()
	reg.NewGaugeFunc("xsltdb_active_cursors",
		"Cursors currently open (streaming executions in flight).", func() float64 {
			d.curMu.Lock()
			defer d.curMu.Unlock()
			return float64(len(d.cursors))
		})
	reg.NewGaugeFunc("xsltdb_snapshot_pins",
		"MVCC snapshots currently pinned by in-flight runs and open cursors.", func() float64 {
			d.pinMu.Lock()
			defer d.pinMu.Unlock()
			return float64(len(d.pins))
		})
	reg.NewGaugeFunc("xsltdb_snapshot_pin_oldest_age_seconds",
		"Age of the oldest MVCC snapshot pin still held by an in-flight run or open cursor (0 when none).",
		d.oldestPinAge)
	return engineMetrics{
		reg: reg,
		runs: reg.NewCounterVec("xsltdb_runs_total",
			"Completed executions (Run calls and cursor lifetimes) by strategy and outcome.",
			"strategy", "outcome"),
		runSeconds: reg.NewHistogramVec("xsltdb_run_seconds",
			"End-to-end execution latency (compile + exec) in seconds.",
			nil, "strategy"),
		rowsScanned: reg.NewCounter("xsltdb_rows_scanned_total",
			"Heap rows visited by full scans across all runs."),
		rowsReturned: reg.NewCounter("xsltdb_rows_returned_total",
			"Serialized result rows handed to callers across all runs."),
		degradations: reg.NewCounter("xsltdb_degradations_total",
			"Strategy degradations (a failing strategy fell through to a weaker one)."),
		panics: reg.NewCounter("xsltdb_panics_recovered_total",
			"Engine panics contained at the facade boundary."),
		walAppendSeconds: reg.NewHistogram("xsltdb_wal_append_seconds",
			"Wall time of one WAL append (frame write plus any policy-driven fsync or rotation).",
			walLatencyBuckets),
		walFsyncSeconds: reg.NewHistogram("xsltdb_wal_fsync_seconds",
			"Wall time of one WAL fsync call.", walLatencyBuckets),
	}
}

// walLatencyBuckets resolve the microsecond-to-millisecond range WAL IO
// lives in; the default buckets start at 1ms and would flatten it. The 0.1 s
// bound is the stall threshold the diagnostics layer's wal-fsync-stall
// detector reads the fsync histogram's tail above.
var walLatencyBuckets = []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 1}

// pin records a new MVCC snapshot pin with its acquisition time, so the
// oldest-pin-age gauge can expose long-held snapshots (a stuck cursor keeps
// old versions alive; age is the signal, count alone is not).
func (d *Database) pin() uint64 {
	d.pinMu.Lock()
	defer d.pinMu.Unlock()
	d.pinSeq++
	d.pins[d.pinSeq] = time.Now()
	return d.pinSeq
}

// unpin releases a pin taken with pin.
func (d *Database) unpin(id uint64) {
	d.pinMu.Lock()
	delete(d.pins, id)
	d.pinMu.Unlock()
}

func (d *Database) oldestPinAge() float64 {
	d.pinMu.Lock()
	defer d.pinMu.Unlock()
	var oldest time.Time
	for _, t := range d.pins {
		if oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Seconds()
}

// recordRunMetrics folds one finished execution into the database's
// instruments. err is the run's terminal error (nil for success; cursor
// callers normalize io.EOF to nil first).
func (d *Database) recordRunMetrics(es *ExecStats, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	m := &d.metrics
	m.runs.With(es.StrategyUsed.String(), outcome).Inc()
	m.runSeconds.With(es.StrategyUsed.String()).Observe((es.CompileWall + es.ExecWall).Seconds())
	m.rowsScanned.Add(es.RowsScanned)
	m.rowsReturned.Add(es.RowsProduced)
	m.degradations.Add(es.Degradations)
	m.panics.Add(es.PanicsRecovered)
}

// Metrics returns the registry this database's built-in instruments report
// to; no other database shares it. Render it with WriteTo (Prometheus text
// exposition format). A serve.Server in front of the database scrapes it
// together with its own.
func (d *Database) Metrics() *obs.Registry { return d.metrics.reg }
