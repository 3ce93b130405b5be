package xsltdb

// The retention half of the facade's observability layer: run-history
// archiving (EnableRunHistory → obs.Archive), the trace-sampling policy that
// decides which runs carry full traces into the archive, and the debug
// console handler that serves all of it (cmd/xsltdb -console-addr). The
// per-run recording hook is execution.finish (xsltdb.go), which Run and
// Cursor.release both end in.

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

type samplingMode uint8

const (
	samplingOff samplingMode = iota
	samplingAlways
	samplingRatio
	samplingSlow
	samplingErrors
)

// TraceSampling is a policy for which executions trace themselves into the
// run-history archive. Sampling only takes effect when the database's
// archive is enabled (EnableRunHistory); every run is still archived as a
// record — the policy decides which records carry the full operator tree,
// so WithTrace-level detail can stay on in production without paying trace
// allocation on every run. Construct with SampleAlways, SampleRatio,
// SampleSlowerThan or SampleErrors; the zero value samples nothing.
type TraceSampling struct {
	mode      samplingMode
	ratio     float64
	threshold time.Duration
}

// SampleAlways traces every execution into the archive.
func SampleAlways() TraceSampling { return TraceSampling{mode: samplingAlways} }

// SampleRatio traces a deterministic r fraction of executions (0 ≤ r ≤ 1):
// over N runs, floor(N·r)±1 carry traces, spread evenly rather than decided
// by a random draw — reproducible and immune to unlucky streaks.
func SampleRatio(r float64) TraceSampling {
	return TraceSampling{mode: samplingRatio, ratio: r}
}

// SampleSlowerThan traces executions whose wall time (compile + exec) ends
// up >= d. Every run under this policy traces itself speculatively — whether
// it was slow is only known at the end — but only the over-threshold runs
// retain their trace in the archive; the rest release their spans back to
// the pool.
func SampleSlowerThan(d time.Duration) TraceSampling {
	return TraceSampling{mode: samplingSlow, threshold: d}
}

// SampleErrors traces executions that end in an error (same speculative
// self-tracing as SampleSlowerThan).
func SampleErrors() TraceSampling { return TraceSampling{mode: samplingErrors} }

// WithTraceSampling installs a trace-sampling policy on the transform: runs
// the policy selects land in the run-history archive with their full
// operator tree, exactly as if the caller had passed WithTrace. No effect
// until EnableRunHistory is called on the database.
func WithTraceSampling(p TraceSampling) Option {
	return optionFunc(func(o *compileOptions) { o.Sampling = p })
}

// wantTrace decides at run start whether this execution should carry a
// trace for the archive. hist is the database's archive (nil = disabled →
// never sample). The slow-only and errors-only policies must trace
// speculatively: whether the run qualifies is only known when it finishes.
func (p TraceSampling) wantTrace(hist *obs.Archive) bool {
	if hist == nil {
		return false
	}
	switch p.mode {
	case samplingAlways, samplingSlow, samplingErrors:
		return true
	case samplingRatio:
		return sampleHit(hist.SampleTick(), p.ratio)
	}
	return false
}

// keep decides at run end whether the (speculatively) collected trace is
// retained in the archive record.
func (p TraceSampling) keep(wall time.Duration, err error) bool {
	switch p.mode {
	case samplingAlways, samplingRatio:
		return true
	case samplingSlow:
		return wall >= p.threshold
	case samplingErrors:
		return err != nil
	}
	return false
}

// sampleHit reports whether the n-th execution (1-based) falls on a sampling
// boundary for ratio r: true exactly when floor(n·r) advances past
// floor((n-1)·r), which spaces hits evenly at every ratio.
func sampleHit(n uint64, r float64) bool {
	if r >= 1 {
		return true
	}
	if r <= 0 || n == 0 {
		return false
	}
	return uint64(float64(n)*r) > uint64(float64(n-1)*r)
}

// EnableRunHistory turns on the run-history archive: every subsequent Run
// call and cursor lifetime is recorded in a bounded ring (capacity <= 0
// keeps the default of 256 runs) with per-plan latency aggregates, and
// trace-sampling policies (WithTraceSampling) become active. Enabling is
// idempotent — the first call wins — and the archive is returned either way.
// Before this call (and on databases that never make it) the archive path
// costs one atomic pointer load per run.
func (d *Database) EnableRunHistory(capacity int) *obs.Archive {
	a := obs.NewArchive(capacity)
	if d.history.CompareAndSwap(nil, a) {
		return a
	}
	return d.history.Load()
}

// RunHistory returns the archive, or nil when EnableRunHistory was never
// called. All archive methods are nil-safe, so callers may use the result
// unconditionally.
func (d *Database) RunHistory() *obs.Archive { return d.history.Load() }

// ConsoleHandler builds the live debug console over this database: recent
// runs (with sampled traces), plan-cache entries and per-plan aggregates,
// the database's metrics and the pprof endpoints. Serve it on an internal
// port (a serve.Server's Console adds its own pages and metrics):
//
//	go http.ListenAndServe("localhost:6060", db.ConsoleHandler())
//
// The /runs endpoints stay empty until EnableRunHistory is called.
func (d *Database) ConsoleHandler() http.Handler {
	return obs.ConsoleHandler(obs.ConsoleConfig{
		Archive: d.history.Load(),
		Metrics: obs.Scrape{d.metrics.reg},
		Plans:   func() any { return d.PlanCacheEntries() },
	})
}

// archiveRun folds one finished execution into the run-history archive (a
// no-op while it is disabled). keepTrace marks the record sampled and
// attaches the rendered trace; the caller still owns tr and releases it
// afterwards if it was self-created.
func archiveRun(a *obs.Archive, kind, view string, start time.Time, es *ExecStats, err error, tr *obs.Trace, keepTrace bool) {
	if a == nil {
		return
	}
	rec := obs.RunRecord{
		Kind: kind, Start: start, View: view,
		Strategy:    es.StrategyUsed.String(),
		AccessPath:  es.AccessPath,
		Rows:        es.RowsProduced,
		Wall:        es.CompileWall + es.ExecWall,
		CompileWall: es.CompileWall,
		ExecWall:    es.ExecWall,
		Stats:       es.String(),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	// A trace carrying a request identity (serve's WithTrace + SetID) is
	// archived under that ID and always retains its tree — the whole point
	// of request-scoped tracing is that /runs/<trace-id> resolves to the
	// full operator tree. Self-created traces never carry an ID.
	if tid := tr.ID(); tid != "" {
		rec.TraceID = tid
		keepTrace = true
	}
	if keepTrace && tr != nil {
		rec.Sampled = true
		rec.Trace = tr.Tree()
		if b, jerr := tr.JSON(); jerr == nil {
			rec.TraceJSON = b
		}
	}
	a.Record(rec)
}
