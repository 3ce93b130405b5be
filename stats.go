package xsltdb

import (
	"fmt"
	"time"

	"repro/internal/relstore"
)

// ExecStats describes the work of ONE execution — a Run call or a cursor's
// lifetime. Each run owns its counters (concurrent runs never share), and
// the same counters are merged into the database-wide aggregate exposed by
// Database.Stats.
type ExecStats struct {
	// RowsProduced counts serialized result rows handed to the caller.
	RowsProduced int64
	// RowsScanned counts heap rows visited by full scans.
	RowsScanned int64
	// IndexProbes counts B-tree descents.
	IndexProbes int64
	// RangeScans counts B-tree range-scan operators started.
	RangeScans int64
	// FullScans counts full-scan operators started.
	FullScans int64
	// RowsEmitted counts rows emitted by access-path operators.
	RowsEmitted int64
	// RowsFiltered counts rows an access path visited but rejected on a
	// residual predicate — the filter operator's rows-in minus rows-out.
	RowsFiltered int64
	// Batches counts the chunks the batch-at-a-time access paths emitted;
	// RowsEmitted / Batches is the realized average batch size.
	Batches int64
	// MorselsExecuted counts the morsels the morsel pool's workers scanned
	// and constructed (0 when every scan ran serially).
	MorselsExecuted int64
	// Recompiles counts automatic recompilations this run performed (0 or
	// 1: a view redefinition since the last compilation).
	Recompiles int64
	// AccessPath is the EXPLAIN line of the driving access path this run
	// chose — "INDEX PROBE t(col) col = v", "INDEX RANGE SCAN ...", or
	// "TABLE SCAN ..." — "" when the run never planned a driving access
	// (e.g. it failed before execution).
	AccessPath string
	// DataVersion is the commit sequence number of the MVCC snapshot this
	// execution read (relstore Snapshot.CommitSeq): the version a cache may
	// file the result under. Every write numbered <= DataVersion is in the
	// result.
	DataVersion int64
	// CompileWall is the wall time of the compile/recompile stage.
	CompileWall time.Duration
	// ExecWall is the wall time of the execution stage (for cursors: the
	// time spent inside Next, excluding caller think time).
	ExecWall time.Duration

	// StrategyUsed is the strategy that actually produced the result —
	// the compiled strategy unless the run degraded.
	StrategyUsed Strategy
	// Degradations counts how many times this run fell from a failing
	// strategy to a weaker one (SQL plan → per-row XQuery → interpreter).
	Degradations int64
	// PanicsRecovered counts engine panics contained at the facade
	// boundary during this run (surfaced as ErrInternal, possibly handled
	// by degradation).
	PanicsRecovered int64
	// GovTicks counts resource-governor check ticks charged to this run
	// (0 when the transform ran without a governor).
	GovTicks int64
}

// mergeSink folds physical-operator counters into the stats.
func (s *ExecStats) mergeSink(sink relstore.Stats) {
	s.RowsScanned += sink.RowsScanned
	s.IndexProbes += sink.IndexProbes
	s.RangeScans += sink.RangeScans
	s.FullScans += sink.FullScans
	s.RowsEmitted += sink.RowsEmitted
	s.RowsFiltered += sink.RowsFiltered
	s.Batches += sink.Batches
	s.MorselsExecuted += sink.Morsels
}

// statsFieldTokens maps every ExecStats field to the token that renders it
// in String(). A reflection test keeps this map — and therefore String() —
// complete: adding a field without a token (or a token without rendering)
// fails the build's tests, so the CLI -stats line can never silently lag
// the struct.
var statsFieldTokens = map[string]string{
	"RowsProduced":    "rows=",
	"RowsScanned":     "scanned=",
	"IndexProbes":     "probes=",
	"RangeScans":      "range-scans=",
	"FullScans":       "full-scans=",
	"RowsEmitted":     "emitted=",
	"RowsFiltered":    "filtered=",
	"Batches":         "batches=",
	"MorselsExecuted": "morsels=",
	"Recompiles":      "recompiles=",
	"AccessPath":      "access=",
	"DataVersion":     "data-version=",
	"CompileWall":     "compile=",
	"ExecWall":        "exec=",
	"StrategyUsed":    "strategy=",
	"Degradations":    "degradations=",
	"PanicsRecovered": "panics=",
	"GovTicks":        "gov-ticks=",
}

// String renders the stats in one line (CLI -stats output). Robustness
// counters append only when non-zero, keeping the healthy-path line stable.
func (s ExecStats) String() string {
	line := fmt.Sprintf(
		"rows=%d scanned=%d probes=%d range-scans=%d full-scans=%d emitted=%d filtered=%d recompiles=%d compile=%v exec=%v",
		s.RowsProduced, s.RowsScanned, s.IndexProbes, s.RangeScans, s.FullScans,
		s.RowsEmitted, s.RowsFiltered, s.Recompiles, s.CompileWall.Round(time.Microsecond), s.ExecWall.Round(time.Microsecond))
	if s.Batches > 0 || s.MorselsExecuted > 0 {
		line += fmt.Sprintf(" batches=%d morsels=%d", s.Batches, s.MorselsExecuted)
	}
	if s.AccessPath != "" {
		line += fmt.Sprintf(" access=%q", s.AccessPath)
	}
	if s.DataVersion != 0 {
		line += fmt.Sprintf(" data-version=%d", s.DataVersion)
	}
	if s.Degradations > 0 || s.PanicsRecovered > 0 {
		line += fmt.Sprintf(" strategy=%s degradations=%d panics=%d",
			s.StrategyUsed, s.Degradations, s.PanicsRecovered)
	}
	if s.GovTicks > 0 {
		line += fmt.Sprintf(" gov-ticks=%d", s.GovTicks)
	}
	return line
}
