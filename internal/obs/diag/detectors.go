package diag

// The standard detector set and the generic rule evaluators they are built
// from. Each detector keeps trailing state — a previous counter reading, a
// previous histogram snapshot, an EMA baseline — so firing means "something
// changed", not "a cumulative total is nonzero". Detectors read instruments
// by exposition name through the registry's read-side lookups, so the set
// can watch any layer's signals without compile-time coupling to it.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
)

// CounterDeltaDetector fires when a counter family's total (summed across
// all its series) advances by at least Min between checks. The first check
// primes the trailing reading without firing, so pre-existing totals at
// monitor attach time are not anomalies.
type CounterDeltaDetector struct {
	DetectorName string
	Registry     *obs.Registry
	Metric       string
	Min          int64 // default 1
	Severity     string

	primed bool
	last   float64
}

func (d *CounterDeltaDetector) Name() string { return d.DetectorName }

func (d *CounterDeltaDetector) Check(now time.Time) []Anomaly {
	var cur float64
	for _, sv := range d.Registry.SeriesValues(d.Metric) {
		cur += sv.Value
	}
	if !d.primed {
		d.primed, d.last = true, cur
		return nil
	}
	delta := cur - d.last
	d.last = cur
	min := d.Min
	if min <= 0 {
		min = 1
	}
	if delta < float64(min) {
		return nil
	}
	return []Anomaly{{
		Time: now, Detector: d.DetectorName, Severity: d.Severity,
		Value:  delta,
		Detail: fmt.Sprintf("%s advanced by %.0f since last check", d.Metric, delta),
	}}
}

// GaugeBoundDetector fires when any series of a gauge family exceeds Bound,
// with hysteresis per label tuple: it fires on the crossing, then stays
// quiet until the series drops back to Rearm (default Bound/2) — a stuck
// condition yields one anomaly, not one per tick.
type GaugeBoundDetector struct {
	DetectorName string
	Registry     *obs.Registry
	Metric       string
	Bound        float64
	Rearm        float64 // default Bound/2
	Severity     string

	active map[string]bool
}

func (d *GaugeBoundDetector) Name() string { return d.DetectorName }

func (d *GaugeBoundDetector) Check(now time.Time) []Anomaly {
	rearm := d.Rearm
	if rearm <= 0 {
		rearm = d.Bound / 2
	}
	if d.active == nil {
		d.active = map[string]bool{}
	}
	var out []Anomaly
	for _, sv := range d.Registry.SeriesValues(d.Metric) {
		key := labelKey(sv.Labels)
		switch {
		case sv.Value > d.Bound && !d.active[key]:
			d.active[key] = true
			out = append(out, Anomaly{
				Time: now, Detector: d.DetectorName, Severity: d.Severity,
				Value: sv.Value, Baseline: d.Bound,
				Detail: fmt.Sprintf("%s%s = %g over bound %g", d.Metric, labelSuffix(sv.Labels), sv.Value, d.Bound),
			})
		case sv.Value <= rearm && d.active[key]:
			delete(d.active, key)
		}
	}
	return out
}

// HistogramTailDetector fires when at least Min new observations landed
// above Threshold (a bucket bound of the watched histogram) since the last
// check — the rule behind the WAL fsync-stall detector: any fsync slower
// than the stall bound is an anomaly, however healthy the median is.
type HistogramTailDetector struct {
	DetectorName string
	Registry     *obs.Registry
	Metric       string
	Threshold    float64 // seconds; align with a bucket bound for exactness
	Min          int64   // default 1
	Severity     string

	primed   bool
	lastTail int64
}

func (d *HistogramTailDetector) Name() string { return d.DetectorName }

func (d *HistogramTailDetector) Check(now time.Time) []Anomaly {
	h, ok := d.Registry.FindHistogram(d.Metric)
	if !ok {
		return nil
	}
	tail := h.Snapshot().CountAbove(d.Threshold)
	if !d.primed {
		d.primed, d.lastTail = true, tail
		return nil
	}
	delta := tail - d.lastTail
	d.lastTail = tail
	min := d.Min
	if min <= 0 {
		min = 1
	}
	if delta < min {
		return nil
	}
	return []Anomaly{{
		Time: now, Detector: d.DetectorName, Severity: d.Severity,
		Value: float64(delta), Baseline: d.Threshold,
		Detail: fmt.Sprintf("%d observation(s) of %s above %gs since last check", delta, d.Metric, d.Threshold),
	}}
}

// LatencySpikeDetector reads the p95 of recent request latencies through
// DetectorOptions.LatencyP95 — in package serve the admission window's, so
// the p95 that sheds load is the one that captures a bundle — and fires when
// it exceeds Factor times the trailing baseline (an EMA of previous healthy
// readings) and the absolute Floor. The baseline only absorbs non-anomalous readings, so a spike cannot
// normalize itself into the baseline while it is being reported.
type LatencySpikeDetector struct {
	DetectorName string
	Factor       float64       // default 3
	Floor        time.Duration // default 10ms

	// p95 reports the current window p95; 0 means too few samples yet. A
	// nil p95 never fires.
	p95 func() time.Duration

	baseline float64 // EMA of healthy window p95s, seconds
}

func (d *LatencySpikeDetector) Name() string { return d.DetectorName }

func (d *LatencySpikeDetector) Check(now time.Time) []Anomaly {
	if d.p95 == nil {
		return nil
	}
	factor := d.Factor
	if factor <= 1 {
		factor = 3
	}
	floor := d.Floor
	if floor <= 0 {
		floor = 10 * time.Millisecond
	}
	p95 := d.p95().Seconds()
	if p95 == 0 {
		return nil
	}
	if d.baseline == 0 {
		d.baseline = p95
		return nil
	}
	if p95 > floor.Seconds() && p95 > factor*d.baseline {
		return []Anomaly{{
			Time: now, Detector: d.DetectorName, Severity: SeverityCritical,
			Value: p95, Baseline: d.baseline,
			Detail: fmt.Sprintf("window p95 %.1fms is %.1fx the trailing baseline %.1fms",
				p95*1e3, p95/d.baseline, d.baseline*1e3),
		}}
	}
	// Healthy reading: fold it into the trailing baseline.
	d.baseline = 0.8*d.baseline + 0.2*p95
	return nil
}

// GoroutineSpikeDetector fires when the process goroutine count exceeds
// Factor times its trailing EMA baseline and MinAbs — a leak or a stampede,
// not normal serving concurrency.
type GoroutineSpikeDetector struct {
	DetectorName string
	Factor       float64 // default 3
	MinAbs       float64 // default 200
	Count        func() float64

	baseline float64
}

func (d *GoroutineSpikeDetector) Name() string { return d.DetectorName }

func (d *GoroutineSpikeDetector) Check(now time.Time) []Anomaly {
	count := d.Count
	if count == nil {
		count = func() float64 { return float64(runtime.NumGoroutine()) }
	}
	factor := d.Factor
	if factor <= 1 {
		factor = 3
	}
	minAbs := d.MinAbs
	if minAbs <= 0 {
		minAbs = 200
	}
	cur := count()
	if d.baseline == 0 {
		d.baseline = cur
		return nil
	}
	if cur > minAbs && cur > factor*d.baseline {
		return []Anomaly{{
			Time: now, Detector: d.DetectorName, Severity: SeverityCritical,
			Value: cur, Baseline: d.baseline,
			Detail: fmt.Sprintf("%.0f goroutines, %.1fx the trailing baseline %.0f", cur, cur/d.baseline, d.baseline),
		}}
	}
	d.baseline = 0.8*d.baseline + 0.2*cur
	return nil
}

// DetectorOptions tunes StandardDetectors. Zero values default sanely.
type DetectorOptions struct {
	// LatencyP95 feeds the p95 spike rule (nil: the rule never fires);
	// LatencyFactor/LatencyFloor parameterize it (default 3x over a 10ms
	// floor).
	LatencyP95    func() time.Duration
	LatencyFactor float64
	LatencyFloor  time.Duration
	// BurnBound is the SLO burn-rate bound in milli-units (default 2000 —
	// the error budget burning at twice its sustainable rate).
	BurnBound float64
	// WALStallThreshold is the fsync duration that counts as a stall
	// (default 100ms; align with a xsltdb_wal_fsync_seconds bucket bound).
	WALStallThreshold float64
	// PinAgeBound flags snapshot pins older than this (default 60s).
	PinAgeBound time.Duration
	// GoroutineFactor is the goroutine-spike multiple (default 3).
	GoroutineFactor float64
}

// StandardDetectors builds the engine's stock detector set. Each rule reads
// the one registry its metric lives on: engine, a Database's (xsltdb_*), or
// server, the serve.Server's in front of it (xsltd_*).
//
//	latency-spike        window p95 vs trailing baseline
//	slo-burn             per-tenant burn rate over bound, with hysteresis
//	degradation          any strategy degradation since last check
//	wal-fsync-stall      fsync observations above the stall threshold
//	snapshot-pin-age     oldest MVCC pin older than bound
//	event-drops          wide events dropped at the full bus buffer
//	goroutine-spike      goroutine count vs trailing baseline
func StandardDetectors(engine, server *obs.Registry, o DetectorOptions) []Detector {
	if o.BurnBound <= 0 {
		o.BurnBound = 2000
	}
	if o.WALStallThreshold <= 0 {
		o.WALStallThreshold = 0.1
	}
	if o.PinAgeBound <= 0 {
		o.PinAgeBound = time.Minute
	}
	return []Detector{
		&LatencySpikeDetector{DetectorName: "latency-spike", p95: o.LatencyP95, Factor: o.LatencyFactor, Floor: o.LatencyFloor},
		&GaugeBoundDetector{DetectorName: "slo-burn", Registry: server,
			Metric: "xsltd_slo_burn_rate_milli", Bound: o.BurnBound, Severity: SeverityCritical},
		&CounterDeltaDetector{DetectorName: "degradation", Registry: engine,
			Metric: "xsltdb_degradations_total", Severity: SeverityWarn},
		&HistogramTailDetector{DetectorName: "wal-fsync-stall", Registry: engine,
			Metric: "xsltdb_wal_fsync_seconds", Threshold: o.WALStallThreshold, Severity: SeverityCritical},
		&GaugeBoundDetector{DetectorName: "snapshot-pin-age", Registry: engine,
			Metric: "xsltdb_snapshot_pin_oldest_age_seconds", Bound: o.PinAgeBound.Seconds(), Severity: SeverityWarn},
		&CounterDeltaDetector{DetectorName: "event-drops", Registry: server,
			Metric: "xsltd_events_dropped_total", Severity: SeverityWarn},
		&GoroutineSpikeDetector{DetectorName: "goroutine-spike", Factor: o.GoroutineFactor},
	}
}

func labelKey(labels []string) string {
	key := ""
	for _, l := range labels {
		key += l + "\x00"
	}
	return key
}

func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return fmt.Sprintf("%q", labels)
}
