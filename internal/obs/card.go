package obs

// The cardinality-accuracy half of the retention layer: every completed run
// reports the planner's row estimate for its driving access path next to the
// actual row count, and the tracker aggregates the q-error — the symmetric
// ratio max(est/actual, actual/est) — per (view, access-path shape). A
// q-error above the threshold is counted against its shape and bumps an
// optional counter (xsltdb_misestimates_total). This is the feedback signal
// adaptive re-planning consumes: a plan whose estimates are honest has
// q ≈ 1; a skewed table shows up here long before it shows up as a slow
// query.

import (
	"sort"
	"sync"
)

// QError is the symmetric relative error between an estimate and an actual
// row count: max(est/actual, actual/est), with both sides clamped to >= 1 so
// empty results do not divide by zero. 1.0 means a perfect estimate.
func QError(est, actual int64) float64 {
	e, a := float64(est), float64(actual)
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// CardStat is the aggregate estimate-accuracy of one (view, shape) pair.
type CardStat struct {
	View  string `json:"view"`
	Shape string `json:"shape"`
	// Runs counts completed executions aggregated under this shape.
	Runs int64 `json:"runs"`
	// EstRows / ActualRows are totals across those runs.
	EstRows    int64 `json:"est_rows_total"`
	ActualRows int64 `json:"actual_rows_total"`
	// MaxQError / MeanQError summarize the per-run q-errors.
	MaxQError  float64 `json:"max_q_error"`
	MeanQError float64 `json:"mean_q_error"`
	// Misestimates counts runs over the threshold.
	Misestimates int64 `json:"misestimates"`
}

type cardKey struct{ view, shape string }

type cardAgg struct {
	runs         int64
	estRows      int64
	actualRows   int64
	maxQ         float64
	sumQ         float64
	misestimates int64
}

// CardTracker aggregates est-vs-actual cardinality accuracy per (view,
// access-path shape). All methods are nil-safe; Observe is one short
// critical section per run.
type CardTracker struct {
	threshold float64
	counter   *Counter // optional misestimates_total; may be nil

	mu    sync.Mutex
	paths map[cardKey]*cardAgg
}

// NewCardTracker returns a tracker flagging runs whose q-error is >=
// threshold (<= 1 uses 2.0, the conventional "estimate off by 2x" bar).
// counter, when non-nil, is bumped once per misestimate.
func NewCardTracker(threshold float64, counter *Counter) *CardTracker {
	if threshold <= 1 {
		threshold = 2.0
	}
	return &CardTracker{threshold: threshold, counter: counter, paths: map[cardKey]*cardAgg{}}
}

// Threshold returns the q-error bar (0 on nil).
func (c *CardTracker) Threshold() float64 {
	if c == nil {
		return 0
	}
	return c.threshold
}

// Observe folds one completed run's estimate accuracy into the tracker.
// Callers only report runs that ran to completion — a partial actual (an
// abandoned cursor, a failed run) says nothing about the estimate.
func (c *CardTracker) Observe(view, shape string, est, actual int64) {
	if c == nil || shape == "" {
		return
	}
	q := QError(est, actual)
	miss := q >= c.threshold

	c.mu.Lock()
	key := cardKey{view: view, shape: shape}
	agg := c.paths[key]
	if agg == nil {
		agg = &cardAgg{}
		c.paths[key] = agg
	}
	agg.runs++
	agg.estRows += est
	agg.actualRows += actual
	agg.sumQ += q
	if q > agg.maxQ {
		agg.maxQ = q
	}
	if miss {
		agg.misestimates++
	}
	c.mu.Unlock()

	if miss && c.counter != nil {
		c.counter.Inc()
	}
}

// Stats snapshots every (view, shape) aggregate, worst max-q-error first.
func (c *CardTracker) Stats() []CardStat {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]CardStat, 0, len(c.paths))
	for key, agg := range c.paths {
		out = append(out, CardStat{
			View: key.view, Shape: key.shape,
			Runs: agg.runs, EstRows: agg.estRows, ActualRows: agg.actualRows,
			MaxQError: agg.maxQ, MeanQError: agg.sumQ / float64(agg.runs),
			Misestimates: agg.misestimates,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxQError != out[j].MaxQError {
			return out[i].MaxQError > out[j].MaxQError
		}
		if out[i].View != out[j].View {
			return out[i].View < out[j].View
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}

// Worst returns up to k aggregates whose max q-error crossed the threshold,
// worst first — the "worst offenders" block of ExplainAnalyze. view filters
// to one view ("" = all).
func (c *CardTracker) Worst(view string, k int) []CardStat {
	if c == nil || k <= 0 {
		return nil
	}
	var out []CardStat
	for _, s := range c.Stats() {
		if s.MaxQError < c.threshold {
			break // sorted worst-first; nothing further qualifies
		}
		if view != "" && s.View != view {
			continue
		}
		out = append(out, s)
		if len(out) == k {
			break
		}
	}
	return out
}
