package obs

// The metrics half of the observability layer: registries of counters,
// gauges and histograms with label support, rendered in the Prometheus text
// exposition format (Scrape). There is no process-wide registry: each
// Database and each serve.Server owns one, and a scrape renders the ones it
// is given as one exposition. Everything is stdlib-only and allocation-free
// on the increment path: instruments are resolved once (With caches per
// label-value tuple) and then bumped with plain atomics, so concurrent runs
// sharing one registry never contend on a lock to count.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families. Render it with Scrape.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label schema; series hang off it
// per label-value tuple.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only, sorted ascending

	mu     sync.RWMutex
	series map[string]*series
}

// series is one (metric, label values) time series. val serves counters and
// gauges; histogram observations land in bucketN/sumBits/obsCount.
type series struct {
	labelValues []string

	val atomic.Int64
	// fn, when non-nil, makes this a callback gauge: the value is computed
	// at render time instead of stored (NewGaugeFunc). Written once under
	// the family mutex, read under it at render.
	fn func() float64

	bucketN  []atomic.Int64 // one per bucket bound (cumulative at render)
	sumBits  atomic.Uint64  // float64 bits of the observation sum
	obsCount atomic.Int64
}

func (f *family) getSeries(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	// The key is built in a stack buffer: a lookup that finds its series
	// converts it without allocating, and only a new series keeps a string.
	var buf [64]byte
	b := buf[:0]
	for i, v := range labelValues {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, v...)
	}
	f.mu.RLock()
	s := f.series[string(b)]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	key := string(b)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == kindHistogram {
		s.bucketN = make([]atomic.Int64, len(f.buckets))
	}
	f.series[key] = s
	return s
}

// register creates or fetches a family, enforcing schema consistency: the
// same name re-registered with a different kind or label set panics (a
// programming error, caught when the owning Database or Server is built).
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: append([]string(nil), labels...), series: map[string]*series{}}
	if kind == kindHistogram {
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
	r.families[name] = f
	return f
}

// Counter is a monotonically increasing count.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) { c.s.val.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.s.val.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Inc adds one.
func (g *Gauge) Inc() { g.s.val.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.s.val.Add(-1) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.s.val.Add(n) }

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.s.val.Store(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.s.val.Load() }

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	f *family
	s *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.s.bucketN[i].Add(1)
			break
		}
	}
	h.s.obsCount.Add(1)
	for {
		old := h.s.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.s.obsCount.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts,
// interpolating linearly within the winning bucket — the same estimate a
// Prometheus histogram_quantile() would give over this histogram. It returns
// 0 with no observations, and the top finite bucket bound when the rank
// falls in the +Inf overflow bucket (the estimate is bounded by the layout).
func (h *Histogram) Quantile(q float64) float64 {
	n := h.s.obsCount.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum int64
	lower := 0.0
	for i, ub := range h.f.buckets {
		c := h.s.bucketN[i].Load()
		if c > 0 && float64(cum+c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (ub-lower)*frac
		}
		cum += c
		lower = ub
	}
	if len(h.f.buckets) > 0 {
		return h.f.buckets[len(h.f.buckets)-1]
	}
	return 0
}

// HistogramSnapshot is a point-in-time copy of one histogram series: the
// bucket layout, the per-bucket (non-cumulative) counts, and the running
// count and sum. Detectors diff two snapshots to reason about only the
// observations that arrived between checks — a cumulative histogram's
// quantiles never come back down, but its deltas do.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending (the +Inf bucket is implicit)
	Counts []int64   // per-bucket counts, parallel to Bounds
	Count  int64     // total observations (includes the +Inf overflow)
	Sum    float64
}

// Snapshot copies the histogram's current bucket state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.f.buckets,
		Counts: make([]int64, len(h.f.buckets)),
		Count:  h.s.obsCount.Load(),
		Sum:    math.Float64frombits(h.s.sumBits.Load()),
	}
	for i := range h.s.bucketN {
		s.Counts[i] = h.s.bucketN[i].Load()
	}
	return s
}

// CountAbove returns how many observations landed strictly above the bucket
// whose upper bound is <= bound — i.e. the tail count at bucket resolution.
// Passing an exact bucket bound gives an exact tail; anything else rounds
// down to the nearest bound below it.
func (s HistogramSnapshot) CountAbove(bound float64) int64 {
	tail := s.Count
	for i, ub := range s.Bounds {
		if ub <= bound {
			tail -= s.Counts[i]
		}
	}
	return tail
}

// FindHistogram resolves a registered histogram series by family name and
// label values — the read-side twin of NewHistogramVec().With for consumers
// (detectors, consoles) that know instruments only by their exposition name.
// Returns false when the name is unregistered or not a histogram.
func (r *Registry) FindHistogram(name string, labelValues ...string) (*Histogram, bool) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind != kindHistogram || len(labelValues) != len(f.labels) {
		return nil, false
	}
	return &Histogram{f: f, s: f.getSeries(labelValues)}, true
}

// SeriesValue is one (labels, value) sample of a counter or gauge family.
type SeriesValue struct {
	Labels []string
	Value  float64
}

// SeriesValues snapshots every series of a counter or gauge family,
// computing callback gauges. Returns nil for unregistered names and
// histograms. Detectors use it to watch instruments — including label vecs
// whose series sets grow at runtime — without holding typed handles.
func (r *Registry) SeriesValues(name string) []SeriesValue {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind == kindHistogram {
		return nil
	}
	f.mu.RLock()
	sers := make([]*series, 0, len(f.series))
	fns := make([]func() float64, 0, len(f.series))
	for _, s := range f.series {
		sers = append(sers, s)
		fns = append(fns, s.fn)
	}
	f.mu.RUnlock()
	out := make([]SeriesValue, 0, len(sers))
	for i, s := range sers {
		v := float64(s.val.Load())
		if fns[i] != nil {
			v = fns[i]()
		}
		out = append(out, SeriesValue{Labels: s.labelValues, Value: v})
	}
	return out
}

// newStandaloneHistogram builds a histogram that belongs to no registry —
// the run-history archive uses these for per-plan latency aggregates, which
// are served as JSON through the console rather than scraped as metrics. A
// nil buckets slice uses DefBuckets.
func newStandaloneHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := &family{name: "standalone", kind: kindHistogram, buckets: append([]float64(nil), buckets...)}
	sort.Float64s(f.buckets)
	return &Histogram{f: f, s: &series{bucketN: make([]atomic.Int64, len(f.buckets))}}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With resolves the counter for one label-value tuple (cached).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.getSeries(labelValues)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With resolves the gauge for one label-value tuple (cached).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.getSeries(labelValues)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With resolves the histogram for one label-value tuple (cached).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.getSeries(labelValues)}
}

// NewCounter registers (or fetches) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return &Counter{s: f.getSeries(nil)}
}

// NewCounterVec registers (or fetches) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// NewGauge registers (or fetches) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return &Gauge{s: f.getSeries(nil)}
}

// NewGaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// NewGaugeFunc registers an unlabeled gauge whose value is computed by fn at
// every render — the instrument for values that are derived rather than
// maintained (the age of the oldest pinned snapshot, say). Re-registration
// replaces the callback.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	s := f.getSeries(nil)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// DefBuckets are latency buckets in seconds, spanning 100µs to 10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram registers (or fetches) an unlabeled histogram. A nil buckets
// slice uses DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, kindHistogram, nil, buckets)
	return &Histogram{f: f, s: f.getSeries(nil)}
}

// NewHistogramVec registers (or fetches) a labeled histogram family. A nil
// buckets slice uses DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, buckets)}
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {k="v",...} for a series, with extra appended last
// (the histogram le label).
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	// NOT %q: the exposition format's escapes (\\ \" \n) are exactly what
	// escapeLabel produces; %q would escape the escapes.
	var parts []string
	for i, n := range names {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, n, escapeLabel(values[i])))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, extra[i], escapeLabel(extra[i+1])))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a float the way Prometheus clients do. %g already
// uses the fewest digits that round-trip, so no trailing-zero trimming is
// needed — and naive TrimRight would corrupt integral values ("10" -> "1",
// "0" -> ""), breaking le="10" bucket bounds and zero-valued samples.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// Scrape is one /metrics exposition over several registries — a server's and
// the database's it fronts. Their families render as one exposition sorted by
// name, as if they were one registry; a family name registered in two of them
// is an error, because one exposition cannot carry two families of one name.
type Scrape []*Registry

// WriteTo renders every family of every registry in the Prometheus text
// exposition format, families and series sorted for deterministic output.
// Scrape implements io.WriterTo.
func (sc Scrape) WriteTo(w io.Writer) (int64, error) {
	var fams []*family
	seen := map[string]bool{}
	for _, r := range sc {
		r.mu.RLock()
		for name, f := range r.families {
			if seen[name] {
				r.mu.RUnlock()
				return 0, fmt.Errorf("obs: metric %s is registered in two scraped registries", name)
			}
			seen[name] = true
			fams = append(fams, f)
		}
		r.mu.RUnlock()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var total int64
	pr := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	for _, f := range fams {
		if f.help != "" {
			if err := pr("# HELP %s %s\n", f.name, f.help); err != nil {
				return total, err
			}
		}
		if err := pr("# TYPE %s %s\n", f.name, f.kind); err != nil {
			return total, err
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]*series, 0, len(keys))
		fns := make([]func() float64, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
			fns = append(fns, f.series[k].fn)
		}
		f.mu.RUnlock()
		for si, s := range sers {
			switch f.kind {
			case kindCounter, kindGauge:
				if fn := fns[si]; fn != nil {
					if err := pr("%s%s %s\n", f.name, labelString(f.labels, s.labelValues), formatFloat(fn())); err != nil {
						return total, err
					}
					continue
				}
				if err := pr("%s%s %d\n", f.name, labelString(f.labels, s.labelValues), s.val.Load()); err != nil {
					return total, err
				}
			case kindHistogram:
				var cum int64
				for i, ub := range f.buckets {
					cum += s.bucketN[i].Load()
					if err := pr("%s_bucket%s %d\n", f.name,
						labelString(f.labels, s.labelValues, "le", formatFloat(ub)), cum); err != nil {
						return total, err
					}
				}
				if err := pr("%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelValues, "le", "+Inf"), s.obsCount.Load()); err != nil {
					return total, err
				}
				if err := pr("%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues),
					formatFloat(math.Float64frombits(s.sumBits.Load()))); err != nil {
					return total, err
				}
				if err := pr("%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues), s.obsCount.Load()); err != nil {
					return total, err
				}
			}
		}
	}
	return total, nil
}

// WriteTo renders the registry alone, as Scrape{r} does: how a caller outside
// this module, which cannot name Scrape, renders a database's Metrics().
func (r *Registry) WriteTo(w io.Writer) (int64, error) { return Scrape{r}.WriteTo(w) }

// Handler serves the scrape in the Prometheus text format — mount it at
// /metrics. A scrape that cannot render fails before its first byte: a 500.
func (sc Scrape) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if n, err := sc.WriteTo(w); err != nil && n == 0 {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
