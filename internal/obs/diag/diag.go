// Package diag is the engine's autonomous diagnosis subsystem: a detector
// framework that watches the observability layer's own signals (metrics,
// the serving layer's latency window, the Go runtime) for anomalies, and a
// flight recorder that — when a detector fires — captures a complete
// diagnostic bundle of what the process was doing at that moment. The point is operational: a transient
// p95 spike or a WAL fsync stall at 3am leaves behind a bundle an operator
// can read in the morning, instead of a request to reproduce the incident.
//
// The pieces compose bottom-up:
//
//   - Detector: one rule evaluated against its own trailing state — a
//     counter delta, a histogram-tail delta, a windowed quantile against a
//     trailing baseline. Firing yields typed Anomaly records.
//   - Monitor: runs the detectors on a 5 s ticker (tests call Poll), retains
//     a bounded anomaly ring for the console's /debug/anomalies page, and
//     hands each anomaly to a callback — in production, the Recorder's
//     debounced trigger.
//   - Recorder (bundle.go): captures bundles under a diagnostics directory
//     with bounded retention, debounced so an anomaly storm produces one
//     bundle, not hundreds.
//
// Everything is pull-cheap: detectors read instruments that already exist;
// the steady-state cost is a handful of atomic loads and one window sort per
// tick, and nothing on the request path.
package diag

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Severity grades an anomaly. Two levels are enough: warn means "look when
// convenient", critical means "a bundle was worth capturing".
const (
	SeverityWarn     = "warn"
	SeverityCritical = "critical"
)

// Anomaly is one typed detector firing — the substrate adaptive subsystems
// (and the console) consume. Value is the observed signal, Baseline the
// trailing baseline or configured bound it breached.
type Anomaly struct {
	Time     time.Time `json:"time"`
	Detector string    `json:"detector"`
	Severity string    `json:"severity"`
	Value    float64   `json:"value"`
	Baseline float64   `json:"baseline,omitempty"`
	Detail   string    `json:"detail"`
}

// Detector is one rule evaluator. Check is called from a single goroutine
// at a time (the monitor serializes ticker and Poll evaluations), so
// implementations keep trailing state without locking.
type Detector interface {
	Name() string
	Check(now time.Time) []Anomaly
}

// monitorInterval is the ticker period of Start's background evaluation.
const monitorInterval = 5 * time.Second

// MonitorConfig wires a Monitor. Zero values default sanely.
type MonitorConfig struct {
	// Ring bounds the retained anomaly records (default 128).
	Ring int
	// Now substitutes the clock (tests); nil uses time.Now.
	Now func() time.Time
	// OnAnomaly receives every fired anomaly — production wires it to
	// Recorder.TryCapture. Called from the evaluating goroutine.
	OnAnomaly func(Anomaly)
}

// Monitor runs detectors and retains their anomalies.
type Monitor struct {
	cfg       MonitorConfig
	detectors []Detector
	anomalies *obs.CounterVec // xsltdb_diag_anomalies_total

	// evalMu serializes detector evaluation between the ticker goroutine
	// and explicit Poll calls.
	evalMu sync.Mutex

	mu   sync.Mutex
	ring []Anomaly
	next uint64

	startOnce sync.Once
	closeOnce sync.Once
	quit      chan struct{}
	done      chan struct{}
}

// NewMonitor builds a monitor over the given detectors, counting the
// anomalies they fire on reg.
func NewMonitor(reg *obs.Registry, cfg MonitorConfig, detectors ...Detector) *Monitor {
	if cfg.Ring <= 0 {
		cfg.Ring = 128
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Monitor{
		cfg:       cfg,
		detectors: detectors,
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		anomalies: reg.NewCounterVec("xsltdb_diag_anomalies_total",
			"Anomalies fired, by detector.", "detector"),
	}
}

// Start launches the background ticker. Idempotent.
func (m *Monitor) Start() {
	if m == nil {
		return
	}
	m.startOnce.Do(func() { go m.loop() })
}

func (m *Monitor) loop() {
	defer close(m.done)
	t := time.NewTicker(monitorInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Poll()
		case <-m.quit:
			return
		}
	}
}

// Close stops the ticker. Idempotent; safe before Start.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.closeOnce.Do(func() {
		close(m.quit)
	})
	m.startOnce.Do(func() { close(m.done) }) // never started: nothing to wait for
	<-m.done
}

// Poll evaluates every detector once, records fired anomalies, and invokes
// the OnAnomaly callback for each. Safe to call concurrently; evaluations
// serialize.
func (m *Monitor) Poll() {
	if m == nil {
		return
	}
	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	now := m.cfg.Now()
	for _, d := range m.detectors {
		for _, a := range d.Check(now) {
			if a.Time.IsZero() {
				a.Time = now
			}
			if a.Detector == "" {
				a.Detector = d.Name()
			}
			if a.Severity == "" {
				a.Severity = SeverityWarn
			}
			m.record(a)
			m.anomalies.With(a.Detector).Inc()
			if m.cfg.OnAnomaly != nil {
				m.cfg.OnAnomaly(a)
			}
		}
	}
}

func (m *Monitor) record(a Anomaly) {
	m.mu.Lock()
	if len(m.ring) < m.cfg.Ring {
		m.ring = append(m.ring, a)
	} else {
		m.ring[m.next%uint64(m.cfg.Ring)] = a
	}
	m.next++
	m.mu.Unlock()
}

// Anomalies returns up to n retained anomalies, newest first (n <= 0
// returns all). Nil-safe.
func (m *Monitor) Anomalies(n int) []Anomaly {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	have := len(m.ring)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Anomaly, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, m.ring[(m.next-1-uint64(i))%uint64(m.cfg.Ring)])
	}
	return out
}

// AnomaliesPage is the console's /debug/anomalies payload.
type AnomaliesPage struct {
	Detectors []string  `json:"detectors"`
	Recent    []Anomaly `json:"recent"`
}

// Page snapshots the monitor for the console: the installed detector names
// and the most recent anomalies, newest first.
func (m *Monitor) Page(n int) AnomaliesPage {
	if m == nil {
		return AnomaliesPage{}
	}
	names := make([]string, 0, len(m.detectors))
	for _, d := range m.detectors {
		names = append(names, d.Name())
	}
	return AnomaliesPage{Detectors: names, Recent: m.Anomalies(n)}
}
