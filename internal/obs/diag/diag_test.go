package diag

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a manually-advanced clock for deterministic debounce tests.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// firingDetector fires one anomaly on every check.
type firingDetector struct{ fired int }

func (d *firingDetector) Name() string { return "always-fires" }
func (d *firingDetector) Check(now time.Time) []Anomaly {
	d.fired++
	return []Anomaly{{Severity: SeverityCritical, Value: float64(d.fired), Detail: "test"}}
}

// TestDebounceOneBundle is the core debounce contract: N threshold crossings
// inside one debounce window produce exactly one bundle; crossing the window
// boundary produces the next. Everything runs on a fake clock.
func TestDebounceOneBundle(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	rec, err := NewRecorder(reg, RecorderConfig{
		Dir: dir, Debounce: time.Minute, Now: clock.Now,
	}, Sources{})
	if err != nil {
		t.Fatal(err)
	}

	m := NewMonitor(reg, MonitorConfig{
		Now:       clock.Now,
		OnAnomaly: func(a Anomaly) { rec.TryCapture(a.Detector) },
	}, &firingDetector{})
	defer m.Close()

	// Five crossings, 5s apart, all inside the 1-minute debounce window.
	for i := 0; i < 5; i++ {
		m.Poll()
		clock.Advance(5 * time.Second)
	}
	if got := len(rec.Bundles()); got != 1 {
		t.Fatalf("bundles after 5 anomalies in debounce window = %d, want exactly 1", got)
	}
	if got := readCounter(t, reg, "xsltdb_diag_bundles_suppressed_total"); got != 4 {
		t.Errorf("suppressed = %v, want 4", got)
	}

	// Past the window the next anomaly captures again.
	clock.Advance(time.Minute)
	m.Poll()
	if got := len(rec.Bundles()); got != 2 {
		t.Fatalf("bundles after debounce window elapsed = %d, want 2", got)
	}

	// The monitor retained every anomaly regardless of bundle suppression.
	if got := len(m.Anomalies(0)); got != 6 {
		t.Errorf("retained anomalies = %d, want 6", got)
	}
	if got := readCounter(t, reg, "xsltdb_diag_anomalies_total"); got != 6 {
		t.Errorf("xsltdb_diag_anomalies_total = %v, want 6", got)
	}
	page := m.Page(3)
	if len(page.Detectors) != 1 || page.Detectors[0] != "always-fires" {
		t.Errorf("page detectors = %v", page.Detectors)
	}
	if len(page.Recent) != 3 || page.Recent[0].Value != 6 {
		t.Errorf("page recent = %+v, want newest-first with Value 6 on top", page.Recent)
	}
}

// TestBundleSections captures one bundle with every source wired and checks
// the sections exist, meta.json records them all ok, and the event excerpt
// is capped at MaxEvents.
func TestBundleSections(t *testing.T) {
	reg := obs.NewRegistry()
	reg.NewCounter("xsltdb_test_total", "test counter").Inc()
	dir := t.TempDir()
	rec, err := NewRecorder(obs.NewRegistry(), RecorderConfig{Dir: dir, MaxEvents: 3}, Sources{
		Metrics: obs.Scrape{reg},
		Events: func(n int) any {
			if n != 3 {
				t.Errorf("events source asked for %d events, want MaxEvents=3", n)
			}
			return []string{"e1", "e2", "e3"}
		},
		Runs:      func() any { return map[string]int{"recent": 1} },
		Plans:     func() any { return []string{"plan"} },
		WAL:       func() any { return map[string]int64{"appends": 7} },
		Anomalies: func() any { return []Anomaly{{Detector: "x"}} },
	})
	if err != nil {
		t.Fatal(err)
	}
	bdir, err := rec.Capture("unit test/Trigger")
	if err != nil {
		t.Fatal(err)
	}
	// The trigger label is sanitized into the directory name.
	if want := "unit-test-trigger"; filepath.Base(bdir)[len(filepath.Base(bdir))-len(want):] != want {
		t.Errorf("bundle dir %q does not end in sanitized trigger %q", bdir, want)
	}
	want := []string{
		"meta.json", "goroutines.txt", "heap.pprof", "metrics.prom",
		"events.json", "runs.json", "plans.json", "wal.json",
		"anomalies.json",
	}
	for _, f := range want {
		if _, err := os.Stat(filepath.Join(bdir, f)); err != nil {
			t.Errorf("bundle missing section %s: %v", f, err)
		}
	}
	var meta struct {
		Trigger        string            `json:"trigger"`
		GoVersion      string            `json:"go_version"`
		GOMAXPROCS     int               `json:"gomaxprocs"`
		Goroutines     int               `json:"goroutines"`
		HeapAllocBytes uint64            `json:"heap_alloc_bytes"`
		HeapObjects    uint64            `json:"heap_objects"`
		Sections       map[string]string `json:"sections"`
	}
	b, err := os.ReadFile(filepath.Join(bdir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Trigger != "unit test/Trigger" {
		t.Errorf("meta trigger = %q", meta.Trigger)
	}
	// meta.json says which build ran and how loaded its runtime was.
	if meta.GoVersion == "" || meta.GOMAXPROCS < 1 || meta.Goroutines < 1 ||
		meta.HeapAllocBytes == 0 || meta.HeapObjects == 0 {
		t.Errorf("meta.json runtime state incomplete: %s", b)
	}
	for _, f := range want {
		if f == "meta.json" {
			continue // written last; records the others
		}
		if meta.Sections[f] != "ok" {
			t.Errorf("meta.json section %s = %q, want ok", f, meta.Sections[f])
		}
	}
	// metrics.prom is a real exposition of the provided registry.
	prom, _ := os.ReadFile(filepath.Join(bdir, "metrics.prom"))
	if !contains(string(prom), "xsltdb_test_total 1") {
		t.Errorf("metrics.prom missing test counter:\n%s", prom)
	}
	// No stray tmp dirs left behind.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name()[0] == '.' {
			t.Errorf("leftover temp entry %s", e.Name())
		}
	}
}

// TestRetention captures past MaxBundles and checks the oldest are pruned.
func TestRetention(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	rec, err := NewRecorder(obs.NewRegistry(), RecorderConfig{Dir: dir, MaxBundles: 3, Now: clock.Now}, Sources{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rec.Capture("r"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second) // distinct timestamped names
	}
	bundles := rec.Bundles()
	if len(bundles) != 3 {
		t.Fatalf("retained %d bundles, want 3", len(bundles))
	}
	// Newest first, and the two oldest are gone.
	if bundles[0].Name < bundles[2].Name {
		t.Errorf("Bundles() not newest-first: %v", bundles)
	}
}

// TestCounterDeltaDetector: primes silently, fires on advance, quiet when flat.
func TestCounterDeltaDetector(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.NewCounter("xsltdb_trips_total", "t")
	c.Inc() // pre-existing total at attach time
	d := &CounterDeltaDetector{DetectorName: "trips", Registry: reg, Metric: "xsltdb_trips_total"}
	now := time.Now()
	if got := d.Check(now); got != nil {
		t.Fatalf("first check (priming) fired: %v", got)
	}
	if got := d.Check(now); got != nil {
		t.Fatalf("flat counter fired: %v", got)
	}
	c.Inc()
	c.Inc()
	got := d.Check(now)
	if len(got) != 1 || got[0].Value != 2 {
		t.Fatalf("delta check = %+v, want one anomaly with Value 2", got)
	}
	if got := d.Check(now); got != nil {
		t.Fatalf("post-delta flat check fired: %v", got)
	}
}

// TestGaugeBoundDetector: fires on crossing, holds while stuck, rearms below
// Bound/2.
func TestGaugeBoundDetector(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.NewGauge("xsltdb_age_seconds", "t")
	d := &GaugeBoundDetector{DetectorName: "age", Registry: reg, Metric: "xsltdb_age_seconds", Bound: 60}
	now := time.Now()
	g.Set(30)
	if got := d.Check(now); got != nil {
		t.Fatalf("under bound fired: %v", got)
	}
	g.Set(90)
	if got := d.Check(now); len(got) != 1 {
		t.Fatalf("crossing = %v, want one anomaly", got)
	}
	g.Set(95)
	if got := d.Check(now); got != nil {
		t.Fatalf("stuck over bound re-fired: %v", got)
	}
	g.Set(40) // below bound but above rearm (30): still armed-off
	if got := d.Check(now); got != nil {
		t.Fatalf("above rearm fired: %v", got)
	}
	g.Set(10) // below rearm: resets
	if got := d.Check(now); got != nil {
		t.Fatalf("rearm check fired: %v", got)
	}
	g.Set(70)
	if got := d.Check(now); len(got) != 1 {
		t.Fatalf("second crossing after rearm = %v, want one anomaly", got)
	}
}

// TestHistogramTailDetector: only new observations above the threshold fire.
func TestHistogramTailDetector(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.NewHistogram("xsltdb_fsync_seconds", "t", []float64{0.01, 0.1, 1})
	d := &HistogramTailDetector{DetectorName: "stall", Registry: reg,
		Metric: "xsltdb_fsync_seconds", Threshold: 0.1}
	now := time.Now()
	h.Observe(0.5) // pre-existing tail before priming
	if got := d.Check(now); got != nil {
		t.Fatalf("priming fired: %v", got)
	}
	h.Observe(0.01)
	h.Observe(0.05)
	if got := d.Check(now); got != nil {
		t.Fatalf("fast observations fired: %v", got)
	}
	h.Observe(0.3)
	h.Observe(0.7)
	got := d.Check(now)
	if len(got) != 1 || got[0].Value != 2 {
		t.Fatalf("stall check = %+v, want one anomaly with Value 2", got)
	}
}

// TestLatencySpikeDetector: a window too short for a p95 (it reads 0) and a
// missing p95 func never fire; the baseline primes from healthy readings, a spike
// over Factor x baseline fires, healthy readings keep absorbing.
func TestLatencySpikeDetector(t *testing.T) {
	now := time.Now()
	if got := (&LatencySpikeDetector{DetectorName: "p95"}).Check(now); got != nil {
		t.Fatalf("detector without a P95 fired: %v", got)
	}
	var p95 time.Duration
	d := &LatencySpikeDetector{DetectorName: "p95", p95: func() time.Duration { return p95 }}
	if got := d.Check(now); got != nil {
		t.Fatalf("empty window fired: %v", got)
	}
	p95 = 2 * time.Millisecond
	if got := d.Check(now); got != nil { // primes baseline at 2ms
		t.Fatalf("baseline priming fired: %v", got)
	}
	if got := d.Check(now); got != nil {
		t.Fatalf("healthy window fired: %v", got)
	}
	p95 = 80 * time.Millisecond // 40x baseline, over the 10ms floor
	got := d.Check(now)
	if len(got) != 1 || got[0].Severity != SeverityCritical {
		t.Fatalf("spike check = %+v, want one critical anomaly", got)
	}
	if got[0].Baseline >= got[0].Value {
		t.Errorf("anomaly baseline %v >= value %v", got[0].Baseline, got[0].Value)
	}
}

// TestGoroutineSpikeDetector uses an injected counter to avoid depending on
// the real scheduler.
func TestGoroutineSpikeDetector(t *testing.T) {
	count := 100.0
	d := &GoroutineSpikeDetector{DetectorName: "g", Count: func() float64 { return count }}
	now := time.Now()
	if got := d.Check(now); got != nil {
		t.Fatalf("priming fired: %v", got)
	}
	count = 120
	if got := d.Check(now); got != nil {
		t.Fatalf("mild growth fired: %v", got)
	}
	count = 5000
	if got := d.Check(now); len(got) != 1 {
		t.Fatalf("spike = %v, want one anomaly", got)
	}
}

// TestStandardDetectors checks the stock set wires the expected rules, each
// reading the registry its metric lives on: xsltd_* the server's, xsltdb_*
// the engine's.
func TestStandardDetectors(t *testing.T) {
	engine, server := obs.NewRegistry(), obs.NewRegistry()
	ds := StandardDetectors(engine, server, DetectorOptions{})
	want := map[string]bool{
		"latency-spike": true, "slo-burn": true, "degradation": true,
		"wal-fsync-stall": true, "snapshot-pin-age": true,
		"event-drops": true, "goroutine-spike": true,
	}
	if len(ds) != len(want) {
		t.Fatalf("StandardDetectors returned %d detectors, want %d", len(ds), len(want))
	}
	for _, d := range ds {
		if !want[d.Name()] {
			t.Errorf("unexpected detector %q", d.Name())
		}
		var reg *obs.Registry
		var metric string
		switch d := d.(type) {
		case *CounterDeltaDetector:
			reg, metric = d.Registry, d.Metric
		case *GaugeBoundDetector:
			reg, metric = d.Registry, d.Metric
		case *HistogramTailDetector:
			reg, metric = d.Registry, d.Metric
		default:
			continue
		}
		home := engine
		if strings.HasPrefix(metric, "xsltd_") {
			home = server
		}
		if reg != home {
			t.Errorf("%s reads %s from the wrong registry", d.Name(), metric)
		}
	}
}

func readCounter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var total float64
	for _, sv := range reg.SeriesValues(name) {
		total += sv.Value
	}
	return total
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
