package serve

// The diagnostics smoke tests (`make diag-smoke`, part of `make verify`):
// boot a server with the flight recorder armed, induce the two incident
// shapes the detector set exists for — a WAL fsync stall (via a faultpoint
// sleep at the fsync site) and a latency-spike overload (slow requests in
// the admission window) — and assert each produces exactly one bundle
// inside the debounce window, containing every section an operator needs.
// The monitor's ticker is 5s; these tests evaluate with Poll.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/obs/diag"
	"repro/internal/sqlxml"
)

// bundleSections is what every complete bundle must contain: profiles,
// metrics exposition, recent events, run/plan state, WAL state, and the
// anomaly ring.
var bundleSections = []string{
	"meta.json", "goroutines.txt", "heap.pprof", "metrics.prom",
	"events.json", "runs.json", "plans.json", "wal.json", "anomalies.json",
}

func assertBundle(t *testing.T, diagDir string, wantTrigger string) {
	t.Helper()
	entries, err := os.ReadDir(diagDir)
	if err != nil {
		t.Fatal(err)
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			bundles = append(bundles, e.Name())
		}
	}
	if len(bundles) != 1 {
		t.Fatalf("diag dir holds %d bundles %v, want exactly 1", len(bundles), bundles)
	}
	if !strings.HasSuffix(bundles[0], wantTrigger) {
		t.Errorf("bundle %q not triggered by %q", bundles[0], wantTrigger)
	}
	bdir := filepath.Join(diagDir, bundles[0])
	for _, f := range bundleSections {
		fi, err := os.Stat(filepath.Join(bdir, f))
		if err != nil {
			t.Errorf("bundle missing section %s: %v", f, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("bundle section %s is empty", f)
		}
	}
	// The goroutine profile is the debug=2 text dump; the metrics exposition
	// carries the engine's instruments.
	g, _ := os.ReadFile(filepath.Join(bdir, "goroutines.txt"))
	if !strings.Contains(string(g), "goroutine") {
		t.Errorf("goroutines.txt does not look like a goroutine dump")
	}
	prom, _ := os.ReadFile(filepath.Join(bdir, "metrics.prom"))
	if !strings.Contains(string(prom), "xsltdb_wal_fsync_seconds") {
		t.Errorf("metrics.prom missing WAL fsync histogram")
	}
}

// assertAnomaliesMetered: the server's xsltdb_diag_anomalies_total, summed
// over its detectors, is exactly the anomalies its monitor recorded.
func assertAnomaliesMetered(t *testing.T, s *Server) {
	t.Helper()
	var total float64
	for _, sv := range s.metrics.reg.SeriesValues("xsltdb_diag_anomalies_total") {
		total += sv.Value
	}
	if ring := len(s.Monitor().Anomalies(0)); total != float64(ring) {
		t.Errorf("xsltdb_diag_anomalies_total = %v, the monitor recorded %d anomalies", total, ring)
	}
}

// latencySpikes counts the latency-spike anomalies the monitor recorded.
func latencySpikes(s *Server) int {
	n := 0
	for _, a := range s.Monitor().Anomalies(0) {
		if a.Detector == "latency-spike" {
			n++
		}
	}
	return n
}

// TestDiagSmokeWALStall boots a durable database with the recorder armed,
// induces a WAL fsync stall through the wal.fsync faultpoint, and asserts
// the wal-fsync-stall detector captures exactly one complete bundle. It stays
// serial: the faultpoint it arms is process-global and would stall a
// parallel test's WAL too.
func TestDiagSmokeWALStall(t *testing.T) {
	defer faultpoint.Reset()
	db, err := xsltdb.Open(xsltdb.WithDir(filepath.Join(t.TempDir(), "wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := sqlxml.SetupDeptEmp(db.Rel()); err != nil {
		t.Fatal(err)
	}

	diagDir := t.TempDir()
	s, err := New(Config{
		DB: db, EnableEvents: true,
		DiagDir: diagDir, DiagDebounce: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// First poll primes every trailing-state detector against the fsyncs
	// setup already issued.
	s.Monitor().Poll()

	// Induce the stall: the next logged mutation's fsync sleeps 150ms —
	// over the 100ms stall threshold, inside the 100ms..1s histogram bucket.
	faultpoint.EnableSleep("wal.fsync", 150*time.Millisecond)
	if err := db.Insert("dept", int64(999), "STALLED", "NOWHERE"); err != nil {
		t.Fatal(err)
	}
	faultpoint.Disable("wal.fsync")

	s.Monitor().Poll()
	assertBundle(t, diagDir, "wal-fsync-stall")

	// Repeated evaluation inside the debounce window captures nothing new,
	// even though another stall lands in the histogram.
	faultpoint.EnableSleep("wal.fsync", 150*time.Millisecond)
	if err := db.Insert("dept", int64(998), "STALLED2", "NOWHERE"); err != nil {
		t.Fatal(err)
	}
	faultpoint.Disable("wal.fsync")
	s.Monitor().Poll()
	assertBundle(t, diagDir, "wal-fsync-stall") // still exactly one

	// The anomaly surfaced on the console page too.
	page := s.Monitor().Page(50)
	found := false
	for _, a := range page.Recent {
		if a.Detector == "wal-fsync-stall" && a.Severity == diag.SeverityCritical {
			found = true
		}
	}
	if !found {
		t.Errorf("wal-fsync-stall anomaly not in monitor page: %+v", page.Recent)
	}
	assertAnomaliesMetered(t, s)
}

// TestDiagSmokeLatencySpike: one window holds the p95 that sheds and the one
// the latency-spike detector reads. Healthy 2ms latencies prime the
// detector's baseline; an overload 40x slower makes /readyz report shedding
// and captures exactly one bundle inside the debounce window.
func TestDiagSmokeLatencySpike(t *testing.T) {
	t.Parallel()
	diagDir := t.TempDir()
	_, s := newDeptServer(t, Config{
		TargetP95: 10 * time.Millisecond,
		DiagDir:   diagDir, DiagDebounce: time.Minute,
	})
	defer s.Close()
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	m := s.Monitor()
	for i := 0; i < 64; i++ {
		s.window.record(2 * time.Millisecond)
	}
	m.Poll()
	if got := len(m.Anomalies(0)); got != 0 {
		t.Fatalf("healthy traffic fired %d anomalies: %+v", got, m.Anomalies(0))
	}
	if resp, _ := get(t, ts, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz under healthy traffic = %d, want 200", resp.StatusCode)
	}
	// Overload: 80ms requests push the window p95 far over 3x baseline and
	// over the 10ms target, which is also the detector's floor.
	for i := 0; i < 256; i++ {
		s.window.record(80 * time.Millisecond)
	}
	m.Poll()
	if resp, body := get(t, ts, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "shedding") {
		t.Fatalf("readyz under overload = %d %q, want 503 shedding", resp.StatusCode, body)
	}
	if n := latencySpikes(s); n != 1 {
		t.Fatalf("latency-spike anomalies = %d, want 1: %+v", n, m.Anomalies(0))
	}
	assertBundle(t, diagDir, "latency-spike")
	assertAnomaliesMetered(t, s)
}

// TestDiagSmokeRecorderAloneHasAFeed: DiagDir is the only thing a caller has
// to set for the latency-spike rule to see real requests. Healthy cache hits
// set the baseline, then requests held 15ms at the exec gate make one anomaly
// and one bundle.
func TestDiagSmokeRecorderAloneHasAFeed(t *testing.T) {
	t.Parallel()
	diagDir := t.TempDir()
	_, s := newDeptServer(t, Config{DiagDir: diagDir, DiagDebounce: time.Minute})
	defer s.Close()
	var slow atomic.Bool
	s.execGate = func() {
		if slow.Load() {
			time.Sleep(15 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 32; i++ {
		get(t, ts, "/v1/transform/paper", nil)
	}
	s.Monitor().Poll() // the first reading becomes the baseline
	slow.Store(true)
	for i := 0; i < 16; i++ {
		get(t, ts, "/v1/transform/paper?p.i="+strconv.Itoa(i), nil) // distinct keys: every one runs
	}
	s.Monitor().Poll()

	if n := latencySpikes(s); n != 1 {
		t.Fatalf("latency-spike anomalies = %d, want 1: %+v", n, s.Monitor().Anomalies(0))
	}
	assertBundle(t, diagDir, "latency-spike")
	assertAnomaliesMetered(t, s)
}

// blockingSink holds the event bus's dispatcher in Emit until release is
// closed.
type blockingSink struct{ release chan struct{} }

func (b blockingSink) Emit(obs.Event) { <-b.release }

// TestDiagSmokeLatencySpikeWithBlockedBus: the latency-spike rule reads the
// admission window, not the event bus, so a sink that wedges the bus's
// dispatcher does not blind it — one anomaly, one bundle.
func TestDiagSmokeLatencySpikeWithBlockedBus(t *testing.T) {
	t.Parallel()
	diagDir := t.TempDir()
	sink := blockingSink{release: make(chan struct{})}
	_, s := newDeptServer(t, Config{
		EventSinks: []obs.EventSink{sink},
		DiagDir:    diagDir, DiagDebounce: time.Minute,
	})
	defer s.Close()
	defer close(sink.release) // runs before Close, which drains the bus
	var slow atomic.Bool
	s.execGate = func() {
		if slow.Load() {
			time.Sleep(15 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 32; i++ {
		get(t, ts, "/v1/transform/paper", nil)
	}
	s.Monitor().Poll()
	slow.Store(true)
	for i := 0; i < 16; i++ {
		get(t, ts, "/v1/transform/paper?p.i="+strconv.Itoa(i), nil)
	}
	s.Monitor().Poll()

	if n := latencySpikes(s); n != 1 {
		t.Fatalf("latency-spike anomalies = %d with the bus blocked, want 1: %+v", n, s.Monitor().Anomalies(0))
	}
	assertBundle(t, diagDir, "latency-spike")
	assertAnomaliesMetered(t, s)
}

// TestDiagConsoleEndpoints drives /debug/anomalies and /debug/bundle over
// HTTP: GET lists, POST captures on demand, and the bundle appears in the
// next GET.
func TestDiagConsoleEndpoints(t *testing.T) {
	t.Parallel()
	diagDir := t.TempDir()
	_, s := newDeptServer(t, Config{EnableEvents: true, DiagDir: diagDir})
	defer s.Close()
	ts := httptest.NewServer(s.Console())
	defer ts.Close()

	resp, body := get(t, ts, "/debug/anomalies", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/anomalies status = %d", resp.StatusCode)
	}
	var page diag.AnomaliesPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("/debug/anomalies not an AnomaliesPage: %v\n%s", err, body)
	}
	if len(page.Detectors) != 7 {
		t.Errorf("detectors = %v, want the 7 standard rules", page.Detectors)
	}

	postResp, err := ts.Client().Post(ts.URL+"/debug/bundle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/bundle status = %d", postResp.StatusCode)
	}
	assertBundle(t, diagDir, "manual")

	resp, body = get(t, ts, "/debug/bundle", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "bundle-") {
		t.Fatalf("GET /debug/bundle = %d %q", resp.StatusCode, body)
	}
}

// TestEventsConsoleFilters drives the console /events page's ?tenant= and
// ?trace= filters end to end: requests from two tenants, then filtered pulls.
func TestEventsConsoleFilters(t *testing.T) {
	t.Parallel()
	d, s := newDeptServer(t, Config{
		EnableEvents: true,
		APIKeys:      map[string]string{"ka": "acme", "kb": "beta"},
	})
	defer s.Close()
	d.RegisterTenant("acme", xsltdb.TenantLimits{})
	d.RegisterTenant("beta", xsltdb.TenantLimits{})
	api := httptest.NewServer(s.Handler())
	defer api.Close()
	console := httptest.NewServer(s.Console())
	defer console.Close()

	var betaTrace string
	for i := 0; i < 3; i++ {
		resp, _ := get(t, api, "/v1/transform/paper", map[string]string{"X-Api-Key": "ka"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("acme request status = %d", resp.StatusCode)
		}
	}
	resp, _ := get(t, api, "/v1/transform/paper", map[string]string{"X-Api-Key": "kb"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta request status = %d", resp.StatusCode)
	}
	betaTrace = resp.Header.Get("X-Request-Id")
	s.EventBus().Flush()

	decode := func(body string) EventsPage {
		t.Helper()
		var page EventsPage
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatalf("events page does not parse: %v\n%s", err, body)
		}
		return page
	}

	_, body := get(t, console, "/events?n=50", nil)
	if got := len(decode(body).Recent); got != 4 {
		t.Fatalf("unfiltered events = %d, want 4", got)
	}
	_, body = get(t, console, "/events?n=50&tenant=acme", nil)
	page := decode(body)
	if len(page.Recent) != 3 {
		t.Fatalf("tenant=acme events = %d, want 3", len(page.Recent))
	}
	for _, ev := range page.Recent {
		if ev.Tenant != "acme" {
			t.Errorf("tenant filter leaked event %+v", ev)
		}
	}
	_, body = get(t, console, "/events?n=50&trace="+betaTrace, nil)
	page = decode(body)
	if len(page.Recent) != 1 || page.Recent[0].Tenant != "beta" {
		t.Fatalf("trace filter = %+v, want beta's one event", page.Recent)
	}
	_, body = get(t, console, "/events?n=50&tenant=acme&trace="+betaTrace, nil)
	if got := len(decode(body).Recent); got != 0 {
		t.Fatalf("conjunctive filter matched %d events, want 0", got)
	}
}

// TestReadyz: /readyz is 503 until MarkReady, 200 after, 503 again while the
// server sheds on latency — all while /healthz stays a pure liveness probe.
func TestReadyz(t *testing.T) {
	_, s := newDeptServer(t, Config{TargetP95: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := get(t, ts, "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before ready = %d, want 200", resp.StatusCode)
	}
	resp, body := get(t, ts, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("readyz before MarkReady = %d %q, want 503 starting", resp.StatusCode, body)
	}

	s.MarkReady()
	resp, _ = get(t, ts, "/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after MarkReady = %d, want 200", resp.StatusCode)
	}

	// Fill the latency window past its 8-sample floor; every request is
	// slower than the 1ns target, so the server is now shedding — readiness
	// drops while liveness holds.
	for i := 0; i < 10; i++ {
		get(t, ts, "/v1/transform/paper", nil)
	}
	resp, body = get(t, ts, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "shedding") {
		t.Fatalf("readyz while shedding = %d %q, want 503 shedding", resp.StatusCode, body)
	}
	resp, _ = get(t, ts, "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while shedding = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestMetricNamingLint is the exposition-hygiene gate, run over a server's
// scrape with the recorder armed so every layer's instruments (engine, WAL,
// serving, diagnostics) are in it: snake_case names under the xsltdb_/xsltd_
// prefix, non-empty HELP text, counters ending in _total.
func TestMetricNamingLint(t *testing.T) {
	t.Parallel()
	_, s := newDeptServer(t, Config{DiagDir: t.TempDir()})
	defer s.Close()
	var scrape strings.Builder
	if _, err := s.scrape().WriteTo(&scrape); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^(xsltdb|xsltd)_[a-z0-9]+(_[a-z0-9]+)*$`)
	help := map[string]string{}
	families := 0
	for _, line := range strings.Split(scrape.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		}
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		families++
		name, kind, _ := strings.Cut(rest, " ")
		if !nameRE.MatchString(name) {
			t.Errorf("metric %q is not snake_case under the xsltdb_/xsltd_ prefix", name)
		}
		if strings.TrimSpace(help[name]) == "" {
			t.Errorf("metric %q has no HELP text", name)
		}
		if kind == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %q does not end in _total", name)
		}
	}
	if families < 20 {
		t.Fatalf("only %d families in the scrape — are all layers registered?", families)
	}
}
