package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/sqlxml"
	"repro/internal/xslt"
)

// newDeptServer builds a Server over the paper's dept/emp database with the
// paper stylesheet registered as "paper".
func newDeptServer(t testing.TB, cfg Config) (*xsltdb.Database, *Server) {
	t.Helper()
	d := xsltdb.NewDatabase()
	if err := sqlxml.SetupDeptEmp(d.Rel()); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		t.Fatal(err)
	}
	cfg.DB = d
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTransform("paper", "dept_emp", xslt.PaperStylesheet); err != nil {
		t.Fatal(err)
	}
	return d, s
}

func get(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestServeAndResultCache: a transform request returns the view's rows; an
// identical follow-up is a cache hit; an insert or a ReplaceXMLView makes
// the cached result unreachable and the next request recomputes.
func TestServeAndResultCache(t *testing.T) {
	d, s := newDeptServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/transform/paper", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Xsltd-Cache") != "miss" {
		t.Fatalf("first request cache header = %q", resp.Header.Get("X-Xsltd-Cache"))
	}
	if !strings.Contains(body, "HIGHLY PAID DEPT EMPLOYEES") {
		t.Fatalf("body does not look like the paper output: %q", body)
	}
	rows := strings.Count(body, "\n")

	resp, body2 := get(t, ts, "/v1/transform/paper", nil)
	if resp.Header.Get("X-Xsltd-Cache") != "hit" {
		t.Fatalf("second request cache header = %q", resp.Header.Get("X-Xsltd-Cache"))
	}
	if body2 != body {
		t.Fatal("cache hit returned different rows")
	}
	if st := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit", st)
	}

	// DML invalidates: a new dept row is a new driving row.
	if err := d.Insert("dept", int64(99), "GROWTH", "REMOTE"); err != nil {
		t.Fatal(err)
	}
	resp, body3 := get(t, ts, "/v1/transform/paper", nil)
	if resp.Header.Get("X-Xsltd-Cache") != "miss" {
		t.Fatal("insert must invalidate the cached result")
	}
	if got := strings.Count(body3, "\n"); got != rows+1 {
		t.Fatalf("rows after insert = %d, want %d", got, rows+1)
	}

	// DDL invalidates: ReplaceXMLView bumps the view version.
	evolved := &xsltdb.ViewDef{
		Name:  "dept_emp",
		Table: "dept",
		Body: &xsltdb.XMLElement{Name: "dept", Children: []xsltdb.XMLExpr{
			&xsltdb.XMLElement{Name: "dname", Children: []xsltdb.XMLExpr{&xsltdb.XMLColumn{Name: "dname"}}},
		}},
	}
	if err := d.ReplaceXMLView(evolved); err != nil {
		t.Fatal(err)
	}
	resp, body4 := get(t, ts, "/v1/transform/paper", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replace status = %d body %q", resp.StatusCode, body4)
	}
	if resp.Header.Get("X-Xsltd-Cache") != "miss" {
		t.Fatal("ReplaceXMLView must invalidate the cached result")
	}
	if body4 == body3 {
		t.Fatal("post-replace response identical to pre-replace")
	}
}

// TestParamsAndWhere: p.<name>= and where= query parameters reach the run
// as typed WithParam/WithWhere options — integer-looking values bind as
// int64 so a predicate on an int column actually matches (the CLI's
// convention) — and distinct bindings never share a cache entry.
func TestParamsAndWhere(t *testing.T) {
	_, s := newDeptServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Dept 40 is the one with an above-threshold employee (SMITH, 4900).
	resp, body := get(t, ts, "/v1/transform/paper?p.d=40&where=deptno+%3D+%24d", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered status = %d body %q", resp.StatusCode, body)
	}
	if !strings.Contains(body, "OPERATIONS") || !strings.Contains(body, "SMITH") {
		t.Fatalf("deptno = 40 filter lost the dept-40 rows: %q", body)
	}
	if strings.Contains(body, "ACCOUNTING") {
		t.Fatalf("deptno = 40 filter leaked dept 10: %q", body)
	}

	// Rebinding the same compiled plan flips the output to dept 10.
	resp, body = get(t, ts, "/v1/transform/paper?p.d=10&where=deptno+%3D+%24d", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deptno = 10 status = %d body %q", resp.StatusCode, body)
	}
	if !strings.Contains(body, "ACCOUNTING") || strings.Contains(body, "OPERATIONS") {
		t.Fatalf("deptno = 10 filter returned the wrong department: %q", body)
	}
	if resp.Header.Get("X-Xsltd-Cache") != "miss" {
		t.Fatal("different binding must not share the d=40 cache entry")
	}

	// Error surface: unknown query params, bad predicates, and unbound
	// parameters are client errors, not 500s.
	for _, bad := range []string{
		"/v1/transform/paper?bogus=1",
		"/v1/transform/paper?where=nosuchcol+%3D+1",
		"/v1/transform/paper?where=deptno+%3D+%24missing",
	} {
		resp, body = get(t, ts, bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d body %q, want 400", bad, resp.StatusCode, body)
		}
	}
}

// collidingRequests are pairs of different requests whose parameters once
// folded into the same cache key: a value or a predicate that spells out the
// old signature's separators. The second of each pair is a client error.
var collidingRequests = [][2]string{
	{"where=deptno+%3E%3D+10&where=deptno+%3C+30", "where=deptno+%3E%3D+10%3Bw%3Adeptno+%3C+30"},
	{"p.hi=30&p.lo=10&where=deptno+%3E%3D+%24lo&where=deptno+%3C+%24hi",
		"p.hi=30%3Bp%3Alo%3D10&where=deptno+%3E%3D+%24lo&where=deptno+%3C+%24hi"},
}

// TestCacheKeySeparatesRequests: a request whose value forges another
// request's parameter list must not be answered from that request's cache
// entry — it gets the 400 it gets on a cold cache.
func TestCacheKeySeparatesRequests(t *testing.T) {
	_, s := newDeptServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, pair := range collidingRequests {
		good, forged := "/v1/transform/paper?"+pair[0], "/v1/transform/paper?"+pair[1]
		if resp, body := get(t, ts, good, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d body %q", good, resp.StatusCode, body)
		}
		resp, body := get(t, ts, forged, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d (cache %q) body %q, want 400: it shared the cache entry of %s",
				forged, resp.StatusCode, resp.Header.Get("X-Xsltd-Cache"), body, good)
		}
	}
}

// TestCoalescing: N concurrent identical requests execute the transform
// exactly once. The exec gate holds the leader just before its Run until
// every other request has observably joined the in-flight call, so the
// assertion is deterministic, not timing-dependent.
func TestCoalescing(t *testing.T) {
	const n = 8
	_, s := newDeptServer(t, Config{})
	gateReached := make(chan struct{}, 1)
	releaseGate := make(chan struct{})
	var gateCalls atomic.Int64
	s.execGate = func() {
		gateCalls.Add(1)
		gateReached <- struct{}{}
		<-releaseGate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type reply struct {
		status    int
		body      string
		coalesced bool
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, body := get(t, ts, "/v1/transform/paper", nil)
			replies <- reply{resp.StatusCode, body, resp.Header.Get("X-Xsltd-Coalesced") == "1"}
		}()
	}

	<-gateReached // the leader is at the gate, holding the flight entry
	s.mu.RLock()
	def := s.transforms["paper"]
	s.mu.RUnlock()
	key := execKey(def, s.db.ViewVersion(def.view), s.db.Rel().CommitSeq(), "")
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.flightMu.Lock()
		c := s.flight[key]
		joined := int64(0)
		if c != nil {
			joined = c.shared.Load()
		}
		s.flightMu.Unlock()
		if joined == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers joined the flight", joined, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(releaseGate)

	var followers int
	var first string
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("status = %d body %q", r.status, r.body)
		}
		if first == "" {
			first = r.body
		} else if r.body != first {
			t.Fatal("coalesced responses differ")
		}
		if r.coalesced {
			followers++
		}
	}
	if gateCalls.Load() != 1 {
		t.Fatalf("executions = %d, want exactly 1", gateCalls.Load())
	}
	if followers != n-1 {
		t.Fatalf("followers = %d, want %d", followers, n-1)
	}
}

// TestTenantQuotaShed: a tenant at its MaxConcurrent gets 429 + Retry-After
// for additional work while another tenant keeps being served, and the
// in-flight request completes normally.
func TestTenantQuotaShed(t *testing.T) {
	d, s := newDeptServer(t, Config{
		APIKeys: map[string]string{"key-a": "alpha", "key-b": "beta"},
	})
	if err := d.RegisterTenant("alpha", xsltdb.TenantLimits{MaxConcurrent: 1}); err != nil {
		t.Fatal(err)
	}
	gateReached := make(chan struct{}, 1)
	releaseGate := make(chan struct{})
	var firstExec atomic.Bool
	s.execGate = func() {
		if firstExec.CompareAndSwap(false, true) { // only the first execution blocks
			gateReached <- struct{}{}
			<-releaseGate
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan reply1, 1)
	go func() {
		resp, body := get(t, ts, "/v1/transform/paper?p.i=0", map[string]string{"X-Api-Key": "key-a"})
		done <- reply1{resp.StatusCode, body}
	}()
	<-gateReached // alpha's only slot is now occupied

	resp, body := get(t, ts, "/v1/transform/paper?p.i=1", map[string]string{"X-Api-Key": "key-a"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}

	resp, body = get(t, ts, "/v1/transform/paper?p.i=1", map[string]string{"X-Api-Key": "key-b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d body %q", resp.StatusCode, body)
	}

	close(releaseGate)
	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request finished %d body %q", r.status, r.body)
	}

	state := s.TenantsState()
	var alpha *TenantInfo
	for i := range state {
		if state[i].Name == "alpha" {
			alpha = &state[i]
		}
	}
	if alpha == nil || alpha.Shed != 1 || alpha.Served != 1 {
		t.Fatalf("alpha state = %+v, want 1 shed 1 served", alpha)
	}
}

type reply1 struct {
	status int
	body   string
}

// TestTenantsShareOnePlan: tenants with different limits run one cached
// plan — registration compiles it once and no tenant compiles again — while
// each tenant's budget still applies to its own runs only.
func TestTenantsShareOnePlan(t *testing.T) {
	d := xsltdb.NewDatabase()
	if err := sqlxml.SetupDeptEmp(d.Rel()); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterTenant("alpha", xsltdb.TenantLimits{MaxRows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterTenant("beta", xsltdb.TenantLimits{MaxRows: 100}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: d, APIKeys: map[string]string{"key-a": "alpha", "key-b": "beta"}})
	if err != nil {
		t.Fatal(err)
	}
	missesBefore := d.PlanCacheStats().CacheMisses
	if err := s.RegisterTransform("paper", "dept_emp", xslt.PaperStylesheet); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// alpha first: a failed run is never cached, so beta runs too.
	if resp, body := get(t, ts, "/v1/transform/paper", map[string]string{"X-Api-Key": "key-a"}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("alpha (MaxRows 1) status = %d body %q, want 413", resp.StatusCode, body)
	}
	if resp, body := get(t, ts, "/v1/transform/paper", map[string]string{"X-Api-Key": "key-b"}); resp.StatusCode != http.StatusOK || strings.Count(body, "\n") != 2 {
		t.Fatalf("beta (MaxRows 100) status = %d body %q, want both rows", resp.StatusCode, body)
	}
	if grown := d.PlanCacheStats().CacheMisses - missesBefore; grown != 1 {
		t.Fatalf("plan-cache misses grew by %d over registration and two tenants, want 1", grown)
	}
}

// TestAuth: with API keys configured, a missing or unknown key is 401.
func TestAuth(t *testing.T) {
	_, s := newDeptServer(t, Config{APIKeys: map[string]string{"k": "tenant"}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := get(t, ts, "/v1/transform/paper", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/v1/transform/paper", map[string]string{"Authorization": "Bearer k"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer key status = %d", resp.StatusCode)
	}
}

// TestLatencyShed: once the sliding p95 breaches the target, new executions
// are shed with 429 while cache hits keep being served — degradation, not
// an outage.
func TestLatencyShed(t *testing.T) {
	_, s := newDeptServer(t, Config{TargetP95: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the window up to its 8-sample floor: these all execute.
	for i := 0; i < 8; i++ {
		resp, body := get(t, ts, fmt.Sprintf("/v1/transform/paper?p.i=%d", i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up %d: status = %d body %q", i, resp.StatusCode, body)
		}
	}
	// The window has its 8 samples and every one took > 1ns: shed new work.
	resp, body := get(t, ts, "/v1/transform/paper?p.i=99", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("latency shed must carry Retry-After")
	}
	// A repeat of earlier work is a cache hit and is still served.
	resp, _ = get(t, ts, "/v1/transform/paper?p.i=3", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Xsltd-Cache") != "hit" {
		t.Fatalf("cache hit under shed: status = %d cache = %q",
			resp.StatusCode, resp.Header.Get("X-Xsltd-Cache"))
	}
}

// TestCloseRace: Database.Close racing a stream of HTTP requests produces
// only clean outcomes — 200 for runs that finished, 429 for shed work, 503
// (ErrDatabaseClosed) after the close — and leaks no snapshot pins.
func TestCloseRace(t *testing.T) {
	d, s := newDeptServer(t, Config{CacheCapacity: -1}) // no cache: every request runs
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 8
	var wg sync.WaitGroup
	var badStatus atomic.Value
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := get(t, ts, fmt.Sprintf("/v1/transform/paper?p.i=%d.%d", w, i), nil)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
				default:
					badStatus.Store(fmt.Sprintf("status %d: %s", resp.StatusCode, body))
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let requests flow
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if msg := badStatus.Load(); msg != nil {
		t.Fatalf("unclean response during close race: %s", msg)
	}

	resp, body := get(t, ts, "/v1/transform/paper?p.i=after", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close status = %d body %q", resp.StatusCode, body)
	}
	resp, _ = get(t, ts, "/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close health = %d", resp.StatusCode)
	}

	// No snapshot pins may survive: scrape the server's console.
	console := httptest.NewServer(s.Console())
	defer console.Close()
	_, scrape := get(t, console, "/metrics", nil)
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "xsltdb_snapshot_pins ") {
			if !strings.HasSuffix(line, " 0") {
				t.Fatalf("leaked snapshot pins: %q", line)
			}
			return
		}
	}
	t.Fatal("xsltdb_snapshot_pins not found in /metrics")
}

// TestConsoleTenants: the /tenants console page serves the admission state.
func TestConsoleTenants(t *testing.T) {
	_, s := newDeptServer(t, Config{})
	api := httptest.NewServer(s.Handler())
	defer api.Close()
	if resp, _ := get(t, api, "/v1/transform/paper", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed request failed: %d", resp.StatusCode)
	}
	console := httptest.NewServer(s.Console())
	defer console.Close()
	resp, body := get(t, console, "/tenants", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"served": 1`) {
		t.Fatalf("/tenants = %d %q", resp.StatusCode, body)
	}
}

// TestEndToEndTelemetry follows one request's identity through every layer:
// the supplied W3C traceparent comes back as X-Request-Id and as the parent
// of the response's own traceparent, the wide event published for the
// request carries the serving outcome and latency breakdown under that same
// trace ID, and the console resolves /runs/<trace-id> to the archived engine
// span tree.
func TestEndToEndTelemetry(t *testing.T) {
	d, s := newDeptServer(t, Config{EnableEvents: true})
	defer s.Close()
	d.EnableRunHistory(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parent = "00-" + traceID + "-00f067aa0ba902b7-01"
	resp, body := get(t, ts, "/v1/transform/paper", map[string]string{"traceparent": parent})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body %q", resp.StatusCode, body)
	}

	// The caller's trace ID is the request's identity end to end.
	if got := resp.Header.Get("X-Request-Id"); got != traceID {
		t.Fatalf("X-Request-Id = %q, want %q", got, traceID)
	}
	back, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("Traceparent"))
	}
	if back.TraceIDString() != traceID {
		t.Fatalf("response traceparent trace = %q, want %q", back.TraceIDString(), traceID)
	}
	if back.SpanIDString() == "00f067aa0ba902b7" {
		t.Fatal("response traceparent must carry the server's own span ID")
	}

	// Exactly one wide event, carrying the serving outcome, engine work, and
	// latency breakdown under the same identity.
	s.EventBus().Flush()
	recent := s.EventsState(10).Recent
	if len(recent) != 1 {
		t.Fatalf("events = %+v, want exactly 1", recent)
	}
	ev := recent[0]
	if ev.TraceID != traceID || ev.RequestID != traceID {
		t.Fatalf("event identity = %q/%q, want %q", ev.TraceID, ev.RequestID, traceID)
	}
	if ev.Outcome != "ok" || ev.Status != http.StatusOK {
		t.Fatalf("event outcome = %q status %d", ev.Outcome, ev.Status)
	}
	if ev.Cache != "miss" || ev.Coalesce != "leader" {
		t.Fatalf("event cache/coalesce = %q/%q, want miss/leader", ev.Cache, ev.Coalesce)
	}
	if ev.Transform != "paper" || ev.View != "dept_emp" {
		t.Fatalf("event identity fields = %+v", ev)
	}
	if ev.Rows <= 0 || ev.Strategy == "" {
		t.Fatalf("event engine fields = %+v", ev)
	}
	if ev.TotalNS <= 0 || ev.ExecNS <= 0 || ev.TotalNS < ev.ExecNS {
		t.Fatalf("event latency breakdown = total %d exec %d", ev.TotalNS, ev.ExecNS)
	}
	if ev.RunID == 0 {
		t.Fatal("event not joined to the archived run")
	}

	// The console resolves the trace ID to the archived run and its spans.
	console := httptest.NewServer(s.Console())
	defer console.Close()
	resp, runBody := get(t, console, "/runs/"+traceID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/runs/%s = %d %q", traceID, resp.StatusCode, runBody)
	}
	for _, want := range []string{traceID, `"http"`, `"run"`} {
		if !strings.Contains(runBody, want) {
			t.Fatalf("/runs/%s missing %s:\n%s", traceID, want, runBody)
		}
	}
	resp, evBody := get(t, console, "/events", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(evBody, traceID) {
		t.Fatalf("/events = %d, missing trace %s:\n%s", resp.StatusCode, traceID, evBody)
	}

	// A repeat request hits the cache; without a caller traceparent the
	// server mints a fresh identity, and the event says cache-hit.
	resp, _ = get(t, ts, "/v1/transform/paper", nil)
	if resp.Header.Get("X-Xsltd-Cache") != "hit" {
		t.Fatal("second request should hit the cache")
	}
	freshID := resp.Header.Get("X-Request-Id")
	if len(freshID) != 32 || freshID == traceID {
		t.Fatalf("minted X-Request-Id = %q", freshID)
	}
	s.EventBus().Flush()
	recent = s.EventsState(1).Recent
	if len(recent) != 1 || recent[0].Outcome != "cache-hit" || recent[0].Cache != "hit" {
		t.Fatalf("cache-hit event = %+v", recent)
	}
	if recent[0].TraceID != freshID {
		t.Fatalf("cache-hit event trace = %q, want %q", recent[0].TraceID, freshID)
	}

	t.Run("agreement", testSignalsAgree)
}

// accounting is what one batch of requests did to every place a request is
// counted: the request-accounting metric series and the per-server tenant
// counters.
type accounting struct {
	series  map[string]int64
	tenants map[string]TenantInfo
}

func takeAccounting(t *testing.T, s *Server) accounting {
	t.Helper()
	var buf strings.Builder
	if _, err := s.scrape().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	a := accounting{series: map[string]int64{}, tenants: map[string]TenantInfo{}}
	for _, line := range strings.Split(buf.String(), "\n") {
		counted := false
		for _, fam := range []string{"xsltd_requests_total", "xsltd_request_seconds_count", "xsltd_sheds_total", "xsltd_coalesce_hits_total"} {
			counted = counted || strings.HasPrefix(line, fam)
		}
		if i := strings.LastIndexByte(line, ' '); counted && i > 0 {
			n, err := strconv.ParseInt(line[i+1:], 10, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			a.series[line[:i]] = n
		}
	}
	for _, ti := range s.TenantsState() {
		a.tenants[ti.Name] = ti
	}
	return a
}

// since returns what moved between before and a, zero deltas dropped, in the
// vocabulary modelAccounting predicts.
func (a accounting) since(before accounting) map[string]int64 {
	out := map[string]int64{}
	for k, v := range a.series {
		if d := v - before.series[k]; d != 0 {
			out[k] = d
		}
	}
	for name, ti := range a.tenants {
		b := before.tenants[name]
		for k, d := range map[string]uint64{
			"served": ti.Served - b.Served, "shed": ti.Shed - b.Shed,
			"cache_hits": ti.CacheHits - b.CacheHits, "coalesced": ti.Coalesced - b.Coalesced,
		} {
			if d != 0 {
				out["tenant "+name+" "+k] = int64(d)
			}
		}
	}
	return out
}

// modelAccounting is what the requests behind evs must have moved, derived
// from their wide events alone — one requests_total and one request_seconds
// observation per event, labelled as the event says.
func modelAccounting(evs []obs.Event) map[string]int64 {
	want := map[string]int64{}
	for _, ev := range evs {
		want[fmt.Sprintf(`xsltd_requests_total{tenant="%s",outcome="%s"}`, ev.Tenant, ev.Outcome)]++
		want[fmt.Sprintf(`xsltd_request_seconds_count{tenant="%s"}`, ev.Tenant)]++
		served := ev.Outcome == "ok" || ev.Outcome == "cache-hit"
		if served {
			want["tenant "+ev.Tenant+" served"]++
		}
		if ev.Cache == "hit" {
			want["tenant "+ev.Tenant+" cache_hits"]++
		}
		if served && ev.Coalesce == "follower" {
			want["tenant "+ev.Tenant+" coalesced"]++
			want["xsltd_coalesce_hits_total"]++
		}
		if ev.Outcome == "shed" {
			want["tenant "+ev.Tenant+" shed"]++
			want[fmt.Sprintf(`xsltd_sheds_total{tenant="%s",reason="%s"}`, ev.Tenant, ev.ShedReason)]++
		}
	}
	return want
}

// testSignalsAgree is the agreement table: every exit path of the transform
// handler, and for each the same three checks — the events say what happened,
// the metrics and the tenant counters moved by exactly what the events say
// (one requests_total increment and one request_seconds observation per
// request, whatever its outcome), and a traced request's event, archived run
// and engine root span carry the same strategy, access path, rows and wall
// times as the run's ExecStats.
func testSignalsAgree(t *testing.T) {
	d, s := newDeptServer(t, Config{
		EnableEvents: true,
		APIKeys:      map[string]string{"k-main": "main", "k-alpha": "alpha", "k-tiny": "tiny"},
	})
	defer s.Close()
	d.EnableRunHistory(0)
	for name, lim := range map[string]xsltdb.TenantLimits{"alpha": {MaxConcurrent: 1}, "tiny": {MaxRows: 1}} {
		if err := d.RegisterTenant(name, lim); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	traceN := 0
	// call makes one request and returns its X-Request-Id; traced requests
	// carry a fresh traceparent.
	call := func(key, query string, traced bool) string {
		hdr := map[string]string{"X-Api-Key": key}
		if traced {
			traceN++
			hdr["traceparent"] = fmt.Sprintf("00-%032x-00f067aa0ba902b7-01", traceN)
		}
		resp, _ := get(t, ts, "/v1/transform/paper"+query, hdr)
		return resp.Header.Get("X-Request-Id")
	}
	// held runs first with the leader parked at the exec gate, then second
	// once the leader is there (and, for a follower, has been joined).
	held := func(first func() string, second func() string, joins int64) []string {
		reached, release := make(chan struct{}, 1), make(chan struct{})
		var once atomic.Bool
		s.execGate = func() {
			if once.CompareAndSwap(false, true) {
				reached <- struct{}{}
				<-release
			}
		}
		defer func() { s.execGate = nil }()
		ids := make(chan string, 2)
		go func() { ids <- first() }()
		<-reached
		go func() { ids <- second() }()
		for deadline := time.Now().Add(10 * time.Second); joins > 0; time.Sleep(time.Millisecond) {
			var joined int64
			s.flightMu.Lock()
			for _, c := range s.flight {
				joined += c.shared.Load()
			}
			s.flightMu.Unlock()
			if joined == joins {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d/%d followers joined", joined, joins)
			}
		}
		if joins == 0 {
			second := <-ids // a shed request returns while the leader is still held
			close(release)
			return []string{<-ids, second}
		}
		close(release)
		return []string{<-ids, <-ids}
	}

	rows := []struct {
		name string
		prep func()
		do   func() []string
		want []string // tenant outcome status cache coalesce shed-reason, one per request, sorted
	}{
		{name: "miss leader",
			do:   func() []string { return []string{call("k-main", "?p.c=1", true)} },
			want: []string{"main ok 200 miss leader "}},
		{name: "hit",
			do:   func() []string { return []string{call("k-main", "?p.c=1", true)} },
			want: []string{"main cache-hit 200 hit  "}},
		{name: "follower",
			do: func() []string {
				one := func() string { return call("k-main", "?p.c=2", false) }
				return held(one, one, 1)
			},
			want: []string{"main ok 200 miss follower ", "main ok 200 miss leader "}},
		{name: "shed quota",
			do: func() []string {
				return held(func() string { return call("k-alpha", "?p.c=3", false) },
					func() string { return call("k-alpha", "?p.c=4", false) }, 0)
			},
			want: []string{"alpha ok 200 miss leader ", "alpha shed 429 miss leader quota"}},
		{name: "unknown parameter",
			do:   func() []string { return []string{call("k-main", "?bogus=1", false)} },
			want: []string{"main error 400   "}},
		{name: "malformed where",
			do:   func() []string { return []string{call("k-main", "?where=nosuchcol+%3D+1", true)} },
			want: []string{"main error 400 miss leader "}},
		{name: "run error",
			do:   func() []string { return []string{call("k-tiny", "?p.c=5", true)} },
			want: []string{"tiny error 413 miss leader "}},
		{name: "shed latency",
			prep: func() {
				for i := 0; i < 8; i++ { // the shedding p95 needs eight samples
					call("k-main", "?p.c=1", false)
				}
				s.cfg.TargetP95 = time.Nanosecond
			},
			do:   func() []string { return []string{call("k-main", "?p.c=6", false)} },
			want: []string{"main shed 429 miss leader latency"}},
	}
	for _, row := range rows {
		if row.prep != nil {
			row.prep()
		}
		before := takeAccounting(t, s)
		ids := row.do()
		s.EventBus().Flush()
		after := takeAccounting(t, s)

		var evs []obs.Event
		var got []string
		for _, id := range ids {
			page := s.EventsStateFiltered(0, "", id).Recent
			if len(page) != 1 {
				t.Fatalf("%s: request %s published %d events, want exactly 1", row.name, id, len(page))
			}
			ev := page[0]
			evs = append(evs, ev)
			got = append(got, fmt.Sprintf("%s %s %d %s %s %s", ev.Tenant, ev.Outcome, ev.Status, ev.Cache, ev.Coalesce, ev.ShedReason))
			if ev.TotalNS <= 0 {
				t.Errorf("%s: event without latency: %+v", row.name, ev)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s: events\n got  %q\n want %q", row.name, got, row.want)
		}
		if moved, want := after.since(before), modelAccounting(evs); !reflect.DeepEqual(moved, want) {
			t.Errorf("%s: accounting disagrees with the events\n moved %v\n want  %v", row.name, moved, want)
		}

		for _, ev := range evs {
			if ev.RunID == 0 {
				continue
			}
			rec, ok := d.RunHistory().Run(ev.RunID)
			if !ok || rec.TraceID != ev.TraceID {
				t.Fatalf("%s: event's run %d not archived under its trace (%+v)", row.name, ev.RunID, rec)
			}
			var spans []obs.SpanJSON
			if err := json.Unmarshal(rec.TraceJSON, &spans); err != nil {
				t.Fatalf("%s: archived trace: %v", row.name, err)
			}
			var run obs.SpanJSON
			for _, sp := range spans {
				if sp.Name == "run" {
					run = sp
				}
			}
			type engine struct {
				strategy, access  string
				rows              int64
				compileNS, execNS string
			}
			fromEvent := engine{ev.Strategy, ev.AccessPath, ev.Rows, fmt.Sprint(ev.CompileNS), fmt.Sprint(ev.ExecNS)}
			fromRecord := engine{rec.Strategy, rec.AccessPath, rec.Rows, fmt.Sprint(int64(rec.CompileWall)), fmt.Sprint(int64(rec.ExecWall))}
			fromSpan := engine{run.Attrs["strategy"], run.Attrs["access_path"], run.RowsOut, run.Attrs["compile_ns"], run.Attrs["exec_ns"]}
			if fromEvent != fromRecord || fromEvent != fromSpan || fromEvent.strategy == "" {
				t.Errorf("%s: engine fields disagree\n event  %+v\n record %+v\n span   %+v", row.name, fromEvent, fromRecord, fromSpan)
			}
			// rec.Stats is the run's ExecStats as the engine rendered it.
			for _, token := range []string{fmt.Sprintf("rows=%d ", ev.Rows), fmt.Sprintf("data-version=%d", ev.DataVersion)} {
				if !strings.Contains(rec.Stats+" ", token) {
					t.Errorf("%s: ExecStats %q lacks the event's %q", row.name, rec.Stats, token)
				}
			}
		}
	}
}

// TestShedBodyCarriesRequestID: a 429 body quotes the request ID so a caller
// holding only the error text can hand an operator the exact request, and
// the shed is visible in the wide event and the per-tenant shed counter.
func TestShedBodyCarriesRequestID(t *testing.T) {
	d, s := newDeptServer(t, Config{
		EnableEvents: true,
		APIKeys:      map[string]string{"key-a": "alpha"},
	})
	defer s.Close()
	if err := d.RegisterTenant("alpha", xsltdb.TenantLimits{MaxConcurrent: 1}); err != nil {
		t.Fatal(err)
	}
	gateReached := make(chan struct{}, 1)
	releaseGate := make(chan struct{})
	var firstExec atomic.Bool
	s.execGate = func() {
		if firstExec.CompareAndSwap(false, true) {
			gateReached <- struct{}{}
			<-releaseGate
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan reply1, 1)
	go func() {
		resp, body := get(t, ts, "/v1/transform/paper?p.i=0", map[string]string{"X-Api-Key": "key-a"})
		done <- reply1{resp.StatusCode, body}
	}()
	<-gateReached

	resp, body := get(t, ts, "/v1/transform/paper?p.i=1", map[string]string{"X-Api-Key": "key-a"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d body %q", resp.StatusCode, body)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if len(reqID) != 32 {
		t.Fatalf("shed response X-Request-Id = %q", reqID)
	}
	if !strings.Contains(body, "request_id "+reqID) {
		t.Fatalf("429 body %q does not quote request_id %s", body, reqID)
	}

	close(releaseGate)
	if r := <-done; r.status != http.StatusOK {
		t.Fatalf("in-flight request finished %d body %q", r.status, r.body)
	}

	s.EventBus().Flush()
	recent := s.EventsState(10).Recent
	var shed *obs.Event
	for i := range recent {
		if recent[i].Outcome == "shed" {
			shed = &recent[i]
		}
	}
	if shed == nil {
		t.Fatalf("no shed event in %+v", recent)
	}
	if shed.TraceID != reqID || shed.Status != http.StatusTooManyRequests || shed.ShedReason == "" || shed.Tenant != "alpha" {
		t.Fatalf("shed event = %+v", shed)
	}
}

// TestCachedBodySurvivesLaterRuns: the engine emits every run into a pooled
// buffer, so a cached body must be its own copy — fetched again after a
// thousand other runs have recycled that buffer (two clients at once, so the
// race detector watches the pool), it is still byte for byte what the first
// request returned and what a fresh library Run produces.
func TestCachedBodySurvivesLaterRuns(t *testing.T) {
	d, s := newDeptServer(t, Config{CacheCapacity: 2048})
	for dn := 100; dn < 160; dn++ {
		if err := d.Insert("dept", int64(dn), fmt.Sprintf("D<%d>&", dn), "CITY"); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert("emp", int64(dn*10), fmt.Sprintf("E%d", dn), "STAFF", int64(3000+dn), int64(dn)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	window := func(lo, hi int) string {
		return fmt.Sprintf("/v1/transform/paper?p.lo=%d&p.hi=%d&where=%s", lo, hi, "deptno+%3E%3D+%24lo+and+deptno+%3C+%24hi")
	}

	resp, first := get(t, ts, window(100, 130), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Xsltd-Cache") != "miss" || strings.Count(first, "\n") != 30 {
		t.Fatalf("first request: status %d cache %q rows %d", resp.StatusCode, resp.Header.Get("X-Xsltd-Cache"), strings.Count(first, "\n"))
	}

	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				lo := 100 + (i*7+c)%50
				path := window(lo, lo+1+(i+c*500)%10) + fmt.Sprintf("&p.n=%d", c*500+i) // p.n makes every key distinct
				req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.Header.Get("X-Xsltd-Cache") != "miss" {
					t.Errorf("intervening request %d/%d was a %q", c, i, resp.Header.Get("X-Xsltd-Cache"))
					return
				}
			}
		}(c)
	}
	wg.Wait()

	resp, again := get(t, ts, window(100, 130), nil)
	if resp.Header.Get("X-Xsltd-Cache") != "hit" {
		t.Fatalf("refetch was a %q, want a cache hit", resp.Header.Get("X-Xsltd-Cache"))
	}
	if again != first {
		t.Fatalf("cached body changed after 1000 intervening runs:\n first %q\n again %q", first, again)
	}
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ct.Run(context.Background(), xsltdb.WithWhere("deptno >= $lo and deptno < $hi"), xsltdb.WithParam("lo", 100), xsltdb.WithParam("hi", 130))
	if err != nil {
		t.Fatal(err)
	}
	if fresh := strings.Join(res.Rows, "\n") + "\n"; fresh != first {
		t.Fatalf("served body differs from a library Run:\n served %q\n run    %q", first, fresh)
	}
}

// TestBodyIsSentWithLength: a transform's body goes out with its
// Content-Length and unchunked, on a miss and on a hit alike, and its bytes
// are what Result.WriteTo writes. The body is larger than the 64 KiB piece
// it is copied out in, so it takes more than one.
func TestBodyIsSentWithLength(t *testing.T) {
	d, s := newDeptServer(t, Config{})
	for dn := 100; dn < 400; dn++ {
		if err := d.Insert("dept", int64(dn), fmt.Sprintf("D<%d>&", dn), "CITY"); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 3; e++ {
			if err := d.Insert("emp", int64(dn*10+e), fmt.Sprintf("E%d", dn), "STAFF", int64(3000+e), int64(dn)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if _, err := res.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if want.Len() <= wirePiece {
		t.Fatalf("the body is %d bytes, want more than one %d-byte piece", want.Len(), wirePiece)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, cache := range []string{"miss", "hit"} {
		resp, body := get(t, ts, "/v1/transform/paper", nil)
		if got := resp.Header.Get("X-Xsltd-Cache"); got != cache {
			t.Fatalf("X-Xsltd-Cache = %q, want %q", got, cache)
		}
		if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %d (header %q) for a body of %d bytes", cache, resp.ContentLength, resp.Header.Get("Content-Length"), len(body))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Transfer-Encoding %v, want none", cache, resp.TransferEncoding)
		}
		if body != want.String() {
			t.Fatalf("%s: served %d bytes that differ from Result.WriteTo's %d", cache, len(body), want.Len())
		}
	}
}
