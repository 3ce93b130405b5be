// Package serve is the production HTTP layer over compiled transforms: a
// Server exposes registered (view, stylesheet) pairs at /v1/transform/<name>
// and keeps the engine healthy under concurrent load with three mechanisms
// layered in front of every execution:
//
//  1. Request coalescing — concurrent identical requests (same view at the
//     same version, same stylesheet, same bound params) execute once; the
//     followers share the leader's rows (singleflight).
//  2. A bounded LRU result cache keyed on the same identity. The key
//     embeds the view's MVCC version, so ReplaceXMLView invalidates every
//     cached result for that view by construction — stale entries can
//     never be served, they just age out of the LRU.
//  3. Per-tenant admission control — an API key resolves to a tenant whose
//     TenantLimits cap concurrent runs and per-run budgets; tenants share
//     one immutable compiled plan. On top sits latency shedding: when the
//     sliding p95 of recent requests breaches the configured target, new
//     executions are shed with 429 + Retry-After while cache hits, coalesce
//     joins, and in-flight runs complete — graceful degradation, not
//     collapse.
package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/obs/diag"
)

// Config wires a Server. DB is required; everything else defaults sanely.
type Config struct {
	// DB is the engine the server fronts.
	DB *xsltdb.Database
	// APIKeys maps API-key header values to tenant names. When empty the
	// server is open: every request runs as the anonymous tenant "".
	APIKeys map[string]string
	// CacheCapacity bounds the result cache in entries (default 256;
	// negative disables caching).
	CacheCapacity int
	// MaxInFlight caps concurrent executions across all tenants (0 =
	// unlimited). Requests beyond the cap are shed with 429.
	MaxInFlight int
	// TargetP95 sheds new executions with 429 while the sliding p95 of the
	// last 256 request latencies exceeds it (0 = never shed on latency).
	TargetP95 time.Duration

	// EnableEvents turns on the wide-event pipeline: one structured event
	// per request through a bounded async bus that never blocks the request
	// path. Implied when EventSinks is non-empty or DiagDir is set. The
	// console ring sink (/events) is always attached when the pipeline is on.
	EnableEvents bool
	// EventSinks are additional sinks (an NDJSON file) the bus fans out to.
	EventSinks []obs.EventSink
	// EventBuffer bounds the bus (0 = obs.DefaultEventBuffer). Events beyond
	// a full buffer are dropped and counted, never waited for.
	EventBuffer int
	// SLOTarget is the per-request latency objective for the SLO burn-rate
	// gauge: a request slower than this (or failed) spends error budget.
	// Defaults to TargetP95; 0 with no TargetP95 counts only failures.
	SLOTarget time.Duration
	// SLOObjective is the fraction of requests that must meet the target
	// (default 0.99).
	SLOObjective float64

	// DiagDir enables the diagnostics flight recorder: a detector monitor
	// checks the process's own signals every 5s (the admission window's p95
	// vs its trailing baseline, SLO burn rate, strategy degradations, WAL
	// fsync stalls, snapshot-pin age, event-bus drops, goroutine count) and
	// captures a diagnostic bundle under this directory when one fires.
	// Setting DiagDir turns the wide-event pipeline on, because a bundle's
	// events.json is read from its ring. Empty = diagnostics off.
	DiagDir string
	// DiagMaxBundles bounds bundle retention (default 8).
	DiagMaxBundles int
	// DiagDebounce is the minimum gap between anomaly-triggered bundles
	// (default 1m) — an anomaly storm costs one bundle.
	DiagDebounce time.Duration
}

// Server serves registered transforms over HTTP. Create with New, register
// transforms, then mount Handler.
type Server struct {
	cfg     Config
	db      *xsltdb.Database
	metrics serverMetrics
	window  *latencyWindow
	cache   *resultCache
	global  chan struct{} // global in-flight slots, nil = unlimited

	// events is the wide-event bus (nil = pipeline off); eventsRing backs
	// the console's /events page; slo tracks per-tenant burn rates.
	events     *obs.EventBus
	eventsRing *obs.RingSink
	slo        *sloTracker

	// monitor/recorder are the diagnostics layer (nil = off); ready gates
	// /readyz — flipped by MarkReady once startup (WAL replay, transform
	// registration) is complete.
	monitor  *diag.Monitor
	recorder *diag.Recorder
	ready    atomic.Bool

	mu         sync.RWMutex
	transforms map[string]*transformDef
	compiled   map[compiledKey]*xsltdb.CompiledTransform

	flightMu sync.Mutex
	flight   map[string]*flightCall

	tenantMu sync.Mutex
	tenants  map[string]*tenantState

	// execGate, when set, runs on the leader immediately before each real
	// execution. Tests use it to hold N coalescing requests in flight
	// deterministically. Never set in production.
	execGate func()
}

// transformDef is one registered (view, stylesheet) pair.
type transformDef struct {
	name  string
	view  string
	sheet string
	hash  string // stylesheet identity folded into exec keys
	opts  []xsltdb.Option
}

// compiledKey identifies one tenant's compilation of one transform.
type compiledKey struct {
	name   string
	tenant string
}

// flightCall is one in-flight execution that followers can join.
type flightCall struct {
	done   chan struct{}
	body   response
	stats  *xsltdb.ExecStats // the leader's run; nil when it never ran (shed, compile error)
	err    error
	shared atomic.Int64 // followers that joined
}

// tenantState is the live admission state for one tenant. The counters are
// written only by the request fold (Server.account).
type tenantState struct {
	name string
	sem  chan struct{} // nil = unlimited

	inFlight  atomic.Int64
	served    atomic.Uint64
	shed      atomic.Uint64
	cacheHits atomic.Uint64
	coalesced atomic.Uint64
}

// New builds a Server over db.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("serve: Config.DB is required")
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 256
	}
	m := newServerMetrics()
	s := &Server{
		cfg:        cfg,
		db:         cfg.DB,
		metrics:    m,
		window:     newLatencyWindow(),
		cache:      newResultCache(cfg.CacheCapacity, m.cacheEvictions),
		transforms: map[string]*transformDef{},
		compiled:   map[compiledKey]*xsltdb.CompiledTransform{},
		flight:     map[string]*flightCall{},
		tenants:    map[string]*tenantState{},
	}
	if cfg.MaxInFlight > 0 {
		s.global = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.DiagDir != "" {
		rec, err := diag.NewRecorder(m.reg, diag.RecorderConfig{
			Dir:        cfg.DiagDir,
			MaxBundles: cfg.DiagMaxBundles,
			Debounce:   cfg.DiagDebounce,
		}, s.diagSources())
		if err != nil {
			return nil, err
		}
		s.recorder = rec
		s.monitor = diag.NewMonitor(m.reg, diag.MonitorConfig{
			OnAnomaly: func(a diag.Anomaly) {
				rec.TryCapture(a.Detector)
			},
		}, diag.StandardDetectors(cfg.DB.Metrics(), m.reg, diag.DetectorOptions{
			LatencyP95:   s.window.p95, // the p95 admission sheds on
			LatencyFloor: cfg.TargetP95,
		})...)
		s.monitor.Start()
	}
	if cfg.EnableEvents || len(cfg.EventSinks) > 0 || s.recorder != nil {
		s.eventsRing = obs.NewRingSink(0)
		sinks := append(append([]obs.EventSink{}, cfg.EventSinks...), s.eventsRing)
		s.events = obs.NewEventBus(cfg.EventBuffer, sinks...)
	}
	sloTarget := cfg.SLOTarget
	if sloTarget == 0 {
		sloTarget = cfg.TargetP95
	}
	s.slo = newSLOTracker(sloTarget, cfg.SLOObjective)
	return s, nil
}

// Close flushes and stops the wide-event pipeline and the diagnostics
// monitor. Requests may still be served afterwards; their events are dropped
// and counted.
func (s *Server) Close() {
	s.events.Close()
	s.monitor.Close()
}

// scrape is what the console's /metrics and a bundle's metrics.prom render:
// the database's registry and this server's, as one exposition. It is the
// one place that says a scrape is the engine plus the server.
func (s *Server) scrape() obs.Scrape { return obs.Scrape{s.db.Metrics(), s.metrics.reg} }

// diagSources wires the flight recorder's bundle sections to the layers
// below: the metrics scrape, the console event ring, run history, the plan
// cache, WAL recovery, and the anomaly ring itself.
func (s *Server) diagSources() diag.Sources {
	return diag.Sources{
		Metrics: s.scrape(),
		Events:  func(n int) any { return s.EventsState(n) },
		Runs: func() any {
			a := s.db.RunHistory()
			return map[string]any{"recent": a.Runs(50), "aggregates": a.Plans()}
		},
		Plans:     func() any { return s.db.PlanCacheEntries() },
		WAL:       func() any { return s.db.RecoveryStats() },
		Anomalies: func() any { return s.monitor.Anomalies(100) },
	}
}

// Monitor exposes the diagnostics monitor (nil when DiagDir is unset).
func (s *Server) Monitor() *diag.Monitor { return s.monitor }

// Recorder exposes the flight recorder (nil when DiagDir is unset).
func (s *Server) Recorder() *diag.Recorder { return s.recorder }

// MarkReady flips /readyz to 200. Call it when startup is complete: the
// database open (and therefore WAL replay) finished and every transform is
// registered. Liveness (/healthz) is independent and true from the start.
func (s *Server) MarkReady() { s.ready.Store(true) }

// EventBus exposes the server's event bus (nil when events are disabled) —
// tests and shutdown paths use it to Flush deterministically.
func (s *Server) EventBus() *obs.EventBus { return s.events }

// EventsPage is the console's /events payload: bus counters plus the most
// recent events, newest first.
type EventsPage struct {
	Bus    obs.EventBusStats `json:"bus"`
	Recent []obs.Event       `json:"recent"`
}

// EventsState snapshots the event pipeline for the console's /events page;
// nil when events are disabled.
func (s *Server) EventsState(n int) *EventsPage {
	return s.EventsStateFiltered(n, "", "")
}

// EventsStateFiltered is EventsState restricted to one tenant and/or one
// 32-hex trace ID (empty = no restriction) — the console's ?tenant= and
// ?trace= query filters. The ring is scanned newest-first until n matching
// events are found.
func (s *Server) EventsStateFiltered(n int, tenant, trace string) *EventsPage {
	if s.events == nil {
		return nil
	}
	var keep func(obs.Event) bool
	if tenant != "" || trace != "" {
		keep = func(ev obs.Event) bool {
			return (tenant == "" || ev.Tenant == tenant) &&
				(trace == "" || ev.TraceID == trace)
		}
	}
	return &EventsPage{Bus: s.events.Stats(), Recent: s.eventsRing.RecentFiltered(n, keep)}
}

// RegisterTransform exposes stylesheet over view as /v1/transform/<name>.
// The transform is compiled eagerly (for the anonymous tenant) so a broken
// stylesheet fails at registration, not on the first request.
func (s *Server) RegisterTransform(name, view, stylesheet string, opts ...xsltdb.Option) error {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("serve: bad transform name %q", name)
	}
	def := &transformDef{
		name: name, view: view, sheet: stylesheet,
		hash: sheetHash(stylesheet), opts: opts,
	}
	ct, err := s.db.CompileTransform(view, stylesheet, opts...)
	if err != nil {
		return fmt.Errorf("serve: register %q: %w", name, err)
	}
	s.mu.Lock()
	s.transforms[name] = def
	s.compiled[compiledKey{name: name, tenant: ""}] = ct
	s.mu.Unlock()
	return nil
}

// Handler returns the public v1 API:
//
//	GET  /v1/transforms            registered transforms (JSON)
//	GET  /v1/transform/<name>      run; p.<x>=v binds stylesheet param x,
//	                               where=<xpath> adds a driving predicate
//	GET  /healthz                  liveness: 200 while the process serves
//	GET  /readyz                   readiness: 200 once MarkReady was called
//	                               and the server is not shedding on latency
//
// Authentication: when Config.APIKeys is set, requests must carry a
// configured key in the Authorization: Bearer or X-Api-Key header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/v1/transforms", s.handleList)
	mux.HandleFunc("/v1/transform/", s.handleTransform)
	return mux
}

// Console returns the debug console: the engine's pages (as
// Database.ConsoleHandler serves them, but with /metrics scraping this server
// too) plus /tenants, /events and — when diagnostics are on —
// /debug/anomalies and /debug/bundle.
func (s *Server) Console() http.Handler {
	cfg := obs.ConsoleConfig{
		Archive: s.db.RunHistory(),
		Metrics: s.scrape(),
		Plans:   func() any { return s.db.PlanCacheEntries() },
		Tenants: func() any { return s.TenantsState() },
	}
	if s.events != nil {
		cfg.Events = func(n int, tenant, trace string) any {
			return s.EventsStateFiltered(n, tenant, trace)
		}
	}
	if s.monitor != nil {
		cfg.Anomalies = func(n int) any { return s.monitor.Page(n) }
	}
	if s.recorder != nil {
		cfg.Bundles = func() any { return s.recorder.Bundles() }
		cfg.CaptureBundle = func() (string, error) { return s.recorder.Capture("manual") }
	}
	return obs.ConsoleHandler(cfg)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.db.Closed() {
		http.Error(w, "database closed", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReady is /readyz — distinct from liveness: it answers "should this
// process receive traffic", so it is 503 until MarkReady (startup, including
// WAL replay, complete) and while the server is globally shedding on latency
// (a load balancer should prefer a replica that is not over its p95 target).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.db.Closed():
		http.Error(w, "database closed", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "starting up", http.StatusServiceUnavailable)
	case s.cfg.TargetP95 > 0 && s.window.p95() > s.cfg.TargetP95:
		http.Error(w, "shedding load (p95 over target)", http.StatusServiceUnavailable)
	default:
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if _, _, ok := s.resolveTenant(w, r); !ok {
		return
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.transforms))
	for name := range s.transforms {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	type info struct {
		Name string `json:"name"`
		View string `json:"view"`
	}
	out := make([]info, 0, len(names))
	s.mu.RLock()
	for _, name := range names {
		out = append(out, info{Name: name, View: s.transforms[name].view})
	}
	s.mu.RUnlock()
	writeJSON(w, out)
}

// handleTransform is the hot path: establish trace identity → resolve
// tenant → answer (serveTransform, which only fills in the request's wide
// event) → account (the one fold over that event). Every request that
// resolves to a transform and a tenant reaches the fold exactly once, whatever
// its outcome.
func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/transform/")
	s.mu.RLock()
	def := s.transforms[name]
	s.mu.RUnlock()
	if def == nil {
		http.Error(w, "unknown transform "+strconv.Quote(name), http.StatusNotFound)
		return
	}
	tenant, lim, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	ts := s.tenantState(tenant, lim)
	tel := s.beginTelemetry(r, def, tenant)
	// The response always carries the request's identity: X-Request-Id is
	// the trace ID (the console key), traceparent the propagated context.
	w.Header().Set("X-Request-Id", tel.id)
	w.Header().Set("Traceparent", tel.tc.Traceparent())
	w.Header().Set("X-Xsltd-Tenant", tenant)
	s.serveTransform(w, r, def, ts, lim, tel)
	s.account(tel, ts)
}

// serveTransform answers one request: try the result cache, else join or
// lead a coalesced execution (admission control applies to leaders only;
// followers add no load). It records every decision in tel.ev and touches no
// counter — accounting is the fold's.
func (s *Server) serveTransform(w http.ResponseWriter, r *http.Request, def *transformDef, ts *tenantState, lim xsltdb.TenantLimits, tel *reqTel) {
	ev := &tel.ev
	runOpts, params, err := parseRunArgs(r)
	if err != nil {
		tel.fail(w, http.StatusBadRequest, err)
		return
	}
	key := execKey(def, ev.ViewVersion, ev.DataVersion, params)
	body, hit := s.cache.get(key)
	if hit {
		if sp := tel.root.Start("cache"); sp != nil {
			sp.SetAttr("outcome", "hit")
			sp.End()
		}
		ev.Cache, ev.Outcome, ev.Rows = "hit", "cache-hit", int64(body.rows)
	} else {
		ev.Cache = "miss"
		body, err = s.execute(r, def, ts, lim, key, params, runOpts, tel)
		if err != nil {
			if ev.ShedReason = shedReason(err); ev.ShedReason != "" {
				w.Header().Set("Retry-After", "1")
			}
			tel.fail(w, statusFor(err), err)
			return
		}
		ev.Outcome = "ok"
		if ev.Coalesce == "follower" {
			w.Header().Set("X-Xsltd-Coalesced", "1")
		}
		w.Header().Set("X-Xsltd-Strategy", ev.Strategy)
	}
	ev.Status = http.StatusOK
	h := w.Header()
	h.Set("Content-Type", "application/xml; charset=utf-8")
	h.Set("X-Xsltd-Cache", ev.Cache)
	h["Content-Length"] = body.length
	w.WriteHeader(http.StatusOK)
	writeBody(w, body.text)
}

// response is one transform result as it goes on the wire: every row
// followed by a newline, in a single immutable string that the leader, its
// followers and every later cache hit share, with the value of its
// Content-Length header, computed once when the body is filed. Each request
// copies the string out through a pooled buffer (writeBody).
type response struct {
	text   string
	length []string // the Content-Length header's value; read-only
	rows   int
}

// wirePiece is the size of the pieces writeBody copies a body out in: one
// piece holds a typical result, and net/http hands a Write larger than its
// own 2 KiB and 4 KiB buffers straight to the socket.
const wirePiece = 64 << 10

var wireBufs = sync.Pool{New: func() any { return new([wirePiece]byte) }}

// writeBody writes text to w a piece at a time, each copied into a pooled
// buffer: a string cannot become the []byte that reaches the socket without
// a copy, and writing it as a string would pass it through net/http's
// buffers a few KiB per system call. With the Content-Length known, a body
// of up to one piece goes out in at most two writes, and unchunked.
func writeBody(w io.Writer, text string) {
	buf := wireBufs.Get().(*[wirePiece]byte)
	for len(text) > 0 {
		n := copy(buf[:], text)
		if _, err := w.Write(buf[:n]); err != nil {
			break // a dropped client is the transport's problem, not the run's
		}
		text = text[n:]
	}
	wireBufs.Put(buf)
}

// WriteString makes *response the io.StringWriter that Result.WriteTo hands
// the run's backing string to: the first write is adopted as is.
func (b *response) WriteString(p string) (int, error) {
	b.text += p
	return len(p), nil
}

func (b *response) Write(p []byte) (int, error) { return b.WriteString(string(p)) }

// Shed sentinels — mapped to 429 by the handler.
var (
	errShedQuota   = errors.New("serve: over tenant capacity, retry later")
	errShedLatency = errors.New("serve: shedding load (p95 over target), retry later")
)

// shedReason names the admission rule behind a shed error ("" for any other
// error) — a follower of a shed leader is shed for the same reason.
func shedReason(err error) string {
	switch {
	case errors.Is(err, errShedQuota):
		return "quota"
	case errors.Is(err, errShedLatency):
		return "latency"
	}
	return ""
}

// execute coalesces: the first request for key becomes the leader and runs
// the transform under admission control; concurrent identical requests wait
// on the leader's flightCall and share its body without adding any load.
// tel receives the serve-layer spans — coalesce role, admission decision —
// and the run's engine fields, and on the leader threads the request's trace
// into the engine run so the archived span tree covers HTTP → strategy →
// operators.
func (s *Server) execute(r *http.Request, def *transformDef, ts *tenantState, lim xsltdb.TenantLimits, key, params string, runOpts []xsltdb.RunOption, tel *reqTel) (response, error) {
	s.flightMu.Lock()
	if c, ok := s.flight[key]; ok {
		c.shared.Add(1) // counted on join, so a blocked follower is observable
		s.flightMu.Unlock()
		tel.ev.Coalesce = "follower"
		sp := tel.root.Start("coalesce")
		sp.SetAttr("role", "follower")
		select {
		case <-c.done:
			sp.End()
			tel.engine(c.stats)
			return c.body, c.err
		case <-r.Context().Done():
			err := fmt.Errorf("serve: %w", r.Context().Err())
			sp.Fail(err)
			sp.End()
			return response{}, err
		}
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	s.flightMu.Unlock()
	defer func() {
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		close(c.done)
	}()
	tel.ev.Coalesce = "leader"
	if sp := tel.root.Start("coalesce"); sp != nil {
		sp.SetAttr("role", "leader")
		sp.End()
	}

	// Leader admission: latency shedding first (cheapest check), then the
	// tenant's slot, then a global slot.
	adm := tel.root.Start("admission")
	if s.cfg.TargetP95 > 0 && s.window.p95() > s.cfg.TargetP95 {
		c.err = errShedLatency
		adm.SetAttr("decision", "shed-latency")
		adm.End()
		return response{}, c.err
	}
	release, err := s.admit(ts)
	if err != nil {
		c.err = err
		adm.SetAttr("decision", "shed-quota")
		adm.End()
		return response{}, err
	}
	adm.SetAttr("decision", "admitted")
	adm.End()
	defer release()

	ct, err := s.compiledFor(def, ts.name, lim)
	if err != nil {
		c.err = err
		return response{}, err
	}
	if gate := s.execGate; gate != nil {
		gate()
	}
	if tel.tr != nil {
		runOpts = append(runOpts, xsltdb.WithTrace(tel.tr))
	}
	s.metrics.inFlight.Inc()
	res, err := ct.Run(r.Context(), runOpts...)
	s.metrics.inFlight.Dec()
	if res != nil {
		c.stats = &res.Stats
	}
	arrival := tel.ev.DataVersion
	tel.engine(c.stats)
	if err != nil {
		c.err = err
		return response{}, err
	}
	c.body.rows = len(res.Rows)
	_, _ = res.WriteTo(&c.body) // cannot fail: response's writes never do
	c.body.length = []string{strconv.Itoa(len(c.body.text))}
	// The result is filed under the version the run's snapshot read — the
	// event's, by now — not the one the request saw on arrival: a write that
	// landed in between is in the body, and the key it retired would never be
	// looked up again. The flight stays under the arrival key.
	filed := key
	if tel.ev.DataVersion != arrival {
		filed = execKey(def, tel.ev.ViewVersion, tel.ev.DataVersion, params)
	}
	s.cache.put(filed, c.body)
	return c.body, nil
}

// admit takes the tenant's slot and a global slot, or sheds.
func (s *Server) admit(ts *tenantState) (release func(), err error) {
	if ts.sem != nil {
		select {
		case ts.sem <- struct{}{}:
		default:
			return nil, errShedQuota
		}
	}
	if s.global != nil {
		select {
		case s.global <- struct{}{}:
		default:
			if ts.sem != nil {
				<-ts.sem
			}
			return nil, errShedQuota
		}
	}
	ts.inFlight.Add(1)
	return func() {
		ts.inFlight.Add(-1)
		if s.global != nil {
			<-s.global
		}
		if ts.sem != nil {
			<-ts.sem
		}
	}, nil
}

// compiledFor returns the tenant's compilation of def, compiling on first
// use. The tenant's per-run budgets ride along as compile options; they are
// not part of the plan-cache key, so every tenant shares one cached plan.
func (s *Server) compiledFor(def *transformDef, tenant string, lim xsltdb.TenantLimits) (*xsltdb.CompiledTransform, error) {
	key := compiledKey{name: def.name, tenant: tenant}
	s.mu.RLock()
	ct := s.compiled[key]
	s.mu.RUnlock()
	if ct != nil {
		return ct, nil
	}
	opts := append([]xsltdb.Option{}, def.opts...)
	if lim.Timeout > 0 {
		opts = append(opts, xsltdb.WithTimeout(lim.Timeout))
	}
	if lim.MaxRows > 0 {
		opts = append(opts, xsltdb.WithMaxRows(lim.MaxRows))
	}
	if lim.MaxOutputBytes > 0 {
		opts = append(opts, xsltdb.WithMaxOutputBytes(lim.MaxOutputBytes))
	}
	ct, err := s.db.CompileTransform(def.view, def.sheet, opts...)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if cached := s.compiled[key]; cached != nil {
		ct = cached
	} else {
		s.compiled[key] = ct
	}
	s.mu.Unlock()
	return ct, nil
}

// resolveTenant maps the request's API key to a tenant. With no keys
// configured the server is open and every request is the anonymous tenant.
// The tenant's limits come from the database's registry (RegisterTenant /
// WithTenant); an unregistered tenant runs unlimited.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (string, xsltdb.TenantLimits, bool) {
	if len(s.cfg.APIKeys) == 0 {
		lim, _ := s.db.Tenant("")
		return "", lim, true
	}
	key := r.Header.Get("X-Api-Key")
	if key == "" {
		key = strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	}
	tenant, ok := s.cfg.APIKeys[key]
	if !ok {
		http.Error(w, "serve: unknown API key", http.StatusUnauthorized)
		return "", xsltdb.TenantLimits{}, false
	}
	lim, _ := s.db.Tenant(tenant)
	return tenant, lim, true
}

// tenantState returns (creating on first use) the live admission state.
func (s *Server) tenantState(name string, lim xsltdb.TenantLimits) *tenantState {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	ts := &tenantState{name: name}
	if lim.MaxConcurrent > 0 {
		ts.sem = make(chan struct{}, lim.MaxConcurrent)
	}
	s.tenants[name] = ts
	return ts
}

// TenantInfo is one tenant's admission snapshot, served at the console's
// /tenants endpoint.
type TenantInfo struct {
	Name      string              `json:"name"`
	Limits    xsltdb.TenantLimits `json:"limits"`
	InFlight  int64               `json:"in_flight"`
	Served    uint64              `json:"served"`
	Shed      uint64              `json:"shed"`
	CacheHits uint64              `json:"cache_hits"`
	Coalesced uint64              `json:"coalesced"`
}

// TenantsState snapshots every tenant that has made at least one request.
func (s *Server) TenantsState() []TenantInfo {
	s.tenantMu.Lock()
	states := make([]*tenantState, 0, len(s.tenants))
	for _, ts := range s.tenants {
		states = append(states, ts)
	}
	s.tenantMu.Unlock()
	out := make([]TenantInfo, 0, len(states))
	for _, ts := range states {
		lim, _ := s.db.Tenant(ts.name)
		out = append(out, TenantInfo{
			Name:      ts.name,
			Limits:    lim,
			InFlight:  ts.inFlight.Load(),
			Served:    ts.served.Load(),
			Shed:      ts.shed.Load(),
			CacheHits: ts.cacheHits.Load(),
			Coalesced: ts.coalesced.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CacheStats reports the result cache's live counters.
func (s *Server) CacheStats() ResultCacheStats { return s.cache.stats() }

// statusFor maps shed and engine errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errShedQuota), errors.Is(err, errShedLatency):
		return http.StatusTooManyRequests
	case errors.Is(err, xsltdb.ErrDatabaseClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, xsltdb.ErrBadRunOption), errors.Is(err, xsltdb.ErrUnboundParam):
		return http.StatusBadRequest
	case errors.Is(err, xsltdb.ErrNoView):
		return http.StatusNotFound
	case errors.Is(err, xsltdb.ErrLimitExceeded):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, xsltdb.ErrCanceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// parseRunArgs turns query parameters into run options plus the canonical
// param string folded into the coalesce/cache key: p.<name>=v binds a
// stylesheet parameter, where=<xpath> (repeatable) adds driving predicates.
// Every name, value and predicate enters the string length-prefixed
// (sigField), so no text a client sends can forge a field boundary: two
// requests share a key only when they bind the same parameters and
// predicates.
func parseRunArgs(r *http.Request) ([]xsltdb.RunOption, string, error) {
	q := r.URL.Query()
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var opts []xsltdb.RunOption
	var sig strings.Builder
	for _, k := range keys {
		switch {
		case strings.HasPrefix(k, "p."):
			// Same convention as the xsltdb CLI: integer-looking values
			// bind as int64 (so `deptno = $d` probes an int column),
			// everything else as string.
			name := strings.TrimPrefix(k, "p.")
			v := q.Get(k)
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				opts = append(opts, xsltdb.WithParam(name, n))
			} else {
				opts = append(opts, xsltdb.WithParam(name, v))
			}
			sigField(&sig, 'p', name)
			sigField(&sig, '=', v)
		case k == "where":
			for _, expr := range q[k] {
				opts = append(opts, xsltdb.WithWhere(expr))
				sigField(&sig, 'w', expr)
			}
		default:
			return nil, "", fmt.Errorf("serve: unknown query parameter %q", k)
		}
	}
	return opts, sig.String(), nil
}

// sigField appends one field of the request signature as tag, decimal
// length, ':' and the text itself.
func sigField(sig *strings.Builder, tag byte, text string) {
	var n [20]byte
	sig.WriteByte(tag)
	sig.Write(strconv.AppendInt(n[:0], int64(len(text)), 10))
	sig.WriteByte(':')
	sig.WriteString(text)
}

// execKey is the request identity everything hangs off: view at its MVCC
// version, committed-data version, stylesheet hash, canonical bound params.
// Two requests with equal keys are interchangeable — coalescable and
// cacheable. The view version covers view DDL (ReplaceXMLView bumps it); the
// data version is the store's commit counter, which moves on every applied
// insert and table/index DDL — either kind of write makes every older cached
// result unreachable. A request looks up under the versions it read on
// arrival (its event's); a run files its result under the version its
// snapshot read (ExecStats.DataVersion).
func execKey(def *transformDef, viewVersion int, dataVersion int64, params string) string {
	return def.view + "\x00" + strconv.Itoa(viewVersion) +
		"\x00" + strconv.FormatInt(dataVersion, 10) +
		"\x00" + def.hash + "\x00" + params
}
