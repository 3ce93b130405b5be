package obs

// The live debug console: one http.Handler serving the retention layer —
// archived runs with their traces, per-plan aggregates and plan-cache
// entries, the metrics scrape, and the runtime pprof endpoints (strategy
// execution runs under pprof labels, so CPU profiles segment by strategy and
// view). Everything is stdlib-only and read-only; mount it on an internal
// port (cmd/xsltdb -console-addr).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// ConsoleConfig wires the console's data sources. Any field may be nil/zero;
// the corresponding endpoint then serves an empty value.
type ConsoleConfig struct {
	// Archive is the run-history ring (EnableRunHistory).
	Archive *Archive
	// Metrics is served at /metrics.
	Metrics Scrape
	// Plans returns the engine's plan-cache entries; the result is marshaled
	// as-is under the "cache" key of /plans. Kept as `any` so the engine
	// package can pass its own entry type without obs depending on it.
	Plans func() any
	// Tenants returns the serving layer's per-tenant admission state
	// (limits, in-flight counts, shed totals), marshaled as-is at /tenants.
	// Like Plans it stays `any` so obs does not depend on the serve package.
	Tenants func() any
	// Events returns the serving layer's most recent wide events (newest
	// first, up to n) plus the event-bus counters, served at /events.
	// tenant and trace, when non-empty, restrict the result to events of
	// that tenant / that 32-hex trace ID (?tenant= and ?trace=).
	Events func(n int, tenant, trace string) any
	// Anomalies returns the diagnostics monitor's state — installed
	// detectors plus recent anomalies, newest first — for /debug/anomalies.
	Anomalies func(n int) any
	// Bundles lists the retained diagnostic bundles (GET /debug/bundle).
	Bundles func() any
	// CaptureBundle captures a diagnostic bundle on demand and returns its
	// directory (POST /debug/bundle).
	CaptureBundle func() (string, error)
}

// ConsoleHandler builds the debug console. Every page is registered through
// one helper that also writes its line of the index at "/", so the index
// cannot list a page the mux does not serve (TestSignalSurface in serve pins
// the list). <id> in /runs/<id> is the archive sequence number or a request's
// 32-hex trace ID (the X-Request-Id a served request returned); CPU samples
// under /debug/pprof/ carry strategy/view labels.
func ConsoleHandler(cfg ConsoleConfig) http.Handler {
	mux := http.NewServeMux()
	index := "xsltdb debug console\n\n"
	// usage is the mux pattern plus, for the index only, a sample query or
	// an <id> placeholder.
	page := func(usage, help string, h http.HandlerFunc) {
		pattern, _, _ := strings.Cut(usage, "?")
		mux.HandleFunc(strings.TrimSuffix(pattern, "<id>"), h)
		index += fmt.Sprintf("  %-17s %s\n", usage, help)
	}
	page("/runs?n=50", "recent runs (newest first)", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, cfg.Archive.Runs(queryInt(r, "n", 50)))
	})
	page("/runs/<id>", "one run in full, with its sampled trace (<id>: sequence number or 32-hex trace ID)", func(w http.ResponseWriter, r *http.Request) {
		idText := strings.TrimPrefix(r.URL.Path, "/runs/")
		var rec RunRecord
		var ok bool
		if id, err := strconv.ParseUint(idText, 10, 64); err == nil {
			rec, ok = cfg.Archive.Run(id)
		} else if len(idText) == 32 {
			rec, ok = cfg.Archive.RunByTrace(idText)
		} else {
			http.Error(w, "bad run id "+strconv.Quote(idText), http.StatusBadRequest)
			return
		}
		if !ok {
			http.Error(w, "run "+idText+" not retained", http.StatusNotFound)
			return
		}
		writeJSON(w, rec)
	})
	page("/events?n=50", "recent wide events (newest first, when serving); ?tenant=<name> and ?trace=<32-hex> filter", func(w http.ResponseWriter, r *http.Request) {
		var events any
		if cfg.Events != nil {
			q := r.URL.Query()
			events = cfg.Events(queryInt(r, "n", 50), q.Get("tenant"), q.Get("trace"))
		}
		writeJSON(w, events)
	})
	page("/plans", "plan-cache entries + per-plan aggregates (p50/p95/p99, top-K slowest)", func(w http.ResponseWriter, _ *http.Request) {
		var cache any
		if cfg.Plans != nil {
			cache = cfg.Plans()
		}
		writeJSON(w, map[string]any{
			"cache":      cache,
			"aggregates": cfg.Archive.Plans(),
		})
	})
	page("/tenants", "per-tenant admission state (when serving)", func(w http.ResponseWriter, _ *http.Request) {
		var tenants any
		if cfg.Tenants != nil {
			tenants = cfg.Tenants()
		}
		writeJSON(w, tenants)
	})
	page("/debug/anomalies", "diagnostics: installed detectors + recent anomalies", func(w http.ResponseWriter, r *http.Request) {
		var anomalies any
		if cfg.Anomalies != nil {
			anomalies = cfg.Anomalies(queryInt(r, "n", 50))
		}
		writeJSON(w, anomalies)
	})
	page("/debug/bundle", "GET lists diagnostic bundles; POST captures one now", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			if cfg.CaptureBundle == nil {
				http.Error(w, "diagnostics recorder not enabled (-diag-dir)", http.StatusNotImplemented)
				return
			}
			dir, err := cfg.CaptureBundle()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, map[string]string{"bundle": dir})
		default:
			var bundles any
			if cfg.Bundles != nil {
				bundles = cfg.Bundles()
			}
			writeJSON(w, bundles)
		}
	})
	if cfg.Metrics != nil {
		page("/metrics", "Prometheus text exposition", cfg.Metrics.Handler().ServeHTTP)
	}
	page("/debug/pprof/", "runtime profiles (CPU samples labeled strategy/view)", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, index)
	})
	return mux
}

// queryInt reads an integer query parameter with a default.
func queryInt(r *http.Request, name string, def int) int {
	if v := r.URL.Query().Get(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// writeJSON renders v indented; the console is for humans with curl.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
