// Command xsltd is the production serving daemon: it exposes compiled
// transforms over HTTP with request coalescing, a bounded result cache, and
// per-tenant admission control (see the serve package).
//
//	xsltd [-listen :8080] [-console-addr :6060] [-dir path]
//	      [-api-key key=tenant ...] [-tenant name=maxconcurrent ...]
//	      [-cache n] [-max-inflight n] [-target-p95 d]
//	      [-events-file path] [-events-buffer n]
//	      [-slo-target d] [-slo-objective f]
//	      [-diag-dir path] [-diag-max-bundles n] [-diag-debounce d]
//
// With -dir the database is durable (WAL-backed, replayed on start);
// without it xsltd serves the paper's in-memory dept/emp demo database with
// the paper stylesheet registered as "paper":
//
//	xsltd -listen :8080 &
//	curl http://localhost:8080/v1/transform/paper
//	curl http://localhost:8080/v1/transform/paper   # X-Xsltd-Cache: hit
//
// -api-key (repeatable) maps an API key to a tenant name; once any key is
// configured requests must authenticate. -tenant (repeatable) registers a
// tenant's concurrency cap. -target-p95 enables latency shedding: while the
// sliding p95 exceeds it, new executions get 429 + Retry-After.
//
// Telemetry: every request gets (or propagates) a W3C traceparent and
// returns its trace ID as X-Request-Id. -events-file writes one wide event
// per request as NDJSON ("-" = stdout). The wide-event pipeline also feeds
// the console's /events page whenever the console is on, and the flight
// recorder's events.json whenever -diag-dir is set. -slo-target and
// -slo-objective parameterize the per-tenant SLO burn-rate gauge.
//
// Diagnostics: -diag-dir turns on the anomaly-triggered flight recorder —
// detectors check the process's own signals every 5s (the p95 that
// -target-p95 sheds on vs its trailing baseline, SLO burn rate, strategy degradations, WAL fsync stalls,
// snapshot-pin age, event drops, goroutine count) and capture a diagnostic
// bundle (profiles, metrics, recent events, plan and run state) under
// -diag-dir when one fires, debounced by -diag-debounce and retained up to
// -diag-max-bundles. The console serves /debug/anomalies and /debug/bundle.
// The public API serves /readyz (readiness: startup complete and not
// shedding) next to the /healthz liveness probe.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	xsltdb "repro"
	"repro/internal/obs"
	"repro/internal/sqlxml"
	"repro/internal/xslt"
	"repro/serve"
)

func main() {
	fs := flag.NewFlagSet("xsltd", flag.ExitOnError)
	listen := fs.String("listen", ":8080", "address for the public v1 API")
	consoleAddr := fs.String("console-addr", "", "address for the debug console (runs, plans, tenants, metrics, pprof); empty = off")
	dir := fs.String("dir", "", "WAL directory for a durable database; empty = in-memory demo data")
	cache := fs.Int("cache", 256, "result-cache capacity in entries (negative disables)")
	maxInFlight := fs.Int("max-inflight", 0, "global cap on concurrent executions (0 = unlimited)")
	targetP95 := fs.Duration("target-p95", 0, "shed new executions while sliding p95 exceeds this (0 = off)")
	eventsFile := fs.String("events-file", "", "write wide events as NDJSON to this file (\"-\" = stdout); empty = off")
	eventsBuffer := fs.Int("events-buffer", 0, "event-bus buffer size (0 = default); overflow drops events, never blocks requests")
	sloTarget := fs.Duration("slo-target", 0, "per-request latency objective for the SLO burn-rate gauge (0 = target-p95)")
	sloObjective := fs.Float64("slo-objective", 0.99, "fraction of requests that must meet the SLO target")
	diagDir := fs.String("diag-dir", "", "capture anomaly-triggered diagnostic bundles under this directory; empty = off")
	diagMaxBundles := fs.Int("diag-max-bundles", 8, "diagnostic bundles retained before the oldest are pruned")
	diagDebounce := fs.Duration("diag-debounce", time.Minute, "minimum gap between anomaly-triggered bundles")
	apiKeys := map[string]string{}
	fs.Func("api-key", "key=tenant mapping (repeatable); configuring any key requires authentication", func(v string) error {
		key, tenant, ok := strings.Cut(v, "=")
		if !ok || key == "" {
			return fmt.Errorf("want key=tenant, got %q", v)
		}
		apiKeys[key] = tenant
		return nil
	})
	type tenantCap struct {
		name string
		max  int
	}
	var tenantCaps []tenantCap
	fs.Func("tenant", "name=maxconcurrent tenant registration (repeatable)", func(v string) error {
		name, maxText, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want name=maxconcurrent, got %q", v)
		}
		n, err := strconv.Atoi(maxText)
		if err != nil {
			return fmt.Errorf("bad maxconcurrent in %q: %w", v, err)
		}
		tenantCaps = append(tenantCaps, tenantCap{name, n})
		return nil
	})
	_ = fs.Parse(os.Args[1:])

	var openOpts []xsltdb.OpenOption
	if *dir != "" {
		openOpts = append(openOpts, xsltdb.WithDir(*dir))
	}
	for _, tc := range tenantCaps {
		openOpts = append(openOpts, xsltdb.WithTenant(tc.name, xsltdb.TenantLimits{MaxConcurrent: tc.max}))
	}
	db, err := xsltdb.Open(openOpts...)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if *dir == "" {
		if err := setupDemo(db); err != nil {
			fatal(err)
		}
	}

	var eventSinks []obs.EventSink
	if *eventsFile != "" {
		w := io.Writer(os.Stdout)
		if *eventsFile != "-" {
			f, err := os.OpenFile(*eventsFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		eventSinks = append(eventSinks, obs.NewNDJSONSink(w))
	}

	srv, err := serve.New(serve.Config{
		DB:             db,
		APIKeys:        apiKeys,
		CacheCapacity:  *cache,
		MaxInFlight:    *maxInFlight,
		TargetP95:      *targetP95,
		EnableEvents:   *consoleAddr != "",
		EventSinks:     eventSinks,
		EventBuffer:    *eventsBuffer,
		SLOTarget:      *sloTarget,
		SLOObjective:   *sloObjective,
		DiagDir:        *diagDir,
		DiagMaxBundles: *diagMaxBundles,
		DiagDebounce:   *diagDebounce,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	if *dir == "" {
		if err := srv.RegisterTransform("paper", "dept_emp", xslt.PaperStylesheet); err != nil {
			fatal(err)
		}
		fmt.Println("demo database loaded; transform \"paper\" registered over view dept_emp")
	}

	if *consoleAddr != "" {
		db.EnableRunHistory(0)
		go func() {
			if err := http.ListenAndServe(*consoleAddr, srv.Console()); err != nil {
				fatal(err)
			}
		}()
		fmt.Printf("debug console at http://%s/ (runs, events, plans, tenants, metrics, pprof)\n", *consoleAddr)
	}

	// Startup is complete: the database is open (WAL replayed for durable
	// dirs) and every transform is registered. /readyz flips to 200.
	srv.MarkReady()

	fmt.Printf("xsltd serving at http://%s/v1/transform/<name>\n", *listen)
	server := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := server.ListenAndServe(); err != nil {
		fatal(err)
	}
}

// setupDemo loads the paper's dept/emp tables, view, and indexes.
func setupDemo(db *xsltdb.Database) error {
	if err := sqlxml.SetupDeptEmp(db.Rel()); err != nil {
		return err
	}
	if err := db.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		return err
	}
	if err := db.CreateIndex("emp", "sal"); err != nil {
		return err
	}
	return db.CreateIndex("emp", "deptno")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xsltd:", err)
	os.Exit(1)
}
