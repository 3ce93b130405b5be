package serve

// Per-request telemetry: W3C trace-context propagation, the wide event each
// request fills in, and the one fold that accounts it. beginTelemetry runs
// first thing in the handler — it parses or mints the traceparent, decides
// whether this request carries an engine trace, and prefills the event with
// the request's identity and the versions it read. The handler then records
// its decisions in the event and nothing else; account runs exactly once per
// request, whatever the outcome, and is the only place a request moves a
// tenant counter, a metric, the admission window, the SLO gauge or the bus —
// so those signals agree by construction.

import (
	"net/http"
	"time"

	"repro"
	"repro/internal/obs"
)

// reqTel threads one request's telemetry through the handler.
type reqTel struct {
	start time.Time
	// tc is the response-facing trace context: the caller's trace ID (or a
	// freshly minted one) with this server's own span ID.
	tc obs.TraceContext
	// id is the 32-hex trace ID — the X-Request-Id and the archive key.
	id string
	// tr is the request's engine trace (nil when this request is untraced);
	// root is its serve-layer "http" root span.
	tr   *obs.Trace
	root *obs.Span
	// ev accumulates the wide event; handler code fills fields as decisions
	// are made, account completes, folds and publishes it.
	ev obs.Event
}

// beginTelemetry establishes the request's trace identity and telemetry
// state. A request is traced through the engine when the caller supplied a
// traceparent: an upstream asked for this request specifically. The view and
// data versions are read here, once — the cache key is built from the event's
// copy, so the two cannot differ.
func (s *Server) beginTelemetry(r *http.Request, def *transformDef, tenant string) *reqTel {
	tel := &reqTel{start: time.Now()}
	tc, supplied := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if supplied {
		tel.tc = tc.WithNewSpan()
	} else {
		tel.tc = obs.NewTraceContext()
	}
	tel.id = tel.tc.TraceIDString()
	if supplied {
		tel.tr = obs.New()
		tel.tr.SetID(tel.id)
		tel.root = tel.tr.Start("http")
		tel.root.SetAttr("transform", def.name)
		tel.root.SetAttr("tenant", tenant)
	}

	tel.ev = obs.Event{
		Time:        tel.start,
		TraceID:     tel.id,
		RequestID:   tel.id,
		Tenant:      tenant,
		Transform:   def.name,
		View:        def.view,
		ViewVersion: s.db.ViewVersion(def.view),
		DataVersion: s.db.Rel().CommitSeq(),
		SheetHash:   def.hash,
	}
	return tel
}

// engine copies a run's ExecStats into the event — the leader's own run, or
// the one a follower shared; nil (no run happened) leaves the event as is.
// DataVersion becomes the version the run's snapshot read.
func (tel *reqTel) engine(stats *xsltdb.ExecStats) {
	if stats == nil {
		return
	}
	ev := &tel.ev
	ev.DataVersion = stats.DataVersion
	ev.Strategy = stats.StrategyUsed.String()
	ev.AccessPath = stats.AccessPath
	ev.Rows = stats.RowsProduced
	ev.GovTicks = stats.GovTicks
	ev.CompileNS = int64(stats.CompileWall)
	ev.ExecNS = int64(stats.ExecWall)
}

// fail answers the request with err and records it as the event's outcome:
// "shed" when an admission rule refused it, "error" otherwise. Shed and
// server-error bodies quote the request ID, so a caller holding only the
// error text can still hand an operator the exact request.
func (tel *reqTel) fail(w http.ResponseWriter, status int, err error) {
	ev := &tel.ev
	ev.Outcome, ev.Status, ev.Error = "error", status, err.Error()
	if ev.ShedReason != "" {
		ev.Outcome = "shed"
	}
	tel.root.Fail(err)
	body := ev.Error
	if status >= 500 || status == http.StatusTooManyRequests {
		body += " (request_id " + tel.id + ")"
	}
	http.Error(w, body, status)
}

// account is the request fold: it completes the wide event (latency, the
// archived run's ID), closes the serve-layer span tree, and
// updates — once each, from the event alone — the tenant's counters, the
// process metrics, the admission window, the SLO gauge and the event bus.
func (s *Server) account(tel *reqTel, ts *tenantState) {
	ev := &tel.ev
	total := time.Since(tel.start)
	ev.TotalNS = int64(total)
	if tel.tr != nil {
		tel.root.SetAttr("status", ev.Status)
		tel.root.End()
		// The engine archived any leader run under this trace ID; the run ID
		// joins the event to /runs/<id> in the console.
		if rec, ok := s.db.RunHistory().RunByTrace(tel.id); ok {
			ev.RunID = rec.ID
		}
	}

	switch ev.Outcome {
	case "ok", "cache-hit":
		ts.served.Add(1)
		if ev.Cache == "hit" {
			ts.cacheHits.Add(1)
		}
		if ev.Coalesce == "follower" {
			ts.coalesced.Add(1)
			s.metrics.coalesceHits.Inc()
		}
	case "shed":
		ts.shed.Add(1)
		s.metrics.sheds.With(ts.name, ev.ShedReason).Inc()
	}
	s.metrics.requests.With(ts.name, ev.Outcome).Inc()
	s.metrics.requestSeconds.With(ts.name).Observe(total.Seconds())
	s.window.record(total)
	failed := ev.Status >= 500 || ev.Status == http.StatusTooManyRequests
	s.metrics.sloBurnRate.With(ts.name).Set(s.slo.record(ts.name, total, failed))
	if s.events != nil && !s.events.Publish(*ev) {
		s.metrics.eventsDropped.Inc()
	}
	tel.tr.Release()
}
