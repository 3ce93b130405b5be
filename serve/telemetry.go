package serve

// Per-request telemetry: W3C trace-context propagation and the wide event
// each request emits. beginTelemetry runs first thing in the handler — it
// parses or mints the traceparent, decides whether this request carries an
// engine trace, and prefills the event with the request's identity.
// finishTelemetry runs exactly once per request, whatever the outcome: it
// closes the serve-layer root span, completes the event (outcome, engine
// work, WAL attribution, latency breakdown), publishes it, and folds the
// request into the per-tenant latency and SLO instruments.

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
	// supplied reports whether the caller sent a valid traceparent.
	supplied bool
	// tr is the request's engine trace (nil when this request is untraced);
	// root is its serve-layer "http" root span.
	tr   *obs.Trace
	root *obs.Span
	// ev accumulates the wide event; handler code fills fields as decisions
	// are made, finishTelemetry completes and publishes it.
	ev obs.Event
	// seq is the sampling sequence number shared by the trace and event
	// sampling decisions.
	seq uint64
	// walAppends0/walFsyncs0 snapshot the process WAL counters at request
	// start; the deltas at finish are the event's WAL attribution.
	walAppends0, walFsyncs0 int64
}

// beginTelemetry establishes the request's trace identity and telemetry
// state. A request is traced through the engine when the caller supplied a
// traceparent (an upstream asked for this request specifically) or when the
// server's TraceSampling policy selects it.
func (s *Server) beginTelemetry(r *http.Request, def *transformDef, tenant string) *reqTel {
	tel := &reqTel{start: time.Now(), seq: s.telemetrySeq.Add(1)}
	if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		tel.tc = tc.WithNewSpan()
		tel.supplied = true
	} else {
		tel.tc = obs.NewTraceContext()
	}
	tel.id = tel.tc.TraceIDString()

	if tel.supplied || s.cfg.TraceSampling.WantTrace(tel.seq) {
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
	tel.walAppends0, tel.walFsyncs0 = xsltdb.WALCounters()
	return tel
}

// finishTelemetry completes the request's wide event and publishes it,
// closes the serve-layer span tree, records per-tenant latency and SLO
// state, and releases the trace. Called exactly once per request.
func (s *Server) finishTelemetry(tel *reqTel, tenant, outcome string, status int, err error, stats *xsltdb.ExecStats) {
	total := time.Since(tel.start)

	tel.ev.Outcome = outcome
	tel.ev.Status = status
	tel.ev.TotalNS = int64(total)
	if err != nil {
		tel.ev.Error = err.Error()
	}
	if stats != nil {
		tel.ev.Strategy = stats.StrategyUsed.String()
		tel.ev.AccessPath = stats.AccessPath
		tel.ev.Rows = stats.RowsProduced
		tel.ev.GovTicks = stats.GovTicks
		tel.ev.CompileNS = int64(stats.CompileWall)
		tel.ev.ExecNS = int64(stats.ExecWall)
	}
	appends, fsyncs := xsltdb.WALCounters()
	tel.ev.WalAppends = appends - tel.walAppends0
	tel.ev.WalFsyncs = fsyncs - tel.walFsyncs0

	if tel.root != nil {
		tel.root.SetAttr("status", status)
		tel.root.Fail(err)
		tel.root.End()
	}
	if tel.tr != nil {
		// The engine archived any leader run under this trace ID; the run ID
		// joins the event to /runs/<id> in the console.
		if rec, ok := s.db.RunHistory().RunByTrace(tel.id); ok {
			tel.ev.RunID = rec.ID
		}
	}

	if s.events != nil && s.eventSelected(tel.seq, total, err) {
		if s.events.Publish(tel.ev) {
			mEventsPublished.Inc()
		}
	}

	mTenantRequestSeconds.With(tenant).Observe(total.Seconds())
	failed := status >= 500 || status == http.StatusTooManyRequests
	if s.slo != nil {
		mSLOBurnRate.With(tenant).Set(s.slo.record(tenant, total, failed))
	}

	tel.tr.Release()
}

// eventSelected applies the event-sampling policy: the zero policy emits an
// event for every request, a configured policy decides per request.
func (s *Server) eventSelected(seq uint64, total time.Duration, err error) bool {
	if s.cfg.EventSampling == (xsltdb.TraceSampling{}) {
		return true
	}
	return s.cfg.EventSampling.Sample(seq, total, err)
}

// requestIDSuffix is appended to shed and server-error bodies so a caller
// holding only the error text can still quote the request to an operator.
func requestIDSuffix(tel *reqTel) string {
	return " (request_id " + tel.id + ")"
}
