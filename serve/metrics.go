package serve

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs"
)

// serverMetrics are the serving layer's instruments, on a registry the
// Server owns; its /metrics and bundles scrape it with the database's
// (Server.scrape), so two servers over one database count apart. One fact,
// one family: none of these is a sum or a slice of another, and all but the
// in-flight gauge and the eviction counter are updated in exactly one place,
// the request fold (Server.account). The result cache's own hit/miss counts
// are CacheStats; the bus's published/delivered counts are EventBus.Stats.
type serverMetrics struct {
	reg            *obs.Registry
	requests       *obs.CounterVec
	requestSeconds *obs.HistogramVec
	sheds          *obs.CounterVec
	coalesceHits   *obs.Counter
	cacheEvictions *obs.Counter
	inFlight       *obs.Gauge
	sloBurnRate    *obs.GaugeVec
	eventsDropped  *obs.Counter
}

func newServerMetrics() serverMetrics {
	reg := obs.NewRegistry()
	return serverMetrics{
		reg: reg,
		requests: reg.NewCounterVec("xsltd_requests_total",
			"HTTP transform requests by tenant and outcome (ok, cache-hit, shed, error).",
			"tenant", "outcome"),
		requestSeconds: reg.NewHistogramVec("xsltd_request_seconds",
			"End-to-end HTTP request latency in seconds, by tenant.", nil, "tenant"),
		sheds: reg.NewCounterVec("xsltd_sheds_total",
			"Requests shed with 429, by tenant and reason (quota, latency).", "tenant", "reason"),
		coalesceHits: reg.NewCounter("xsltd_coalesce_hits_total",
			"Requests that joined an identical in-flight execution instead of running."),
		cacheEvictions: reg.NewCounter("xsltd_result_cache_evictions_total",
			"Result-cache entries evicted by the LRU bound."),
		inFlight: reg.NewGauge("xsltd_inflight_executions",
			"Transform executions currently running on behalf of HTTP requests."),
		sloBurnRate: reg.NewGaugeVec("xsltd_slo_burn_rate_milli",
			"Per-tenant SLO burn rate ×1000 over the sliding request window: "+
				"1000 means errors are arriving exactly at the rate the objective's "+
				"error budget allows; above that the budget is burning down.", "tenant"),
		eventsDropped: reg.NewCounter("xsltd_events_dropped_total",
			"Wide events dropped because the event-bus buffer was full."),
	}
}

// writeJSON renders v indented, matching the debug console's style.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
