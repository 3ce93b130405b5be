package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestArchiveNilIsSafe(t *testing.T) {
	var a *Archive
	if id := a.Record(RunRecord{View: "v"}); id != 0 {
		t.Fatalf("nil Record returned id %d", id)
	}
	if a.Runs(10) != nil || a.Plans() != nil || a.Len() != 0 || a.Cap() != 0 || a.SampleTick() != 0 {
		t.Fatal("nil archive accessors not inert")
	}
	if _, ok := a.Run(1); ok {
		t.Fatal("nil archive returned a record")
	}
}

func TestArchiveRingRetention(t *testing.T) {
	a := NewArchive(4)
	for i := 1; i <= 10; i++ {
		id := a.Record(RunRecord{View: "v", Strategy: "s", Rows: int64(i), Wall: time.Duration(i) * time.Millisecond})
		if id != uint64(i) {
			t.Fatalf("record %d got id %d", i, id)
		}
	}
	if a.Len() != 4 {
		t.Fatalf("Len = %d, want 4", a.Len())
	}
	runs := a.Runs(0)
	if len(runs) != 4 {
		t.Fatalf("Runs returned %d records, want 4", len(runs))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if runs[i].ID != want {
			t.Fatalf("runs[%d].ID = %d, want %d (newest first)", i, runs[i].ID, want)
		}
	}
	if got := a.Runs(2); len(got) != 2 || got[0].ID != 10 || got[1].ID != 9 {
		t.Fatalf("Runs(2) = %v", got)
	}
	// Evicted IDs must not resolve; retained ones must.
	if _, ok := a.Run(6); ok {
		t.Fatal("evicted run 6 still resolves")
	}
	if rec, ok := a.Run(7); !ok || rec.ID != 7 || rec.Rows != 7 {
		t.Fatalf("Run(7) = %+v, %v", rec, ok)
	}
	if _, ok := a.Run(11); ok {
		t.Fatal("future run id resolves")
	}
	if _, ok := a.Run(0); ok {
		t.Fatal("run id 0 resolves")
	}
}

// TestArchiveEvictionKeepsNewerTraceRun: two requests under one upstream
// trace share a trace ID. Evicting the older must leave the newer, still
// retained, reachable by that ID.
func TestArchiveEvictionKeepsNewerTraceRun(t *testing.T) {
	a := NewArchive(2)
	a.Record(RunRecord{View: "v", TraceID: "x"})
	a.Record(RunRecord{View: "v", TraceID: "x"})
	a.Record(RunRecord{View: "v"}) // evicts run 1
	if _, ok := a.Run(2); !ok {
		t.Fatal("run 2 is not retained")
	}
	rec, ok := a.RunByTrace("x")
	if !ok || rec.ID != 2 {
		t.Fatalf("RunByTrace(x) = %+v, %v; want the retained run 2", rec, ok)
	}
	a.Record(RunRecord{View: "v"}) // evicts run 2, the trace's last run
	if _, ok := a.RunByTrace("x"); ok {
		t.Fatal("trace x still resolves after its last run was evicted")
	}
}

func TestArchivePlanAggregates(t *testing.T) {
	a := NewArchive(8)
	// Two plans: "a" gets 7 successful runs with growing wall times (so the
	// top-K drops the fastest two), "b" gets one error run.
	for i := 1; i <= 7; i++ {
		a.Record(RunRecord{View: "a", Strategy: "sql-rewrite", Rows: 2,
			Wall: time.Duration(i) * 10 * time.Millisecond})
	}
	a.Record(RunRecord{View: "b", Strategy: "no-rewrite", Error: "boom"})

	plans := a.Plans()
	if len(plans) != 2 {
		t.Fatalf("Plans returned %d aggregates, want 2", len(plans))
	}
	pa, pb := plans[0], plans[1]
	if pa.View != "a" || pb.View != "b" {
		t.Fatalf("plans not sorted by view: %q, %q", pa.View, pb.View)
	}
	if pa.Calls != 7 || pa.Errors != 0 || pa.Rows != 14 {
		t.Fatalf("plan a aggregate = %+v", pa)
	}
	if pb.Calls != 1 || pb.Errors != 1 {
		t.Fatalf("plan b aggregate = %+v", pb)
	}
	if len(pa.Slowest) != archiveTopK {
		t.Fatalf("plan a retained %d slowest, want %d", len(pa.Slowest), archiveTopK)
	}
	for i := 1; i < len(pa.Slowest); i++ {
		if pa.Slowest[i-1].Wall < pa.Slowest[i].Wall {
			t.Fatalf("slowest not ordered: %v before %v", pa.Slowest[i-1].Wall, pa.Slowest[i].Wall)
		}
	}
	if pa.Slowest[0].Wall != 70*time.Millisecond || pa.Slowest[4].Wall != 30*time.Millisecond {
		t.Fatalf("top-K kept wrong runs: slowest=%v fifth=%v", pa.Slowest[0].Wall, pa.Slowest[4].Wall)
	}
	// Quantiles come from a histogram, so just sanity-bound them: all
	// observations fell in (10ms, 70ms] and p99 >= p50 > 0.
	if pa.P50 <= 0 || pa.P99 < pa.P50 || pa.P99 > time.Second {
		t.Fatalf("implausible quantiles p50=%v p95=%v p99=%v", pa.P50, pa.P95, pa.P99)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newStandaloneHistogram([]float64{1, 2, 4})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	// 10 observations in (1,2], 10 in (2,4]: the median sits at the
	// boundary, p99 interpolates near the top of the (2,4] bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
		h.Observe(3.0)
	}
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	if q := h.Quantile(0.99); q < 2 || q > 4 {
		t.Fatalf("p99 = %v, want within (2,4]", q)
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p99 <= p50 {
		t.Fatalf("p99 %v <= p50 %v", p99, p50)
	}
	// Overflow observations clamp to the top finite bound instead of +Inf.
	h2 := newStandaloneHistogram([]float64{1, 2})
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %v, want top finite bound 2", q)
	}
}

func TestConsoleEndpoints(t *testing.T) {
	a := NewArchive(8)
	reg := NewRegistry()
	reg.NewCounter("console_test_total", "test counter").Add(3)
	id := a.Record(RunRecord{Kind: "run", View: "v", Strategy: "sql-rewrite",
		Rows: 2, Wall: 5 * time.Millisecond, Sampled: true, Trace: "run 5ms"})

	h := ConsoleHandler(ConsoleConfig{
		Archive: a, Metrics: Scrape{reg},
		Plans: func() any { return []string{"entry"} },
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string, wantCode int) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d (body %q)", path, resp.StatusCode, wantCode, b)
		}
		return string(b)
	}

	if body := get("/", 200); !strings.Contains(body, "/runs") {
		t.Fatalf("index missing endpoint listing: %q", body)
	}
	get("/nope", 404)

	var runs []RunRecord
	if err := json.Unmarshal([]byte(get("/runs?n=10", 200)), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != id {
		t.Fatalf("/runs = %+v", runs)
	}

	var rec RunRecord
	if err := json.Unmarshal([]byte(get(fmt.Sprintf("/runs/%d", id), 200)), &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Sampled || rec.Trace == "" {
		t.Fatalf("/runs/%d lost the sampled trace: %+v", id, rec)
	}
	get("/runs/999", 404)
	get("/runs/xyz", 400)

	var plans struct {
		Cache      []string        `json:"cache"`
		Aggregates []PlanAggregate `json:"aggregates"`
	}
	if err := json.Unmarshal([]byte(get("/plans", 200)), &plans); err != nil {
		t.Fatal(err)
	}
	if len(plans.Cache) != 1 || plans.Cache[0] != "entry" || len(plans.Aggregates) != 1 {
		t.Fatalf("/plans = %+v", plans)
	}

	if body := get("/metrics", 200); !strings.Contains(body, "console_test_total 3") {
		t.Fatalf("/metrics missing counter: %q", body)
	}
	if body := get("/debug/pprof/cmdline", 200); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// TestConsoleDisabledSources: every endpoint keeps working when the archive
// and registry are absent — the console must not panic on a database
// that never called EnableRunHistory.
func TestConsoleDisabledSources(t *testing.T) {
	srv := httptest.NewServer(ConsoleHandler(ConsoleConfig{}))
	defer srv.Close()
	for _, path := range []string{"/", "/runs", "/plans"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d with nil sources", path, resp.StatusCode)
		}
	}
}
