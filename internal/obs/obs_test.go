package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceAndSpanAreNoOps(t *testing.T) {
	var tr *Trace
	sp := tr.Start("run")
	if sp != nil {
		t.Fatal("nil trace must yield nil spans")
	}
	child := sp.Start("child")
	if child != nil {
		t.Fatal("nil span must yield nil children")
	}
	// None of these may panic.
	sp.End()
	sp.Observe(time.Millisecond)
	sp.ObserveSince(time.Now())
	sp.AddRowsIn(1)
	sp.AddRowsOut(1)
	sp.SetAttr("k", "v")
	sp.Fail(nil)
	if tr.Tree() != "" || tr.Find("run") != nil || tr.Roots() != nil {
		t.Fatal("nil trace must render empty")
	}
	tr.Release()
}

func TestSpanTreeAndJSON(t *testing.T) {
	tr := New()
	run := tr.Start("run")
	run.SetAttr("strategy", "sql-rewrite")
	scan := run.Start("scan")
	scan.SetAttr("path", "INDEX PROBE row(id) id = 1")
	scan.Observe(2 * time.Millisecond)
	scan.Observe(1 * time.Millisecond)
	scan.AddRowsOut(2)
	ser := run.Start("serialize")
	ser.AddRowsIn(2)
	ser.End()
	run.End()

	tree := tr.Tree()
	for _, want := range []string{"run", "scan", "serialize", "rows_out=2", "calls=2", "strategy=sql-rewrite"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	if sp := tr.Find("scan"); sp == nil || sp.Duration() != 3*time.Millisecond {
		t.Fatalf("Find(scan) = %v (dur %v)", sp, sp.Duration())
	}

	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var spans []SpanJSON
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "run" || len(spans[0].Children) != 2 {
		t.Fatalf("unexpected JSON shape: %+v", spans)
	}
	if spans[0].Children[0].Attrs["path"] == "" {
		t.Fatalf("scan attrs lost: %+v", spans[0].Children[0])
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := New()
	sp := tr.Start("phase")
	sp.End()
	d := sp.Duration()
	time.Sleep(2 * time.Millisecond)
	sp.End() // must not add more time
	if sp.Duration() != d {
		t.Fatalf("double End extended the span: %v -> %v", d, sp.Duration())
	}
}

func TestErrorTagging(t *testing.T) {
	tr := New()
	sp := tr.Start("attempt")
	sp.Fail(errBoom{})
	sp.End()
	if !strings.Contains(tr.Tree(), `ERROR="boom"`) {
		t.Fatalf("tree missing error tag:\n%s", tr.Tree())
	}
	if tr.Export()[0].Error != "boom" {
		t.Fatal("JSON missing error tag")
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestReleaseRecyclesSpans(t *testing.T) {
	tr := New()
	sp := tr.Start("run")
	sp.Start("child").End()
	sp.End()
	tr.Release()
	if len(tr.Roots()) != 0 {
		t.Fatal("release must empty the trace")
	}
	// The trace is reusable afterwards.
	tr.Start("again").End()
	if tr.Find("again") == nil {
		t.Fatal("trace not reusable after Release")
	}
}

func TestConcurrentSpanWrites(t *testing.T) {
	tr := New()
	op := tr.Start("op")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				op.Observe(time.Microsecond)
				op.AddRowsOut(1)
			}
		}()
	}
	wg.Wait()
	if got := tr.Export()[0]; got.Count != 8000 || got.RowsOut != 8000 {
		t.Fatalf("lost updates: count=%d rows_out=%d", got.Count, got.RowsOut)
	}
}

func TestCounterGaugeText(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("runs_total", "Total runs.", "strategy", "outcome")
	c.With("sql-rewrite", "ok").Add(3)
	c.With("no-rewrite", "error").Inc()
	g := r.NewGauge("active_cursors", "Open cursors.")
	g.Inc()
	g.Inc()
	g.Dec()

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP runs_total Total runs.",
		"# TYPE runs_total counter",
		`runs_total{strategy="sql-rewrite",outcome="ok"} 3`,
		`runs_total{strategy="no-rewrite",outcome="error"} 1`,
		"# TYPE active_cursors gauge",
		"active_cursors 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if c.With("sql-rewrite", "ok").Value() != 3 {
		t.Fatal("counter read-back broken")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("run_seconds", "Run latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // first bucket
	h.Observe(0.05)  // second
	h.Observe(0.5)   // third
	h.Observe(5)     // overflows to +Inf only

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`run_seconds_bucket{le="0.01"} 1`,
		`run_seconds_bucket{le="0.1"} 2`,
		`run_seconds_bucket{le="1"} 3`,
		`run_seconds_bucket{le="+Inf"} 4`,
		`run_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if s := h.Sum(); s < 5.5 || s > 5.6 {
		t.Fatalf("histogram sum = %v", s)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("c_total", "c")
	b := r.NewCounter("c_total", "c")
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("re-registration must return the same series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema mismatch must panic")
		}
	}()
	r.NewGauge("c_total", "now a gauge")
}

func TestConcurrentRegistryWrites(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("work_total", "", "kind")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := []string{"a", "b"}[i%2]
			c := cv.With(kind)
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := cv.With("a").Value() + cv.With("b").Value(); got != 8000 {
		t.Fatalf("lost counter updates: %d", got)
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("hits_total", "hits").Inc()
	srv := httptest.NewServer(Scrape{r}.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "hits_total 1") {
		t.Fatalf("handler output missing counter: %q", string(buf[:n]))
	}
}

// TestScrapeMergesRegistries: a scrape renders several registries as one
// exposition sorted by family name, and refuses a family name two of them
// register before it writes a byte, so its handler answers 500.
func TestScrapeMergesRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.NewCounter("b_total", "b").Inc()
	b.NewCounter("a_total", "a").Add(2)
	b.NewGauge("c", "c").Set(3)
	var sb strings.Builder
	if _, err := (Scrape{a, b}).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP a_total a\n# TYPE a_total counter\na_total 2\n" +
		"# HELP b_total b\n# TYPE b_total counter\nb_total 1\n" +
		"# HELP c c\n# TYPE c gauge\nc 3\n"
	if sb.String() != want {
		t.Fatalf("merged scrape:\n%s\nwant:\n%s", sb.String(), want)
	}

	a.NewGauge("c", "c again")
	sb.Reset()
	if n, err := (Scrape{a, b}).WriteTo(&sb); err == nil || n != 0 || !strings.Contains(err.Error(), "metric c ") {
		t.Fatalf("family in two registries: wrote %d bytes, err %v; want an error before any byte", n, err)
	}
	rec := httptest.NewRecorder()
	Scrape{a, b}.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 500 {
		t.Fatalf("handler over a conflicting scrape = %d, want 500", rec.Code)
	}
}

// BenchmarkNilSpanOps measures the nil-trace fast path: the exact span
// operations an untraced Run performs must stay at pointer-check cost.
func BenchmarkNilSpanOps(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.Start("run")
		sp := root.Start("compile")
		sp.End()
		at := root.Start("attempt")
		at.Observe(0)
		at.AddRowsOut(1)
		at.End()
		root.End()
	}
}

// BenchmarkTracedSpanOps is the same sequence with a live trace: the
// per-span cost an explicitly traced run pays over BenchmarkNilSpanOps.
func BenchmarkTracedSpanOps(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New()
		root := tr.Start("run")
		sp := root.Start("compile")
		sp.End()
		at := root.Start("attempt")
		at.Observe(0)
		at.AddRowsOut(1)
		at.End()
		root.End()
		tr.Release()
	}
}
