package xsltdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// runN executes the transform n times against distinct keys, failing the
// test on any error.
func runN(t *testing.T, ct *CompiledTransform, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := ct.Run(context.Background(), WithWhere("@id = $k"), WithParam("k", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunHistoryDisabledByDefault(t *testing.T) {
	d := newKeyedDB(t, 20)
	ct, err := d.CompileTransform("rows", keyedSheet, WithTraceSampling(SampleAlways()))
	if err != nil {
		t.Fatal(err)
	}
	runN(t, ct, 3)
	if d.RunHistory() != nil {
		t.Fatal("archive exists without EnableRunHistory")
	}
	// Nil-safe accessors on the disabled database.
	if d.RunHistory().Len() != 0 || d.RunHistory().Runs(5) != nil {
		t.Fatal("nil archive accessors not inert")
	}
}

func TestRunHistoryArchivesEveryRun(t *testing.T) {
	d := newKeyedDB(t, 20)
	arch := d.EnableRunHistory(8)
	if again := d.EnableRunHistory(999); again != arch {
		t.Fatal("EnableRunHistory not idempotent")
	}
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	runN(t, ct, 3)

	runs := arch.Runs(0)
	if len(runs) != 3 {
		t.Fatalf("archived %d runs, want 3", len(runs))
	}
	r := runs[0]
	if r.Kind != "run" || r.View != "rows" || r.Strategy != "sql-rewrite" ||
		r.Rows != 1 || r.Wall <= 0 || !strings.Contains(r.AccessPath, "INDEX PROBE") ||
		!strings.Contains(r.Stats, "rows=1") || r.Start.IsZero() {
		t.Fatalf("bad record: %+v", r)
	}
	// No sampling policy: records carry no trace.
	if r.Sampled || r.Trace != "" {
		t.Fatalf("unsampled run carries a trace: %+v", r)
	}

	// One fold, one set of numbers: a traced run's ExecStats, its archived
	// record and its root span say the same thing.
	tr := obs.New()
	res, err := ct.Run(context.Background(), WithWhere("@id < 5"), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	es, rec, root := res.Stats, arch.Runs(1)[0], tr.Export()[0]
	if rec.Strategy != es.StrategyUsed.String() || rec.AccessPath != es.AccessPath || rec.Rows != es.RowsProduced ||
		rec.CompileWall != es.CompileWall || rec.ExecWall != es.ExecWall || rec.Stats != es.String() {
		t.Fatalf("record %+v disagrees with ExecStats %+v", rec, es)
	}
	if root.Name != "run" || root.Attrs["strategy"] != rec.Strategy || root.Attrs["access_path"] != rec.AccessPath ||
		root.RowsOut != rec.Rows || root.Attrs["compile_ns"] != fmt.Sprint(int64(rec.CompileWall)) ||
		root.Attrs["exec_ns"] != fmt.Sprint(int64(rec.ExecWall)) {
		t.Fatalf("root span %+v disagrees with record %+v", root, rec)
	}
	if es.DataVersion != d.Rel().CommitSeq() {
		t.Fatalf("ExecStats.DataVersion = %d on an idle database at %d", es.DataVersion, d.Rel().CommitSeq())
	}

	plans := arch.Plans()
	if len(plans) != 1 || plans[0].View != "rows" || plans[0].Calls != 4 || plans[0].Rows != 8 {
		t.Fatalf("plan aggregates = %+v", plans)
	}
	if len(plans[0].Slowest) != 4 || plans[0].P50 <= 0 {
		t.Fatalf("plan aggregate detail = %+v", plans[0])
	}
}

// TestTraceSamplingSlowOnly is the exactness contract: with a slow-only
// policy, exactly the over-threshold runs retain traces. An unreachable
// threshold samples nothing; a trivially-reachable one samples everything.
func TestTraceSamplingSlowOnly(t *testing.T) {
	d := newKeyedDB(t, 20)
	arch := d.EnableRunHistory(0)

	never, err := d.CompileTransform("rows", keyedSheet, WithTraceSampling(SampleSlowerThan(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	runN(t, never, 4)
	for _, r := range arch.Runs(0) {
		if r.Sampled || r.Trace != "" {
			t.Fatalf("run under 1h threshold retained a trace: %+v", r)
		}
	}

	always, err := d.CompileTransform("rows", keyedSheet, WithTraceSampling(SampleSlowerThan(time.Nanosecond)))
	if err != nil {
		t.Fatal(err)
	}
	runN(t, always, 4)
	runs := arch.Runs(4) // the four newest
	for _, r := range runs {
		if !r.Sampled || r.Trace == "" || len(r.TraceJSON) == 0 {
			t.Fatalf("over-threshold run lost its trace: %+v", r)
		}
		if !strings.Contains(r.Trace, "run") || !strings.Contains(r.Trace, "sql-rewrite") {
			t.Fatalf("trace tree incomplete:\n%s", r.Trace)
		}
	}
}

func TestTraceSamplingErrorsOnly(t *testing.T) {
	d := newKeyedDB(t, 20)
	arch := d.EnableRunHistory(0)
	ct, err := d.CompileTransform("rows", keyedSheet, WithTraceSampling(SampleErrors()))
	if err != nil {
		t.Fatal(err)
	}

	runN(t, ct, 2) // healthy runs: recorded, not sampled
	for _, r := range arch.Runs(0) {
		if r.Sampled {
			t.Fatalf("successful run sampled under errors-only: %+v", r)
		}
	}

	// Fail every strategy in the chain so the run errors terminally.
	faultpoint.Enable("sqlxml.query.next", errBoom)
	faultpoint.Enable("sqlxml.view.row", errBoom)
	defer faultpoint.Reset()
	if _, err := ct.Run(context.Background()); err == nil {
		t.Fatal("faulted run succeeded")
	}
	rec := arch.Runs(1)[0]
	if rec.Error == "" || !rec.Sampled || rec.Trace == "" {
		t.Fatalf("errored run not sampled with trace: %+v", rec)
	}
	if !strings.Contains(rec.Trace, "ERROR") && !strings.Contains(rec.Trace, "error") {
		t.Fatalf("errored trace carries no error tag:\n%s", rec.Trace)
	}
}

// TestTraceSamplingRatioExact: the deterministic ratio sampler lands
// floor(N·r) traces over N runs — 8 runs at 0.25 sample exactly 2.
func TestTraceSamplingRatioExact(t *testing.T) {
	d := newKeyedDB(t, 20)
	arch := d.EnableRunHistory(0)
	ct, err := d.CompileTransform("rows", keyedSheet, WithTraceSampling(SampleRatio(0.25)))
	if err != nil {
		t.Fatal(err)
	}
	runN(t, ct, 8)
	sampled := 0
	for _, r := range arch.Runs(0) {
		if r.Sampled {
			if r.Trace == "" {
				t.Fatalf("sampled record without trace: %+v", r)
			}
			sampled++
		}
	}
	if sampled != 2 {
		t.Fatalf("ratio 0.25 over 8 runs sampled %d, want exactly 2", sampled)
	}
}

func TestCursorRunsArchived(t *testing.T) {
	d := newKeyedDB(t, 10)
	arch := d.EnableRunHistory(0)
	ct, err := d.CompileTransform("rows", keyedSheet, WithTraceSampling(SampleAlways()))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.Collect()
	if err != nil || len(rows) != 10 {
		t.Fatalf("collect: %d rows, err %v", len(rows), err)
	}
	rec := arch.Runs(1)[0]
	if rec.Kind != "cursor" || rec.Rows != 10 || rec.Error != "" || !rec.Sampled {
		t.Fatalf("cursor record = %+v", rec)
	}
	if !strings.Contains(rec.Trace, "cursor") {
		t.Fatalf("cursor trace:\n%s", rec.Trace)
	}

	// An abandoned cursor archives as a partial run.
	cur2, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur2.Next(); err != nil {
		t.Fatal(err)
	}
	cur2.Close()
	rec2 := arch.Runs(1)[0]
	if rec2.Kind != "cursor" || rec2.Rows != 1 {
		t.Fatalf("abandoned cursor record = %+v", rec2)
	}
}

// TestExplainPrintsNoEstimate pins that EXPLAIN ANALYZE reports only what it
// knows: the chosen access path and the actual rows. No planner decision
// reads a row estimate, so none is printed — a fixed-fraction guess would
// price this 5-of-300 range at 101.
func TestExplainPrintsNoEstimate(t *testing.T) {
	d := newKeyedDB(t, 300)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ct.ExplainAnalyze(context.Background(), WithWhere("@id < 5"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`access="INDEX RANGE SCAN row(id)`, "rows_out=5", "rows=5 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainAnalyze missing %q:\n%s", want, out)
		}
	}
	for _, stale := range []string{"est=", "est_", "q-error"} {
		if strings.Contains(out, stale) {
			t.Fatalf("ExplainAnalyze still prints %q:\n%s", stale, out)
		}
	}
}

func TestPlanCacheEntries(t *testing.T) {
	d := newKeyedDB(t, 10)
	const sheet2 = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="row"><r2><xsl:value-of select="name"/></r2></xsl:template>
</xsl:stylesheet>`

	ct1, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CompileTransform("rows", keyedSheet); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := d.CompileTransform("rows", sheet2); err != nil {
		t.Fatal(err)
	}

	entries := d.PlanCacheEntries()
	if len(entries) != 2 {
		t.Fatalf("PlanCacheEntries returned %d, want 2", len(entries))
	}
	var hitTotal int64
	for _, e := range entries {
		if e.View != "rows" || e.Strategy != "sql-rewrite" || e.Misses != 1 {
			t.Fatalf("entry = %+v", e)
		}
		if len(e.StylesheetHash) != 12 || e.CompileWall <= 0 || e.Age < 0 {
			t.Fatalf("entry bookkeeping = %+v", e)
		}
		hitTotal += e.Hits
	}
	if hitTotal != 1 {
		t.Fatalf("cache hits across entries = %d, want 1", hitTotal)
	}
	if entries[0].StylesheetHash >= entries[1].StylesheetHash {
		t.Fatalf("entries not sorted: %q, %q", entries[0].StylesheetHash, entries[1].StylesheetHash)
	}

	// A view redefinition forces a recompile; the per-key miss count
	// persists across the eviction.
	if err := d.ReplaceXMLView(keyedViewDef()); err != nil {
		t.Fatal(err)
	}
	if _, err := ct1.Run(context.Background()); err != nil { // recompiles
		t.Fatal(err)
	}
	entries = d.PlanCacheEntries()
	found := false
	for _, e := range entries {
		if e.ViewVersion > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recompiled entry after view replacement: %+v", entries)
	}
}

// TestConsoleEndToEnd drives the full loop the debug console exists for:
// enable history, run sampled transforms, then read the runs, plans and
// metrics back over HTTP exactly as an operator's curl would.
func TestConsoleEndToEnd(t *testing.T) {
	d := newKeyedDB(t, 300)
	d.EnableRunHistory(0)
	ct, err := d.CompileTransform("rows", keyedSheet, WithTraceSampling(SampleAlways()))
	if err != nil {
		t.Fatal(err)
	}
	runN(t, ct, 3)
	if _, err := ct.Run(context.Background(), WithWhere("@id < 5")); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.ConsoleHandler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var runs []obs.RunRecord
	if err := json.Unmarshal([]byte(get("/runs?n=10")), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 || !runs[0].Sampled || runs[0].Trace == "" {
		t.Fatalf("/runs = %d records, newest sampled=%v", len(runs), runs[0].Sampled)
	}
	one := get(fmt.Sprintf("/runs/%d", runs[0].ID))
	if !strings.Contains(one, `"trace"`) || !strings.Contains(one, "sql-rewrite") {
		t.Fatalf("/runs/%d = %s", runs[0].ID, one)
	}

	var plans struct {
		Cache      []PlanCacheEntry    `json:"cache"`
		Aggregates []obs.PlanAggregate `json:"aggregates"`
	}
	if err := json.Unmarshal([]byte(get("/plans")), &plans); err != nil {
		t.Fatal(err)
	}
	if len(plans.Cache) != 1 || plans.Cache[0].Strategy != "sql-rewrite" ||
		len(plans.Aggregates) != 1 || plans.Aggregates[0].Calls != 4 {
		t.Fatalf("/plans = %+v", plans)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "xsltdb_runs_total") || !strings.Contains(metrics, "xsltdb_run_seconds") {
		t.Fatalf("/metrics missing engine instruments:\n%s", metrics)
	}
}

// TestActiveCursorsGaugeReturnsToZero audits the active_cursors gauge for
// leaks on every exit path: normal drain, mid-stream fault, mid-stream
// panic (containment), and Close racing an in-flight Next. Run under -race.
func TestActiveCursorsGaugeReturnsToZero(t *testing.T) {
	d := newKeyedDB(t, 50)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		if got := gauge(t, d, "xsltdb_active_cursors"); got != 0 {
			t.Fatalf("%s: active_cursors = %v, want 0", label, got)
		}
	}

	// Normal drain.
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := gauge(t, d, "xsltdb_active_cursors"); got != 1 {
		t.Fatalf("gauge not incremented on open: %v", got)
	}
	if _, err := cur.Collect(); err != nil {
		t.Fatal(err)
	}
	check("drained cursor")

	// Mid-stream fault: the 3rd Next fails terminally.
	faultpoint.EnableAfter("sqlxml.query.next", 2, errBoom)
	cur, err = ct.OpenCursor(context.Background())
	if err != nil {
		faultpoint.Reset()
		t.Fatal(err)
	}
	for {
		if _, err := cur.Next(); err != nil {
			if !errors.Is(err, errBoom) {
				faultpoint.Reset()
				t.Fatalf("fault surfaced as %v", err)
			}
			break
		}
	}
	faultpoint.Reset()
	check("faulted cursor")

	// Mid-stream panic: containment must still release exactly once.
	faultpoint.EnableAfter("sqlxml.query.next", 2, nil)
	faultpoint.EnablePanic("sqlxml.query.next")
	cur, err = ct.OpenCursor(context.Background())
	if err != nil {
		faultpoint.Reset()
		t.Fatal(err)
	}
	for {
		if _, err := cur.Next(); err != nil {
			if err != io.EOF && !errors.Is(err, ErrInternal) {
				faultpoint.Reset()
				t.Fatalf("panic surfaced as %v", err)
			}
			break
		}
	}
	faultpoint.Reset()
	check("panicked cursor")

	// Close racing in-flight Nexts, repeatedly.
	for i := 0; i < 20; i++ {
		cur, err := ct.OpenCursor(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := cur.Next(); err != nil {
					return
				}
			}
		}()
		cur.Close()
		wg.Wait()
	}
	check("close-during-next cursors")
}

// normalizeAnalyze strips the run-to-run variance out of an EXPLAIN ANALYZE
// rendering: wall times become DUR, nondeterministic counters become N, and
// runs of spaces collapse (the tree aligns its duration column, so padding
// width varies with the duration text).
var (
	durationRe = regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|ms|m|h|s)+\b`)
	counterRe  = regexp.MustCompile(`\b(gov_ticks|gov-ticks|eval_steps|func_calls|templates_applied|compile_ns|exec_ns|data-version)=\d+`)
	spacesRe   = regexp.MustCompile(`  +`)
)

func normalizeAnalyze(s string) string {
	s = durationRe.ReplaceAllString(s, "DUR")
	s = counterRe.ReplaceAllString(s, "${1}=N")
	s = spacesRe.ReplaceAllString(s, " ")
	return s
}

// TestChainedExplainAnalyzeGolden pins the chained-pipeline EXPLAIN ANALYZE
// rendering: header from the first stage, the chain summary, the actual
// stats line, and both operator trees ("run" for the view stage, "chain"
// with one span per chained stage).
func TestChainedExplainAnalyzeGolden(t *testing.T) {
	d := newKeyedDB(t, 3)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	const upperSheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="hit"><HIT><xsl:value-of select="."/></HIT></xsl:template>
</xsl:stylesheet>`
	chain, err := ct.Then(upperSheet)
	if err != nil {
		t.Fatal(err)
	}

	out, err := chain.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeAnalyze(out)

	const golden = `strategy: sql-rewrite
plan cache: cached=true entries=1 hits=0 misses=1
chain: 1 stage(s) after the view stage (1 rewritten, 0 interpreted)
actual: rows=3 scanned=3 probes=0 range-scans=0 full-scans=1 emitted=3 filtered=0 recompiles=0 compile=DUR exec=DUR batches=1 morsels=0 access="TABLE SCAN row" data-version=N gov-ticks=N
run DUR rows_out=3 view=rows strategy=sql-rewrite access_path="TABLE SCAN row" compile_ns=N exec_ns=N
├─ compile DUR cache=fresh
└─ sql-rewrite DUR rows_out=3 gov_ticks=N
 ├─ scan DUR calls=2 rows_out=3 path="TABLE SCAN row" batch_size=1024 workers=1
 └─ construct DUR calls=3 rows_in=3 rows_out=3 bytes_out=51
chain DUR
└─ stage-1 DUR calls=3 rows_in=3 rows_out=3 mode=xquery-rewrite
`
	if got != golden {
		t.Fatalf("chained EXPLAIN ANALYZE drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
