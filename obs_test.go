package xsltdb

import (
	"context"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// findSpan walks an exported trace looking for the first span named name.
func findSpan(spans []obs.SpanJSON, name string) *obs.SpanJSON {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if s := findSpan(spans[i].Children, name); s != nil {
			return s
		}
	}
	return nil
}

// TestTraceThroughRun asserts every strategy's Run produces a complete
// operator tree: the run root, the compile phase, the strategy attempt, and
// the strategy's per-operator spans with row counts.
func TestTraceThroughRun(t *testing.T) {
	operators := map[Strategy][]string{
		StrategySQL:       {"scan", "construct"},
		StrategyXQuery:    {"xquery-eval"},
		StrategyNoRewrite: {"xslt-interpret"},
	}
	for s, ops := range operators {
		t.Run(s.String(), func(t *testing.T) {
			d := newKeyedDB(t, 50)
			ct, err := d.CompileTransform("rows", keyedSheet, WithForcedStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New()
			defer tr.Release()
			res, err := ct.Run(context.Background(), WithTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			exp := tr.Export()
			root := findSpan(exp, "run")
			if root == nil {
				t.Fatalf("no run span in trace:\n%s", tr.Tree())
			}
			if root.RowsOut != res.Stats.RowsProduced {
				t.Errorf("run rows_out = %d, want %d", root.RowsOut, res.Stats.RowsProduced)
			}
			if root.Attrs["view"] != "rows" {
				t.Errorf("run view attr = %q, want rows", root.Attrs["view"])
			}
			if root.Attrs["access_path"] == "" {
				t.Error("run span missing access_path attr")
			}
			if findSpan(exp, "compile") == nil {
				t.Errorf("no compile span:\n%s", tr.Tree())
			}
			attempt := findSpan(exp, s.String())
			if attempt == nil {
				t.Fatalf("no %s attempt span:\n%s", s, tr.Tree())
			}
			if attempt.RowsOut != res.Stats.RowsProduced {
				t.Errorf("attempt rows_out = %d, want %d", attempt.RowsOut, res.Stats.RowsProduced)
			}
			for _, op := range ops {
				sp := findSpan(attempt.Children, op)
				if sp == nil {
					t.Fatalf("no %s operator span under %s:\n%s", op, s, tr.Tree())
				}
				if sp.RowsOut == 0 {
					t.Errorf("%s rows_out = 0, want > 0", op)
				}
			}
			if s == StrategySQL {
				if path := findSpan(attempt.Children, "scan").Attrs["path"]; path == "" {
					t.Error("scan span missing its access path")
				}
				// The fused operator reports the bytes it emitted; there is
				// no separate serialize step to account for them.
				total := 0
				for _, row := range res.Rows {
					total += len(row)
				}
				if got := findSpan(attempt.Children, "construct").Attrs["bytes_out"]; got != strconv.Itoa(total) {
					t.Errorf("construct bytes_out = %q, want %d", got, total)
				}
				if findSpan(attempt.Children, "serialize") != nil {
					t.Errorf("phantom serialize span:\n%s", tr.Tree())
				}
			}
		})
	}
}

// TestTraceThroughCursor asserts the streaming path produces the same shaped
// tree over the cursor's whole lifetime, finished at release time.
func TestTraceThroughCursor(t *testing.T) {
	d := newKeyedDB(t, 30)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	defer tr.Release()
	cur, err := ct.OpenCursor(context.Background(), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		if _, err := cur.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	exp := tr.Export()
	root := findSpan(exp, "cursor")
	if root == nil {
		t.Fatalf("no cursor span:\n%s", tr.Tree())
	}
	if root.RowsOut != int64(rows) {
		t.Errorf("cursor rows_out = %d, want %d", root.RowsOut, rows)
	}
	if root.Error != "" {
		t.Errorf("clean cursor tagged with error %q", root.Error)
	}
	for _, name := range []string{"compile", "sql-rewrite", "scan", "construct"} {
		if findSpan(exp, name) == nil {
			t.Errorf("no %s span:\n%s", name, tr.Tree())
		}
	}
	if sc := findSpan(exp, "scan"); sc.RowsOut != int64(rows) {
		t.Errorf("scan rows_out = %d, want %d", sc.RowsOut, rows)
	}
}

// TestExplainAnalyzeStrategies asserts EXPLAIN ANALYZE renders the shared
// header plus per-operator actuals for all three strategies.
func TestExplainAnalyzeStrategies(t *testing.T) {
	operators := map[Strategy][]string{
		StrategySQL:       {"scan", "construct"},
		StrategyXQuery:    {"xquery-eval"},
		StrategyNoRewrite: {"xslt-interpret"},
	}
	for s, ops := range operators {
		t.Run(s.String(), func(t *testing.T) {
			d := newKeyedDB(t, 40)
			ct, err := d.CompileTransform("rows", keyedSheet, WithForcedStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			out, err := ct.ExplainAnalyze(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range append([]string{"strategy: " + s.String(), "plan cache:", "actual: rows=", "calls="}, ops...) {
				if !strings.Contains(out, want) {
					t.Errorf("ExplainAnalyze output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestExplainAnalyzePushdown asserts the analyzed probe shows the chosen
// access path next to the actuals on the scan operator.
func TestExplainAnalyzePushdown(t *testing.T) {
	d := newKeyedDB(t, 500)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ct.ExplainAnalyze(context.Background(), WithWhere("@id = $key"), WithParam("key", 123))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"INDEX PROBE row(id) id = 123", "rows_out=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyzed probe missing %q:\n%s", want, out)
		}
	}
}

// TestExplainPlanHeader asserts the static EXPLAIN shares the analyzing
// form's header: chosen strategy and plan-cache status.
func TestExplainPlanHeader(t *testing.T) {
	d := newKeyedDB(t, 20)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	out := ct.ExplainPlan()
	for _, want := range []string{"strategy: sql-rewrite", "plan cache: cached=true", "TABLE SCAN row"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainPlan missing %q:\n%s", want, out)
		}
	}
	if _, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if out := ct.ExplainPlan(); !strings.Contains(out, "cached=true") {
		t.Errorf("plan no longer reported cached after a run:\n%s", out)
	}
}

// TestMetricsMatchExecStatsUnderConcurrency runs parallel executions and
// asserts the database's counters equal the sum of the per-run ExecStats —
// the facade's metrics and the per-run stats are two views of one
// accounting. The counters are the database's own, so no other test moves
// them. A second round panics inside every run's SQL scan, so the
// contained-panic counter is held to the stats as well. It stays serial: the
// faultpoint it arms is process-global and would fire in a parallel test.
func TestMetricsMatchExecStatsUnderConcurrency(t *testing.T) {
	d := newKeyedDB(t, 200)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	m := &d.metrics

	const workers, perWorker = 8, 5
	// run executes workers×perWorker concurrent Runs and sums their stats.
	run := func() (sum ExecStats) {
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					res, err := ct.Run(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					sum.RowsProduced += res.Stats.RowsProduced
					sum.RowsScanned += res.Stats.RowsScanned
					sum.PanicsRecovered += res.Stats.PanicsRecovered
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return sum
	}

	sum := run()
	if got := m.runs.With(StrategySQL.String(), "ok").Value(); got != workers*perWorker {
		t.Errorf("runs_total = %d, want %d", got, workers*perWorker)
	}
	if got := m.rowsReturned.Value(); got != sum.RowsProduced {
		t.Errorf("rows_returned_total = %d, want summed ExecStats %d", got, sum.RowsProduced)
	}
	if got := m.rowsScanned.Value(); got != sum.RowsScanned {
		t.Errorf("rows_scanned_total = %d, want summed ExecStats %d", got, sum.RowsScanned)
	}
	if got := m.runSeconds.With(StrategySQL.String()).Count(); got != workers*perWorker {
		t.Errorf("run_seconds histogram count = %d, want %d", got, workers*perWorker)
	}

	faultpoint.EnablePanic("sqlxml.query.next")
	defer faultpoint.Reset()
	panicked := run()
	faultpoint.Reset()
	if panicked.PanicsRecovered != workers*perWorker {
		t.Errorf("summed ExecStats.PanicsRecovered = %d, want one per run (%d)", panicked.PanicsRecovered, workers*perWorker)
	}
	if got := m.panics.Value(); got != panicked.PanicsRecovered {
		t.Errorf("panics_recovered_total = %d, want summed ExecStats %d", got, panicked.PanicsRecovered)
	}

	// The Prometheus rendering carries the same series.
	var sb strings.Builder
	if _, err := d.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`xsltdb_runs_total{strategy="sql-rewrite",outcome="ok"}`,
		"xsltdb_rows_returned_total",
		"# TYPE xsltdb_run_seconds histogram",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// gauge reads an unlabeled gauge family of d's registry.
func gauge(t *testing.T, d *Database, name string) float64 {
	t.Helper()
	sv := d.Metrics().SeriesValues(name)
	if len(sv) != 1 {
		t.Fatalf("%s: %d series, want 1", name, len(sv))
	}
	return sv[0].Value
}

// TestMetricsArePerDatabase: two databases in one process own two registries.
// Runs on one, and a cursor held open on it, move only its xsltdb_runs_total
// and xsltdb_snapshot_pins; the other's stay at zero.
func TestMetricsArePerDatabase(t *testing.T) {
	t.Parallel()
	a, b := newKeyedDB(t, 20), newKeyedDB(t, 20)
	if a.Metrics() == b.Metrics() {
		t.Fatal("two databases share one registry")
	}
	ct, err := a.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	runN(t, ct, 3)
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	runs := func(d *Database) (n float64) {
		for _, sv := range d.Metrics().SeriesValues("xsltdb_runs_total") {
			n += sv.Value
		}
		return n
	}
	if got := runs(a); got != 3 {
		t.Errorf("a: xsltdb_runs_total = %v, want 3", got)
	}
	if got := gauge(t, a, "xsltdb_snapshot_pins"); got != 1 {
		t.Errorf("a: xsltdb_snapshot_pins = %v, want 1 (the open cursor)", got)
	}
	if got := runs(b); got != 0 {
		t.Errorf("b: xsltdb_runs_total = %v, want 0: a's runs leaked into it", got)
	}
	if got := gauge(t, b, "xsltdb_snapshot_pins"); got != 0 {
		t.Errorf("b: xsltdb_snapshot_pins = %v, want 0: a's cursor leaked into it", got)
	}
}

// TestFaultTraceErrorTagged injects a mid-scan fault and asserts the failed
// executions still emit a complete trace with the failure tagged on the
// operator where it happened — materialized Run and streaming cursor both.
func TestFaultTraceErrorTagged(t *testing.T) {
	d := newKeyedDB(t, 40)
	ct, err := d.CompileTransform("rows", keyedSheet, WithForcedStrategy(StrategySQL))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("run", func(t *testing.T) {
		faultpoint.Enable("sqlxml.query.next", errBoom)
		defer faultpoint.Reset()
		tr := obs.New()
		defer tr.Release()
		if _, err := ct.Run(context.Background(), WithTrace(tr)); !errors.Is(err, errBoom) {
			t.Fatalf("Run error = %v, want errBoom", err)
		}
		exp := tr.Export()
		root := findSpan(exp, "run")
		if root == nil || findSpan(exp, "compile") == nil {
			t.Fatalf("failed run's trace incomplete:\n%s", tr.Tree())
		}
		if root.Error == "" {
			t.Errorf("run span not error-tagged:\n%s", tr.Tree())
		}
		attempt := findSpan(exp, StrategySQL.String())
		if attempt == nil || attempt.Error == "" {
			t.Errorf("strategy attempt not error-tagged:\n%s", tr.Tree())
		}
	})

	t.Run("cursor", func(t *testing.T) {
		faultpoint.EnableAfter("sqlxml.query.next", 1, errBoom)
		defer faultpoint.Reset()
		tr := obs.New()
		defer tr.Release()
		cur, err := ct.OpenCursor(context.Background(), WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		for {
			_, err := cur.Next()
			if err == io.EOF {
				t.Fatal("cursor reached EOF, fault never fired")
			}
			if err != nil {
				if !errors.Is(err, errBoom) {
					t.Fatalf("Next error = %v, want errBoom", err)
				}
				break
			}
		}
		exp := tr.Export()
		root := findSpan(exp, "cursor")
		if root == nil {
			t.Fatalf("no cursor span:\n%s", tr.Tree())
		}
		if root.Error == "" {
			t.Errorf("cursor span not error-tagged:\n%s", tr.Tree())
		}
		if sc := findSpan(exp, "scan"); sc == nil || sc.Error == "" {
			t.Errorf("scan operator not error-tagged:\n%s", tr.Tree())
		}
	})
}

// TestExecStatsStringComplete is the reflection guard: every ExecStats field
// must have a token in statsFieldTokens, and a fully-populated value must
// render every token — adding a field without teaching String() about it
// fails here.
func TestExecStatsStringComplete(t *testing.T) {
	typ := reflect.TypeOf(ExecStats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := statsFieldTokens[name]; !ok {
			t.Errorf("ExecStats.%s has no token in statsFieldTokens — String() is incomplete", name)
		}
	}
	if len(statsFieldTokens) != typ.NumField() {
		t.Errorf("statsFieldTokens has %d entries, ExecStats has %d fields — stale token?",
			len(statsFieldTokens), typ.NumField())
	}

	full := ExecStats{
		RowsProduced: 1, RowsScanned: 2, IndexProbes: 3, RangeScans: 4,
		FullScans: 5, RowsEmitted: 6, RowsFiltered: 7, Batches: 1,
		MorselsExecuted: 1, Recompiles: 1,
		AccessPath: "INDEX PROBE t(c)", DataVersion: 9, CompileWall: time.Millisecond,
		ExecWall: time.Millisecond, StrategyUsed: StrategySQL,
		Degradations: 1, PanicsRecovered: 1,
		GovTicks: 1,
	}
	line := full.String()
	for field, token := range statsFieldTokens {
		if !strings.Contains(line, token) {
			t.Errorf("ExecStats.String() missing %q (field %s): %s", token, field, line)
		}
	}
}
