// Command xsltbench regenerates the tables behind the paper's evaluation
// figures (§5):
//
//	xsltbench -fig 2          # Figure 2: dbonerow, rewrite vs no-rewrite across sizes
//	xsltbench -fig 3          # Figure 3: avts/chart/metric/total
//	xsltbench -inline-stats   # the "23 out of 40 cases fully inline" statistic
//	xsltbench -pushdown       # index-probe pushdown vs full-scan baseline
//	xsltbench -all            # everything
//
// -json writes the -pushdown measurements to the given file as JSON
// (the `make bench-json` artifact).
//
// -obs-overhead measures the observability layer's cost — the nil-trace
// fast path versus a run with an attached trace — and writes BENCH_obs.json
// (the `make bench-obs` artifact); it exits non-zero if the estimated
// nil-trace overhead reaches 2%. -events-overhead measures the wide-event
// pipeline's serving cost (events-on vs events-off on the cached mix),
// merges into the same BENCH_obs.json, and exits non-zero if the overhead
// reaches 3%.
//
// -trace-out FILE captures the slowest traced run the tool performed and
// writes its full trace as JSON to FILE.
//
// -stream executes the rewrite path through the streaming cursor (one row
// pulled at a time) instead of materializing the result set; -stats prints
// the physical operator counters of each configuration's last run.
//
// Times are medians over -reps runs of each configuration.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	xsltdb "repro"
	"repro/internal/clobstore"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xq2sql"
	"repro/internal/xschema"
	"repro/internal/xslt"
	"repro/internal/xsltmark"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (2 or 3)")
	inlineStats := flag.Bool("inline-stats", false, "print the inline-coverage statistic")
	storage := flag.Bool("storage", false, "print the §7.4 storage-model comparison")
	push := flag.Bool("pushdown", false, "measure index-probe pushdown vs the full-scan baseline")
	jsonPath := flag.String("json", "", "write the -pushdown measurements to this file as JSON")
	obsOver := flag.Bool("obs-overhead", false, "measure tracing overhead (nil-trace fast path vs attached trace), write BENCH_obs.json")
	obsBaseline := flag.String("obs-baseline", "", "compare the -obs-overhead measurement against this committed BENCH_obs.json and report the regression delta")
	eventsOver := flag.Bool("events-overhead", false, "measure the wide-event pipeline's serving cost (events-on vs events-off cached mix), merge into BENCH_obs.json")
	execBench := flag.Bool("exec", false, "measure the execution engine: row-at-a-time vs batched vs morsel-parallel scan, write BENCH_exec.json")
	execBaseline := flag.String("exec-baseline", "", "compare the -exec measurement against this committed BENCH_exec.json and report the delta")
	workersFlag := flag.Int("workers", 0, "highest morsel worker count for -exec (0 = GOMAXPROCS)")
	batchFlag := flag.Int("batch-size", 0, "batch size for the -exec batched/morsel configurations (0 = engine default)")
	walBench := flag.Bool("wal", false, "measure durable insert throughput per WAL fsync policy and replay speed, write BENCH_wal.json")
	serveBench := flag.Bool("serve", false, "measure the HTTP serving layer: uncached vs result-cache vs coalesced throughput, write BENCH_serve.json")
	serveBaseline := flag.String("serve-baseline", "", "compare the -serve measurement against this committed BENCH_serve.json and report the delta")
	all := flag.Bool("all", false, "run every experiment")
	reps := flag.Int("reps", 5, "repetitions per configuration (median reported)")
	scale := flag.Int("scale", 1, "multiply workload sizes by this factor")
	flag.BoolVar(&streamMode, "stream", false, "run the rewrite path through a streaming cursor")
	flag.BoolVar(&statsMode, "stats", false, "print physical operator counters per configuration")
	flag.StringVar(&traceOutPath, "trace-out", "", "write the slowest traced run's trace JSON to this file")
	flag.DurationVar(&timeoutFlag, "timeout", 0, "abort any single measured run after this long (0 = no timeout)")
	flag.Int64Var(&maxRowsFlag, "max-rows", 0, "abort a run that produces more than n result rows (0 = unlimited)")
	flag.Parse()

	ran := false
	if *all || *fig == 2 {
		figure2(*reps, *scale)
		ran = true
	}
	if *all || *fig == 3 {
		figure3(*reps, *scale)
		ran = true
	}
	if *all || *inlineStats {
		inlineCoverage()
		ran = true
	}
	if *all || *storage {
		storageModels(*reps, *scale)
		ran = true
	}
	if *all || *push {
		pushdown(*reps, *scale, *jsonPath)
		ran = true
	}
	if *all || *obsOver {
		obsOverhead(*reps, *scale, *obsBaseline)
		ran = true
	}
	if *all || *eventsOver {
		benchEventsOverhead(*reps, *scale, *obsBaseline)
		ran = true
	}
	if *all || *execBench {
		benchExec(*reps, *scale, *workersFlag, *batchFlag, *execBaseline)
		ran = true
	}
	if *all || *walBench {
		benchWAL(*reps, *scale)
		ran = true
	}
	if *all || *serveBench {
		benchServe(*reps, *scale, *serveBaseline)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	writeTraceOut()
}

// traceOutPath is the -trace-out flag; the slowest traced run the tool
// performs (across every mode) has its trace JSON captured for it.
var (
	traceOutPath     string
	slowestTraceNS   int64
	slowestTraceJSON []byte
)

// recordSlowest keeps the trace JSON of the slowest traced run so far.
func recordSlowest(wall time.Duration, tr *obs.Trace) {
	if traceOutPath == "" || wall.Nanoseconds() <= slowestTraceNS {
		return
	}
	if b, err := tr.JSON(); err == nil {
		slowestTraceNS = wall.Nanoseconds()
		slowestTraceJSON = b
	}
}

// writeTraceOut flushes the slowest captured trace to -trace-out.
func writeTraceOut() {
	if traceOutPath == "" {
		return
	}
	if slowestTraceJSON == nil {
		fmt.Fprintln(os.Stderr, "-trace-out: no traced run was performed (use -pushdown or -obs-overhead)")
		os.Exit(1)
	}
	check(os.WriteFile(traceOutPath, append(slowestTraceJSON, '\n'), 0o644))
	fmt.Printf("wrote %s (slowest traced run: %v)\n", traceOutPath, time.Duration(slowestTraceNS))
}

// streamMode/statsMode are the -stream/-stats flags; timeoutFlag/maxRowsFlag
// govern each measured run.
var (
	streamMode  bool
	statsMode   bool
	timeoutFlag time.Duration
	maxRowsFlag int64
)

// runGovernor builds one run's execution governor from the -timeout and
// -max-rows flags. Returns a nil governor (every check a no-op) when neither
// flag is set; stop releases the timeout's timer.
func runGovernor() (*governor.G, context.CancelFunc) {
	if timeoutFlag <= 0 && maxRowsFlag <= 0 {
		return nil, func() {}
	}
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if timeoutFlag > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeoutFlag)
	}
	return governor.New(ctx).Limits(maxRowsFlag, 0, 0), cancel
}

// bench builds a database-backed case at size n and returns both paths.
type paths struct {
	rewrite   func() error
	noRewrite func() error
	bytes     int                   // serialized document size, the paper's X axis
	counters  func() relstore.Stats // physical operator counters so far
}

func load(name string, n int) (*paths, error) {
	c := xsltmark.ByName(name)
	if c == nil || c.Rel == nil {
		return nil, fmt.Errorf("case %q is not database-backed", name)
	}
	db := relstore.NewDB()
	if err := c.Rel.Setup(db, n); err != nil {
		return nil, err
	}
	for table, cols := range c.Rel.IndexCols {
		for _, col := range cols {
			if err := db.Table(table).CreateIndex(col); err != nil {
				return nil, err
			}
		}
	}
	exec := sqlxml.NewExecutor(db)
	view := c.Rel.View()
	schema, err := exec.DeriveSchema(view)
	if err != nil {
		return nil, err
	}
	sheet, err := xslt.ParseStylesheet(c.Stylesheet)
	if err != nil {
		return nil, err
	}
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		return nil, err
	}
	plan, err := xq2sql.Translate(res.Module, view)
	if err != nil {
		return nil, err
	}
	return &paths{
		rewrite: func() error {
			g, stop := runGovernor()
			defer stop()
			if !streamMode {
				docs, err := exec.ExecQueryParallelSpec(plan, 1, &exec.Stats, g, nil)
				if err != nil {
					return err
				}
				for range docs {
					if err := g.AddRow(); err != nil {
						return err
					}
				}
				return nil
			}
			// Streaming: pull one document at a time off the plan's access
			// path; counters still land in the executor aggregate.
			var sink relstore.Stats
			qc, err := exec.OpenQueryCursorSpec(plan, &sink, g, nil)
			if err != nil {
				return err
			}
			for {
				if _, err := qc.Next(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
				if err := g.AddRow(); err != nil {
					return err
				}
			}
			exec.AddStats(&sink)
			return nil
		},
		noRewrite: func() error {
			g, stop := runGovernor()
			defer stop()
			rows, err := exec.MaterializeViewSpec(view, nil, &exec.Stats, g, nil)
			if err != nil {
				return err
			}
			eng := xslt.New(sheet).Govern(g)
			for _, row := range rows {
				if _, err := eng.Transform(row); err != nil {
					return err
				}
				if err := g.AddRow(); err != nil {
					return err
				}
			}
			return nil
		},
		bytes:    len(c.Gen(n)),
		counters: func() relstore.Stats { return exec.Stats.Snapshot() },
	}, nil
}

// printCounters reports a configuration's accumulated operator counters.
func printCounters(label string, p *paths) {
	if !statsMode {
		return
	}
	s := p.counters()
	fmt.Printf("  %s stats: scanned=%d probes=%d range-scans=%d full-scans=%d emitted=%d\n",
		label, s.RowsScanned, s.IndexProbes, s.RangeScans, s.FullScans, s.RowsEmitted)
}

func median(reps int, f func() error) time.Duration {
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

func figure2(reps, scale int) {
	fmt.Println("Figure 2 — dbonerow: XSLT rewrite vs no-rewrite across document sizes")
	fmt.Println("(paper: 8M/16M/32M/64M stored docs; here: generated sales rows)")
	fmt.Printf("%-10s %-12s %-14s %-14s %-8s\n", "rows", "doc-bytes", "rewrite", "no-rewrite", "speedup")
	for _, n := range []int{2000 * scale, 4000 * scale, 8000 * scale, 16000 * scale} {
		p, err := load("dbonerow", n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r := median(reps, p.rewrite)
		nr := median(reps, p.noRewrite)
		fmt.Printf("%-10d %-12d %-14s %-14s %.0fx\n", n, p.bytes, r, nr, float64(nr)/float64(r))
		printCounters(fmt.Sprintf("n=%d", n), p)
	}
	fmt.Println()
}

func figure3(reps, scale int) {
	fmt.Println("Figure 3 — avts/chart/metric/total: rewrite vs no-rewrite (no value index)")
	fmt.Printf("%-10s %-14s %-14s %-8s\n", "case", "rewrite", "no-rewrite", "speedup")
	for _, name := range []string{"avts", "chart", "metric", "total"} {
		p, err := load(name, 4000*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r := median(reps, p.rewrite)
		nr := median(reps, p.noRewrite)
		fmt.Printf("%-10s %-14s %-14s %.0fx\n", name, r, nr, float64(nr)/float64(r))
		printCounters(name, p)
	}
	fmt.Println()
}

// storageModels reproduces the §7.4 study: the Example 1 workload over the
// three physical storage models.
func storageModels(reps, scale int) {
	fmt.Println("Storage models (§7.4) — Example 1 stylesheet over many dept documents")
	nDepts := 200 * scale
	db := relstore.NewDB()
	if err := sqlxml.SetupDeptEmp(db); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for d := 1000; d < 1000+nDepts; d++ {
		_, _ = db.Table("dept").Insert(int64(d), fmt.Sprintf("D%d", d), "CITY")
		for e := 0; e < 20; e++ {
			_, _ = db.Table("emp").Insert(int64(d*100+e), fmt.Sprintf("E%d", e), "STAFF",
				int64(500+(e*397)%4500), int64(d))
		}
	}
	_ = db.Table("emp").CreateIndex("sal")
	_ = db.Table("emp").CreateIndex("deptno")
	exec := sqlxml.NewExecutor(db)
	view := sqlxml.DeptEmpView()
	schema, err := exec.DeriveSchema(view)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sheet, err := xslt.ParseStylesheet(xslt.PaperStylesheet)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	plan, err := xq2sql.Translate(res.Module, view)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	store := clobstore.New()
	docs, err := exec.MaterializeViewSpec(view, nil, &exec.Stats, nil, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, doc := range docs {
		if _, err := store.Add(doc.String()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	eng := xslt.New(sheet)

	rows := []struct {
		name string
		f    func() error
	}{
		{"object-relational", func() error { _, err := exec.ExecQueryParallelSpec(plan, 0, &exec.Stats, nil, nil); return err }},
		{"tree", func() error {
			for id := 0; id < store.Len(); id++ {
				doc, err := store.Tree(id)
				if err != nil {
					return err
				}
				if _, err := eng.Transform(doc); err != nil {
					return err
				}
			}
			return nil
		}},
		{"clob", func() error {
			for id := 0; id < store.Len(); id++ {
				doc, err := store.ParseDoc(id)
				if err != nil {
					return err
				}
				if _, err := eng.Transform(doc); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	fmt.Printf("%-20s %s\n", "storage", "time")
	for _, r := range rows {
		fmt.Printf("%-20s %v\n", r.name, median(reps, r.f))
	}
	fmt.Println()
}

// pushdown measures the PR's headline scenario: a single-document lookup by
// indexed key over a large driving table, executed through the public Run
// API with the predicate pushed down to an index probe versus the
// WithoutPushdown full-scan baseline. With -json, the rows are also written
// as a machine-readable artifact (BENCH_pushdown.json in CI).
func pushdown(reps, scale int, jsonPath string) {
	fmt.Println("Pushdown — lookup by indexed key via Run(WithWhere, WithParam): probe vs full scan")
	fmt.Printf("%-10s %-14s %-14s %-9s %s\n", "rows", "index-probe", "full-scan", "speedup", "probe access path")

	type measurement struct {
		Rows        int     `json:"rows"`
		ProbeNanos  int64   `json:"probe_ns"`
		ScanNanos   int64   `json:"scan_ns"`
		Speedup     float64 `json:"speedup"`
		AccessPath  string  `json:"access_path"`
		RowsScanned int64   `json:"full_scan_rows_scanned"`
	}
	var out []measurement

	for _, n := range []int{10_000 * scale, 100_000 * scale} {
		ct := keyedLookupTransform(n)

		key := 0
		lookup := func(extra ...xsltdb.RunOption) func() error {
			return func() error {
				key = (key*7919 + 1) % n
				opts := append([]xsltdb.RunOption{
					xsltdb.WithWhere("@id = $key"), xsltdb.WithParam("key", key),
				}, extra...)
				res, err := ct.Run(context.Background(), opts...)
				if err != nil {
					return err
				}
				if len(res.Rows) != 1 {
					return fmt.Errorf("lookup produced %d rows, want 1", len(res.Rows))
				}
				return nil
			}
		}
		probe := median(reps, lookup())
		scan := median(reps, lookup(xsltdb.WithoutPushdown()))

		// One traced run of each flavor for the reported access path and scan
		// work (these also feed -trace-out).
		probeRes, err := tracedRun(ct, xsltdb.WithWhere("@id = 1"))
		check(err)
		scanRes, err := tracedRun(ct, xsltdb.WithWhere("@id = 1"), xsltdb.WithoutPushdown())
		check(err)

		m := measurement{
			Rows:        n,
			ProbeNanos:  probe.Nanoseconds(),
			ScanNanos:   scan.Nanoseconds(),
			Speedup:     float64(scan) / float64(probe),
			AccessPath:  probeRes.Stats.AccessPath,
			RowsScanned: scanRes.Stats.RowsScanned,
		}
		out = append(out, m)
		fmt.Printf("%-10d %-14s %-14s %-9s %s\n", n, probe, scan,
			fmt.Sprintf("%.0fx", m.Speedup), m.AccessPath)
	}
	fmt.Println()

	if jsonPath != "" {
		b, err := json.MarshalIndent(out, "", "  ")
		check(err)
		check(os.WriteFile(jsonPath, append(b, '\n'), 0o644))
		fmt.Printf("wrote %s\n\n", jsonPath)
	}
}

// keyedLookupTransform builds the pushdown workload: an n-row table with an
// index on id behind a one-element-per-row view, and a one-template lookup
// stylesheet compiled against it.
func keyedLookupTransform(n int) *xsltdb.CompiledTransform {
	const sheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="row"><hit><xsl:value-of select="name"/></hit></xsl:template>
</xsl:stylesheet>`
	db := xsltdb.NewDatabase()
	check(db.CreateTable("row",
		xsltdb.TableColumn{Name: "id", Type: xsltdb.IntCol},
		xsltdb.TableColumn{Name: "name", Type: xsltdb.StringCol}))
	for i := 0; i < n; i++ {
		check(db.Insert("row", int64(i), fmt.Sprintf("name-%d", i)))
	}
	check(db.CreateIndex("row", "id"))
	check(db.CreateXMLView(&xsltdb.ViewDef{
		Name:  "rows",
		Table: "row",
		Body: &xsltdb.XMLElement{
			Name:  "row",
			Attrs: []xsltdb.XMLAttr{{Name: "id", Value: &xsltdb.XMLColumn{Name: "id"}}},
			Children: []xsltdb.XMLExpr{
				&xsltdb.XMLElement{Name: "name", Children: []xsltdb.XMLExpr{&xsltdb.XMLColumn{Name: "name"}}},
			},
		},
	}))
	ct, err := db.CompileTransform("rows", sheet)
	check(err)
	return ct
}

// tracedRun executes one Run with a trace attached and offers it to the
// -trace-out slowest-run capture.
func tracedRun(ct *xsltdb.CompiledTransform, opts ...xsltdb.RunOption) (*xsltdb.Result, error) {
	tr := obs.New()
	defer tr.Release()
	start := time.Now()
	res, err := ct.Run(context.Background(), append(opts, xsltdb.WithTrace(tr))...)
	recordSlowest(time.Since(start), tr)
	return res, err
}

// countSpanOps estimates the number of instrumentation call sites one traced
// run exercised: per span, its creation and End plus every Observe, rows
// counter touch, and attribute. On the nil-trace fast path each of these ops
// collapses to a nil check, so ops × nil-op cost bounds the fast path's
// overhead.
func countSpanOps(spans []obs.SpanJSON) int64 {
	var n int64
	for _, s := range spans {
		n += 2 // Start + End/first-Observe
		n += s.Count
		if s.RowsIn > 0 {
			n++
		}
		if s.RowsOut > 0 {
			n++
		}
		n += int64(len(s.Attrs))
		n += countSpanOps(s.Children)
	}
	return n
}

// obsOverhead measures what the observability layer costs: the nil-trace
// fast path (no WithTrace — every span op is a nil check) versus a run with
// an attached trace, over the indexed-lookup workload. The estimated
// nil-trace overhead — span ops per run × measured nil-op cost, relative to
// the untraced run — is the guard: ≥2% fails the run. Results are written to
// BENCH_obs.json (`make bench-obs`).
func obsOverhead(reps, scale int, baselinePath string) {
	fmt.Println("Observability overhead — nil-trace fast path vs attached trace (indexed lookup)")
	n := 20_000 * scale
	ct := keyedLookupTransform(n)

	key := 0
	run := func(opts ...xsltdb.RunOption) error {
		key = (key*7919 + 1) % n
		all := append([]xsltdb.RunOption{
			xsltdb.WithWhere("@id = $key"), xsltdb.WithParam("key", key),
		}, opts...)
		res, err := ct.Run(context.Background(), all...)
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("lookup produced %d rows, want 1", len(res.Rows))
		}
		return nil
	}

	const batch = 500
	untraced := median(reps, func() error {
		for i := 0; i < batch; i++ {
			if err := run(); err != nil {
				return err
			}
		}
		return nil
	})
	var opsPerRun int64
	traced := median(reps, func() error {
		for i := 0; i < batch; i++ {
			tr := obs.New()
			start := time.Now()
			if err := run(xsltdb.WithTrace(tr)); err != nil {
				tr.Release()
				return err
			}
			recordSlowest(time.Since(start), tr)
			if opsPerRun == 0 {
				opsPerRun = countSpanOps(tr.Export())
			}
			tr.Release()
		}
		return nil
	})

	// Cost of one span op on the nil fast path: method calls on a nil *Span
	// reduce to a receiver nil check.
	const nilIters = 1 << 21
	var sp *obs.Span
	nilStart := time.Now()
	for i := 0; i < nilIters; i++ {
		child := sp.Start("x")
		child.ObserveSince(nilStart)
		child.AddRowsOut(1)
		child.End()
	}
	nilOpNS := float64(time.Since(nilStart).Nanoseconds()) / (nilIters * 4)

	untracedRunNS := untraced.Nanoseconds() / batch
	tracedRunNS := traced.Nanoseconds() / batch
	tracedPct := (float64(tracedRunNS) - float64(untracedRunNS)) / float64(untracedRunNS) * 100
	nilPct := float64(opsPerRun) * nilOpNS / float64(untracedRunNS) * 100

	m := loadObsMeasurement()
	m.Rows = n
	m.UntracedRunNanos = untracedRunNS
	m.TracedRunNanos = tracedRunNS
	m.TracedOverheadPct = tracedPct
	m.SpanOpsPerRun = opsPerRun
	m.NilSpanOpNanos = nilOpNS
	m.NilTraceOverheadPct = nilPct
	m.GuardMaxPct = 2.0
	m.GuardOK = nilPct < 2.0
	fmt.Printf("%-22s %-14s %-14s %-10s %s\n", "", "untraced", "traced", "overhead", "nil-path overhead (est)")
	fmt.Printf("%-22s %-14s %-14s %-10s %.4f%% (%d ops × %.2fns/op)\n",
		fmt.Sprintf("lookup n=%d", n),
		time.Duration(untracedRunNS), time.Duration(tracedRunNS),
		fmt.Sprintf("%.1f%%", tracedPct), nilPct, opsPerRun, nilOpNS)
	fmt.Println()

	writeObsMeasurement(m)
	if baselinePath != "" {
		compareObsBaseline(baselinePath, m)
	}
	if !m.GuardOK {
		fmt.Fprintf(os.Stderr, "obs-overhead guard FAILED: estimated nil-trace overhead %.4f%% >= %.1f%%\n", nilPct, m.GuardMaxPct)
		writeTraceOut()
		os.Exit(1)
	}
	fmt.Println()
}

// obsMeasurement is the BENCH_obs.json schema, shared by the -obs-overhead
// and -events-overhead measurements and their baseline comparisons. The two
// halves regenerate independently (read-merge-write), so either bench can
// run alone without clobbering the other's committed numbers.
type obsMeasurement struct {
	Rows                int     `json:"rows"`
	UntracedRunNanos    int64   `json:"untraced_run_ns"`
	TracedRunNanos      int64   `json:"traced_run_ns"`
	TracedOverheadPct   float64 `json:"traced_overhead_pct"`
	SpanOpsPerRun       int64   `json:"span_ops_per_run"`
	NilSpanOpNanos      float64 `json:"nil_span_op_ns"`
	NilTraceOverheadPct float64 `json:"nil_trace_overhead_pct"`
	GuardMaxPct         float64 `json:"guard_max_pct"`
	GuardOK             bool    `json:"guard_ok"`

	EventsOffRPS      float64 `json:"events_off_rps,omitempty"`
	EventsOnRPS       float64 `json:"events_on_rps,omitempty"`
	EventsOverheadPct float64 `json:"events_overhead_pct"`
	EventsGuardMaxPct float64 `json:"events_guard_max_pct,omitempty"`
	EventsGuardOK     bool    `json:"events_guard_ok"`
	EventsPublished   int64   `json:"events_published,omitempty"`
	EventsDropped     int64   `json:"events_dropped"`
}

// compareObsBaseline reports this measurement against a committed
// BENCH_obs.json: the regression signal for `make bench-obs`. The delta is
// informational — span ops are deterministic and worth flagging loudly, but
// the hard gate stays the absolute <2% nil-trace guard, which is robust to
// machine-speed differences in a way a nanosecond delta is not.
func compareObsBaseline(path string, m obsMeasurement) {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("no baseline to compare (%v)\n", err)
		return
	}
	var base obsMeasurement
	if err := json.Unmarshal(b, &base); err != nil {
		fmt.Fprintf(os.Stderr, "obs baseline %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("vs baseline %s: span-ops %d -> %d (%+d), nil-path overhead %.4f%% -> %.4f%%\n",
		path, base.SpanOpsPerRun, m.SpanOpsPerRun, m.SpanOpsPerRun-base.SpanOpsPerRun,
		base.NilTraceOverheadPct, m.NilTraceOverheadPct)
	if base.SpanOpsPerRun > 0 && m.SpanOpsPerRun > base.SpanOpsPerRun {
		fmt.Printf("note: span ops per run grew by %d — new instrumentation sites on the hot path\n",
			m.SpanOpsPerRun-base.SpanOpsPerRun)
	}
}

// execConfigMeasure is one batched/morsel configuration's throughput.
type execConfigMeasure struct {
	Workers    int     `json:"workers"`
	Nanos      int64   `json:"ns"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// execMeasurement is one table size's row of BENCH_exec.json.
type execMeasurement struct {
	Rows          int                 `json:"rows"`
	MatchRows     int                 `json:"match_rows"`
	RowAtNanos    int64               `json:"row_at_a_time_ns"`
	RowAtRate     float64             `json:"row_at_a_time_rows_per_sec"`
	Batched       []execConfigMeasure `json:"batched"`
	BatchSpeedup  float64             `json:"batch_speedup"`
	MorselSpeedup float64             `json:"morsel_speedup"`
}

// execReport is the BENCH_exec.json schema.
type execReport struct {
	GOMAXPROCS     int               `json:"gomaxprocs"`
	BatchSize      int               `json:"batch_size"`
	BatchGuardMin  float64           `json:"batch_guard_min"`
	MorselGuardMin float64           `json:"morsel_guard_min"`
	MorselGuardOn  bool              `json:"morsel_guard_applied"`
	GuardOK        bool              `json:"guard_ok"`
	Measurements   []execMeasurement `json:"measurements"`
}

// benchExec measures what the batch-at-a-time redesign bought: a selective
// (~1%) non-indexed full scan under a live governor, executed three ways.
//
//   - row-at-a-time reproduces the pre-batch engine's per-row cost profile:
//     a bounds check and a cell read each taking the table read-lock, a
//     predicate evaluated through the string-keyed Value API, and one
//     governor tick — per row.
//   - batched (workers=1) is the serial BatchIterator: one lock snapshot,
//     one governor charge and one fault check per chunk, predicates
//     pre-resolved to column ordinals.
//   - morsel (workers>1) adds the morsel-parallel scan with its
//     order-preserving merge.
//
// Guards, applied to the largest table size: batched must be >=1.3x
// row-at-a-time on one worker, and with GOMAXPROCS>1 the best morsel config
// must be >=2x. A failed guard exits non-zero (`make bench-exec` in verify).
// Speedup ratios, not absolute nanoseconds, are the gate so the guard is
// robust to machine-speed differences; -exec-baseline reports the deltas
// against the committed artifact for the loud-flag signal.
func benchExec(reps, scale, workersFlag, batchFlag int, baselinePath string) {
	fmt.Println("Execution engine — row-at-a-time vs batched vs morsel-parallel scan (~1% selective)")
	maxProcs := runtime.GOMAXPROCS(0)
	topWorkers := maxProcs
	if workersFlag > 0 {
		topWorkers = workersFlag
	}
	workerSet := []int{1, 2}
	if topWorkers > 2 {
		workerSet = append(workerSet, topWorkers)
	}

	report := execReport{
		GOMAXPROCS:     maxProcs,
		BatchSize:      batchFlag,
		BatchGuardMin:  1.3,
		MorselGuardMin: 2.0,
		MorselGuardOn:  maxProcs > 1,
		GuardOK:        true,
	}
	fmt.Printf("%-10s %-16s %-20s %-10s %s\n", "rows", "config", "time", "rows/sec", "speedup")

	for _, n := range []int{10_000 * scale, 100_000 * scale} {
		tab, err := relstore.NewTable("scan",
			relstore.Column{Name: "id", Type: relstore.IntCol},
			relstore.Column{Name: "v", Type: relstore.IntCol})
		check(err)
		want := 0
		for i := 0; i < n; i++ {
			v := int64((i * 7919) % 1000)
			if v < 10 {
				want++
			}
			_, err := tab.Insert(int64(i), v)
			check(err)
		}
		preds := []relstore.Pred{{Col: "v", Op: relstore.CmpLt, Val: int64(10)}}

		rate := func(d time.Duration) float64 {
			return float64(n) / d.Seconds()
		}

		rowat := median(reps, func() error {
			g := governor.New(context.Background())
			got := 0
			for id := 0; id < tab.NumRows(); id++ {
				if preds[0].Matches(tab.Value(id, "v")) {
					got++
				}
				if err := g.Tick(); err != nil {
					return err
				}
			}
			if got != want {
				return fmt.Errorf("row-at-a-time matched %d rows, want %d", got, want)
			}
			return nil
		})
		m := execMeasurement{
			Rows:       n,
			MatchRows:  want,
			RowAtNanos: rowat.Nanoseconds(),
			RowAtRate:  rate(rowat),
		}
		fmt.Printf("%-10d %-16s %-20s %-10.0f %s\n", n, "row-at-a-time", rowat, m.RowAtRate, "1.0x")

		for _, w := range workerSet {
			w := w
			d := median(reps, func() error {
				g := governor.New(context.Background())
				opts := relstore.BatchOpts{Workers: w, BatchSize: batchFlag}
				ts := tab.Snap()
				it := relstore.FullScanPlanAt(ts, preds).OpenBatchAt(ts, nil, g, opts)
				b := relstore.GetBatch(opts.Size())
				defer relstore.PutBatch(b)
				got := 0
				for {
					k, ok := it.NextBatch(b)
					if !ok {
						break
					}
					got += k
				}
				if err := it.Err(); err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("workers=%d matched %d rows, want %d", w, got, want)
				}
				return nil
			})
			speedup := float64(rowat) / float64(d)
			m.Batched = append(m.Batched, execConfigMeasure{Workers: w, Nanos: d.Nanoseconds(), RowsPerSec: rate(d)})
			label := fmt.Sprintf("batched w=%d", w)
			fmt.Printf("%-10d %-16s %-20s %-10.0f %.1fx\n", n, label, d, rate(d), speedup)
			if w == 1 {
				m.BatchSpeedup = speedup
			} else if speedup > m.MorselSpeedup {
				m.MorselSpeedup = speedup
			}
		}
		report.Measurements = append(report.Measurements, m)
	}
	fmt.Println()

	// The guards read the largest (steadiest) measurement.
	last := report.Measurements[len(report.Measurements)-1]
	if last.BatchSpeedup < report.BatchGuardMin {
		report.GuardOK = false
		fmt.Fprintf(os.Stderr, "exec guard FAILED: batched speedup %.2fx < %.1fx at %d rows\n",
			last.BatchSpeedup, report.BatchGuardMin, last.Rows)
	}
	if report.MorselGuardOn && last.MorselSpeedup < report.MorselGuardMin {
		report.GuardOK = false
		fmt.Fprintf(os.Stderr, "exec guard FAILED: morsel speedup %.2fx < %.1fx at %d rows (GOMAXPROCS=%d)\n",
			last.MorselSpeedup, report.MorselGuardMin, last.Rows, maxProcs)
	}

	// Compare against the committed baseline before overwriting it.
	if baselinePath != "" {
		compareExecBaseline(baselinePath, report)
	}
	b, err := json.MarshalIndent(report, "", "  ")
	check(err)
	check(os.WriteFile("BENCH_exec.json", append(b, '\n'), 0o644))
	fmt.Println("wrote BENCH_exec.json")
	if !report.GuardOK {
		os.Exit(1)
	}
	fmt.Println()
}

// compareExecBaseline reports this measurement against a committed
// BENCH_exec.json. Like the obs baseline, the delta is informational — the
// hard gate stays the machine-independent speedup guards.
func compareExecBaseline(path string, r execReport) {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("no baseline to compare (%v)\n", err)
		return
	}
	var base execReport
	if err := json.Unmarshal(b, &base); err != nil {
		fmt.Fprintf(os.Stderr, "exec baseline %s: %v\n", path, err)
		os.Exit(1)
	}
	if len(base.Measurements) == 0 || len(r.Measurements) == 0 {
		return
	}
	old := base.Measurements[len(base.Measurements)-1]
	cur := r.Measurements[len(r.Measurements)-1]
	fmt.Printf("vs baseline %s (at %d rows): batch speedup %.2fx -> %.2fx, morsel speedup %.2fx -> %.2fx\n",
		path, cur.Rows, old.BatchSpeedup, cur.BatchSpeedup, old.MorselSpeedup, cur.MorselSpeedup)
	if cur.BatchSpeedup < old.BatchSpeedup*0.8 {
		fmt.Printf("note: batch speedup fell more than 20%% below the committed baseline\n")
	}
}

// check aborts the benchmark on a setup error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func inlineCoverage() {
	fmt.Println("Inline coverage — XSLT→XQuery full-inline rate over the 40-case suite")
	inlined := 0
	var noninline []string
	for _, c := range xsltmark.All() {
		sheet, err := xslt.ParseStylesheet(c.Stylesheet)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: stylesheet: %v\n", c.Name, err)
			os.Exit(1)
		}
		schema, err := xschema.ParseCompact(c.Schema)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: schema: %v\n", c.Name, err)
			os.Exit(1)
		}
		res, err := core.Rewrite(sheet, schema, core.ModeAuto)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.Name, err)
			os.Exit(1)
		}
		if res.Inlined {
			inlined++
		} else {
			noninline = append(noninline, c.Name)
		}
	}
	fmt.Printf("fully inlined: %d / 40 (paper reports 23/40)\n", inlined)
	fmt.Printf("non-inline (recursive): %v\n\n", noninline)
}

// --- WAL fsync-policy microbenchmark (-wal) ---

// walConfigMeasure is one fsync policy's measurement: durable insert
// throughput plus the cost of replaying the resulting log on reopen.
type walConfigMeasure struct {
	Policy        string  `json:"policy"`
	InsertNanos   int64   `json:"insert_ns"`
	InsertsPerSec float64 `json:"inserts_per_sec"`
	ReplayNanos   int64   `json:"replay_ns"`
	ReplayRecords int     `json:"replay_records"`
	SlowdownVsMem float64 `json:"slowdown_vs_memory"`
}

type walReport struct {
	Rows     int                `json:"rows"`
	MemNanos int64              `json:"in_memory_ns"`
	MemRate  float64            `json:"in_memory_inserts_per_sec"`
	Configs  []walConfigMeasure `json:"configs"`
}

// benchWAL measures what durability costs: n facade Inserts into an
// in-memory database (the baseline), then into WAL-backed databases under
// each fsync policy, then the replay wall time of reopening each log.
// Medians over reps; artifact BENCH_wal.json (the `make bench-wal` target).
func benchWAL(reps, scale int) {
	n := 1000 * scale
	cols := []xsltdb.TableColumn{
		{Name: "id", Type: xsltdb.IntCol},
		{Name: "name", Type: xsltdb.StringCol},
	}
	fill := func(d *xsltdb.Database) error {
		if err := d.CreateTable("wal_bench", cols...); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := d.Insert("wal_bench", int64(i), fmt.Sprintf("payload-%06d", i)); err != nil {
				return err
			}
		}
		return nil
	}

	report := walReport{Rows: n}
	mem := median(reps, func() error { return fill(xsltdb.NewDatabase()) })
	report.MemNanos = mem.Nanoseconds()
	report.MemRate = float64(n) / mem.Seconds()
	fmt.Printf("%-10d %-14s %-20s %-12s %s\n", n, "in-memory", mem, fmt.Sprintf("%.0f/s", report.MemRate), "1.0x")

	configs := []struct {
		name string
		opts []xsltdb.OpenOption
	}{
		{"never", []xsltdb.OpenOption{xsltdb.WithSyncPolicy(xsltdb.SyncNever)}},
		{"interval-16", []xsltdb.OpenOption{xsltdb.WithSyncPolicy(xsltdb.SyncInterval), xsltdb.WithSyncEvery(16)}},
		{"always", []xsltdb.OpenOption{xsltdb.WithSyncPolicy(xsltdb.SyncAlways)}},
	}
	for _, cfg := range configs {
		// Keep the last populated log directory around for the replay leg.
		var lastDir string
		insert := median(reps, func() error {
			if lastDir != "" {
				os.RemoveAll(lastDir)
			}
			dir, err := os.MkdirTemp("", "xsltdb-walbench-*")
			if err != nil {
				return err
			}
			lastDir = dir
			d, err := xsltdb.Open(append([]xsltdb.OpenOption{xsltdb.WithDir(dir)}, cfg.opts...)...)
			if err != nil {
				return err
			}
			if err := fill(d); err != nil {
				return err
			}
			return d.Close()
		})
		var replayRecords int
		replay := median(reps, func() error {
			d, err := xsltdb.Open(xsltdb.WithDir(lastDir))
			if err != nil {
				return err
			}
			replayRecords = d.RecoveryStats().Records
			return d.Close()
		})
		os.RemoveAll(lastDir)
		m := walConfigMeasure{
			Policy:        cfg.name,
			InsertNanos:   insert.Nanoseconds(),
			InsertsPerSec: float64(n) / insert.Seconds(),
			ReplayNanos:   replay.Nanoseconds(),
			ReplayRecords: replayRecords,
			SlowdownVsMem: float64(insert) / float64(mem),
		}
		report.Configs = append(report.Configs, m)
		fmt.Printf("%-10d %-14s %-20s %-12s %.1fx   (replay %s, %d records)\n",
			n, cfg.name, insert, fmt.Sprintf("%.0f/s", m.InsertsPerSec), m.SlowdownVsMem, replay, replayRecords)
	}

	b, err := json.MarshalIndent(report, "", "  ")
	check(err)
	check(os.WriteFile("BENCH_wal.json", append(b, '\n'), 0o644))
	fmt.Println("wrote BENCH_wal.json")
	fmt.Println()
}
