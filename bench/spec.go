package main

// spec.go names everything the benchmark reports. BENCHMARK.json at the root
// of the repository is generated from these tables (-print-spec) and a test
// keeps the two equal. README.md explains each entry.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*env) (*outcome, error)
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	// moves says which end-to-end metric, on which workload, a per-layer
	// metric is expected to move; on every other pairing the prediction is
	// no change. It is documentation for the reader of a comparison.
	moves string
}

var workloads = []workloadSpec{
	{Name: "serve_hit", run: func(e *env) (*outcome, error) { return runServe(e, "serve_hit", true) },
		Why: "64 Zipf-popular keys fit the 256-entry result cache (hits ~100%): the engine idles and serve does the work; bypass workload for engine changes"},
	{Name: "serve_miss", run: func(e *env) (*outcome, error) { return runServe(e, "serve_miss", false) },
		Why: "5918 uniform keys against the same cache (hits <5%): every request plans, range-scans, constructs, serializes and writes; the cache in its losing regime"},
	{Name: "lib_scan", run: runLibScan,
		Why: "library Run, one caller, 200000-row driving table, unindexed 0.1% filter: relstore batch/morsel scan dominates, construct and serialize are small"},
	{Name: "paper_figs", run: runPaperFigs,
		Why: "the paper's Fig. 2/3 cases as rewrite and as no-rewrite, and in the traced pass a cold compile of all 40 XSLTMark stylesheets: compile pipeline and interpreter baseline"},
	{Name: "mixed_rw", run: runMixedRW,
		Why: "durable database, 500 inserts/s open-loop writer against a closed-loop HTTP reader: every insert invalidates the cache; the only workload with wal on the path"},
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, measured on its own data and operation, and the
// driver holds each of them on each workload to its bound, so the list holds
// only what repeats from run to run on a shared two-processor sandbox.
// Three metrics the issue lists are not here for that reason (README.md):
// failed_ratio is always 0 on a correct program and is reported as the
// "failed" and "attempted" counts of every run; the latency tail is in the
// run's notes and, with cold compile time and insert time, among the
// per-layer metrics of the traced pass.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "speedup_vs_norewrite", Unit: "x", Better: "higher", Bound: 0.25},
}

// perLayer are the metrics of single layers, all taken from outside the
// program by the traced pass (trace.go).
var perLayer = []metricSpec{
	{Name: "serve.net_us_p50", Unit: "us", Better: "lower", moves: "latency_p50_ms @ serve_hit"},
	{Name: "serve.handler_self_us_p50", Unit: "us", Better: "lower", moves: "throughput_ops_s @ serve_miss"},
	{Name: "serve.hit_us_p50", Unit: "us", Better: "lower", moves: "latency_p50_ms, throughput_ops_s @ serve_hit"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", moves: "throughput_ops_s @ serve_hit, mixed_rw"},
	{Name: "serve.cache_evictions_per_op", Unit: "count", Better: "lower", moves: "alloc_kb_per_op @ serve_miss"},
	{Name: "serve.coalesced_ratio", Unit: "ratio", Better: "higher", moves: "throughput_ops_s @ serve_hit"},
	{Name: "serve.shed_total", Unit: "count", Better: "lower", moves: "failed @ serve_miss"},
	{Name: "serve.bytes_out_per_op", Unit: "B", Better: "lower", moves: "latency_p50_ms @ serve_hit"},

	{Name: "xsltdb.run_self_us_p50", Unit: "us", Better: "lower", moves: "latency_p50_ms @ serve_miss, lib_scan"},
	{Name: "xsltdb.cursor_vs_run_ratio", Unit: "ratio", Better: "lower", moves: "latency_p50_ms @ lib_scan"},
	{Name: "xsltdb.plancache_hit_ns", Unit: "ns", Better: "lower", moves: "setup_s @ all"},
	{Name: "xsltdb.plancache_hit_ratio", Unit: "ratio", Better: "higher", moves: "latency_p50_ms @ serve_miss"},
	{Name: "xsltdb.recompiles_per_op", Unit: "count", Better: "lower", moves: "latency_p50_ms @ serve_miss"},
	{Name: "xsltdb.degradations_total", Unit: "count", Better: "lower", moves: "failed @ all"},

	{Name: "xsltdb.compile_ms_p50", Unit: "ms", Better: "lower", moves: "setup_s @ all; the cold compile a first request pays"},
	{Name: "xslt.parse_us_p50", Unit: "us", Better: "lower", moves: "setup_s @ paper_figs, through xsltdb.compile_ms_p50"},
	{Name: "core.rewrite_ms_p50", Unit: "ms", Better: "lower", moves: "setup_s @ paper_figs, through xsltdb.compile_ms_p50"},
	{Name: "xq2sql.translate_us_p50", Unit: "us", Better: "lower", moves: "setup_s @ paper_figs, through xsltdb.compile_ms_p50"},
	{Name: "core.inline_ratio", Unit: "ratio", Better: "higher", moves: "speedup_vs_norewrite @ paper_figs"},
	{Name: "xq2sql.sql_plan_ratio", Unit: "ratio", Better: "higher", moves: "speedup_vs_norewrite @ paper_figs"},

	{Name: "sqlxml.construct_us_p50", Unit: "us", Better: "lower", moves: "throughput_ops_s @ serve_miss"},
	{Name: "sqlxml.construct_us_per_doc", Unit: "us", Better: "lower", moves: "throughput_ops_s, allocs_per_op @ serve_miss; speedup_vs_norewrite @ paper_figs"},
	{Name: "sqlxml.docs_per_op", Unit: "count", Better: "lower", moves: "throughput_ops_s @ serve_miss"},

	{Name: "relstore.scan_us_p50", Unit: "us", Better: "lower", moves: "throughput_ops_s @ lib_scan"},
	{Name: "relstore.scan_mrows_per_s", Unit: "Mrows/s", Better: "higher", moves: "throughput_ops_s @ lib_scan"},
	{Name: "relstore.probe_ns_p50", Unit: "ns", Better: "lower", moves: "latency_p50_ms @ paper_figs (dbonerow)"},
	{Name: "relstore.snapshot_ns_p50", Unit: "ns", Better: "lower", moves: "latency_p50_ms @ serve_miss, mixed_rw"},
	{Name: "relstore.rows_scanned_per_op", Unit: "count", Better: "lower", moves: "throughput_ops_s @ lib_scan"},
	{Name: "relstore.rows_filtered_per_op", Unit: "count", Better: "lower", moves: "throughput_ops_s @ lib_scan, serve_miss"},
	{Name: "relstore.rows_examined_per_row_out", Unit: "ratio", Better: "lower", moves: "throughput_ops_s @ lib_scan"},
	{Name: "relstore.index_probes_per_op", Unit: "count", Better: "lower", moves: "throughput_ops_s @ serve_miss"},
	{Name: "relstore.batches_per_op", Unit: "count", Better: "lower", moves: "throughput_ops_s @ lib_scan"},
	{Name: "relstore.morsels_per_op", Unit: "count", Better: "higher", moves: "throughput_ops_s @ lib_scan"},
	{Name: "relstore.insert_ns_p50", Unit: "ns", Better: "lower", moves: "throughput_ops_s @ mixed_rw (writer holds writeMu); setup_s @ all"},

	{Name: "xmltree.serialize_us_p50", Unit: "us", Better: "lower", moves: "throughput_ops_s @ serve_miss"},
	{Name: "xmltree.serialize_ns_per_kb", Unit: "ns/KB", Better: "lower", moves: "alloc_kb_per_op, throughput_ops_s @ serve_miss"},
	{Name: "xmltree.parse_ns_per_kb", Unit: "ns/KB", Better: "lower", moves: "speedup_vs_norewrite @ paper_figs (baseline side)"},

	{Name: "xslt.interpret_us_per_doc", Unit: "us", Better: "lower", moves: "speedup_vs_norewrite @ paper_figs (baseline side)"},
	{Name: "xquery.eval_us_per_doc", Unit: "us", Better: "lower", moves: "speedup_vs_norewrite @ paper_figs"},

	{Name: "wal.append_ns_p50", Unit: "ns", Better: "lower", moves: "throughput_ops_s, setup_s @ mixed_rw, through relstore.insert_ns_p50"},
	{Name: "wal.bytes_per_insert", Unit: "B", Better: "lower", moves: "throughput_ops_s, setup_s @ mixed_rw, through relstore.insert_ns_p50"},
	{Name: "wal.fsync_us_p50", Unit: "us", Better: "lower", moves: "none under SyncNever; the sandbox's fsync, not a device's"},
	{Name: "wal.replay_us_per_record", Unit: "us", Better: "lower", moves: "setup_s @ mixed_rw"},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", moves: "latency_p50_ms @ serve_hit once the program samples traces"},

	{Name: "bench.op_us_p50", Unit: "us", Better: "lower", moves: "the traced pass's own median operation time"},
	{Name: "bench.op_us_p90", Unit: "us", Better: "lower", moves: "the tail of the same operations: what latency_p50_ms leaves out @ all"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", moves: "the ruler itself"},
	{Name: "bench.gen_lag_ms_p95", Unit: "ms", Better: "lower", moves: "the ruler itself"},
	{Name: "bench.negative_self_pct", Unit: "%", Better: "lower", moves: "the ruler itself"},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "higher", moves: "the ruler itself"},
	{Name: "bench.clients", Unit: "count", Better: "higher", moves: "the ruler itself"},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// runSeconds is the length of one measured run: the issue's 20 s windows.
// With set-up, oracle and warm-up a run takes about 25 s, and the driver's 114
// runs and two builds about 48 of the 57 minutes it allows.
const runSeconds = 20

func benchmarkSpec() benchmarkFile {
	return benchmarkFile{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
	}
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
