package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	xsltdb "repro"
	"repro/serve"
)

// trace.go is the traced pass: one client replays each operation at
// successively lower public entry points with the same parameters —
//
//	http                socket request to the workload's server
//	  serve.handler     the same request into an uncached server's handler, no socket
//	    xsltdb.run      CompiledTransform.Run with the same options
//	      sqlxml.exec   the SQL/XML executor's Spec entry point
//	        relstore.scan    the driving access path, drained
//	      xmltree.serialize  the executor's trees rendered to text
//
// — and records a span for every call, the lower replay being the child of
// the higher one. A replay runs after its parent, not inside it, so a
// layer's self time is its span minus its children's spans. Nothing is
// added to the program: every span is wall time around a public call. The
// spans stay in memory until the pass ends.

// span is one timed call. Times are nanoseconds since the pass began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	origin time.Time
	spans  []span
}

// call times fn as a span of operation op under parent and returns its id.
func (r *recorder) call(op, parent int, name string, fn func() error) (int, error) {
	start := time.Since(r.origin)
	err := fn()
	end := time.Since(r.origin)
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, OpID: op, Name: name, Start: int64(start), End: int64(end)})
	return len(r.spans), err
}

// times returns, per span name, every span's duration and self time in ns.
func (r *recorder) times() (dur, self map[string][]float64) {
	children := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		children[s.Parent] += s.End - s.Start
	}
	dur, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range r.spans {
		d := s.End - s.Start
		dur[s.Name] = append(dur[s.Name], float64(d))
		self[s.Name] = append(self[s.Name], float64(d-children[s.ID]))
	}
	return dur, self
}

// write stores the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples times n calls of fn and returns each call's ns.
func samples(n int, fn func(i int) error) ([]float64, error) {
	return budgeted(n, 24*time.Hour, fn) // no budget to speak of
}

// budgeted is samples bounded by time as well: at least three calls, at
// most n, none started after d has passed. For probes whose cost differs by
// orders of magnitude between workloads.
func budgeted(n int, d time.Duration, fn func(i int) error) ([]float64, error) {
	deadline := time.Now().Add(d)
	var out []float64
	for i := 0; i < n && (i < 3 || time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds()))
	}
	return out, nil
}

// handlerGet sends one request into a handler with a recorder instead of a
// socket and returns the body.
func handlerGet(h http.Handler, path string) (*bytes.Buffer, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != 200 {
		return nil, fmt.Errorf("handler: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec.Body, nil
}

// tracedPass is one workload prepared for the traced pass.
type tracedPass struct {
	e   *env
	o   *outcome
	p   *prepared
	op  opFunc       // the operation at the workload's own entry point, with its own check
	pre func() error // runs before every operation (mixed_rw: one insert), or nil
	// live, where the data changes between operations, returns the check
	// for a read of key k that is about to be sent; nil elsewhere, where a
	// read is compared with the interpreter's bytes.
	live func(k int) func(body []byte) bool

	eng      *engine
	plans    map[string]*plan
	handler  http.Handler // the workload's server, cache as configured
	uncached http.Handler // a twin server without result cache: every request executes
	refs     map[int][]string
	rec      recorder
	docs     int // driving rows constructed by the ladder's executor replays
	outKB    float64
}

func joinRows(rows []string) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// reference returns the interpreter's rows for key k. They are cached per
// key unless the data changes between batches.
func (t *tracedPass) reference(k int) ([]string, error) {
	if rows, ok := t.refs[k]; ok {
		return rows, nil
	}
	res, err := t.p.tr[k].baseline.Run(context.Background(), t.p.opts[k]...)
	if err != nil {
		return nil, err
	}
	if t.pre == nil {
		t.refs[k] = res.Rows
	}
	return res.Rows, nil
}

// replay is one operation on its way down the ladder.
type replay struct {
	i, k                     int // operation number and its key
	want                     []string
	wantBody                 string
	hit                      bool // the socket request was answered by the result cache
	httpID, handlerID, runID int
	failed                   bool
}

func (r *replay) check(got string) {
	if got != r.wantBody {
		r.failed = true
	}
}

// ladder replays operations first..first+n-1 at every entry point and
// compares the bytes each level returns with the interpreter's. Down to the
// facade it goes level by level, not operation by operation: the n socket
// requests first, then the n handler calls, then the n Runs, so that each
// entry point runs in a tight loop as it does under load. Taken one
// operation at a time, a socket request would follow a millisecond of other
// work, find its goroutines and threads parked, and measure waking them up.
// Where the data changes before every operation (mixed_rw), each socket
// request follows its insert, so that it finds the data version moved and
// the cache useless as in the untraced run; the levels below run after the
// batch's last insert and all read the same data.
func (t *tracedPass) ladder(first, n int) error {
	p, ctx := t.p, context.Background()
	rs := make([]replay, n)
	for j := range rs {
		rs[j].i, rs[j].k = first+j, p.key(first+j)
	}
	reference := func() error {
		for j := range rs {
			r := &rs[j]
			var err error
			if r.want, err = t.reference(r.k); err != nil {
				return err
			}
			r.wantBody = joinRows(r.want)
		}
		return nil
	}
	if t.live == nil {
		if err := reference(); err != nil {
			return err
		}
	}

	var scratch bytes.Buffer
	for j := range rs {
		r := &rs[j]
		check := r.check
		if t.live != nil {
			if _, err := t.rec.call(r.i, 0, "relstore.insert", t.pre); err != nil {
				return err
			}
			ok := t.live(r.k)
			check = func(got string) { r.failed = r.failed || !ok([]byte(got)) }
		}
		var err error
		if r.httpID, err = t.rec.call(r.i, 0, "http", func() error {
			status, hit, err := p.f.get(p.paths[r.k], &scratch)
			if err == nil && status != 200 {
				err = fmt.Errorf("http: status %d", status)
			}
			r.hit = hit
			return err
		}); err != nil {
			return err
		}
		check(scratch.String())
	}
	// From here on the data stands still, and every level below is compared
	// with what the interpreter makes of it now.
	if t.live != nil {
		if err := reference(); err != nil {
			return err
		}
	}
	// The cache of the workload's server now holds every key of the batch,
	// so this is the hit path. It is the socket request's child when that
	// was a hit too; otherwise the uncached handler below is.
	for j := range rs {
		r := &rs[j]
		parent := 0
		if r.hit {
			parent = r.httpID
		}
		var body *bytes.Buffer
		if _, err := t.rec.call(r.i, parent, "serve.handler_hit", func() (err error) {
			body, err = handlerGet(t.handler, p.paths[r.k])
			return err
		}); err != nil {
			return err
		}
		r.check(body.String())
	}
	for j := range rs {
		r := &rs[j]
		parent := r.httpID
		if r.hit {
			parent = 0
		}
		var body *bytes.Buffer
		var err error
		if r.handlerID, err = t.rec.call(r.i, parent, "serve.handler", func() (err error) {
			body, err = handlerGet(t.uncached, p.paths[r.k])
			return err
		}); err != nil {
			return err
		}
		r.check(body.String())
	}
	for j := range rs {
		r := &rs[j]
		var res *xsltdb.Result
		var err error
		if r.runID, err = t.rec.call(r.i, r.handlerID, "xsltdb.run", func() (err error) {
			res, err = p.tr[r.k].ct.Run(ctx, p.opts[r.k]...)
			return err
		}); err != nil {
			return err
		}
		r.check(joinRows(res.Rows))
		t.o.Metrics["xsltdb.recompiles_per_op"] += float64(res.Stats.Recompiles)
		t.o.Metrics["xsltdb.degradations_total"] += float64(res.Stats.Degradations)
	}
	// Below the facade nothing parks or wakes, and what one level builds the
	// next reads, so here the levels of one operation follow each other:
	// the executor's trees are serialized while they are still in the
	// processor's cache, as Run does it.
	for j := range rs {
		r := &rs[j]
		pl, args := t.plans[p.tr[r.k].Name], p.args[r.k]
		var docs docSet
		execID, err := t.rec.call(r.i, r.runID, "sqlxml.exec", func() (err error) {
			docs, err = t.eng.execute(pl, args)
			return err
		})
		if err != nil {
			return err
		}
		n := 0
		_, _ = t.rec.call(r.i, r.runID, "xmltree.serialize", func() error {
			n = serializeDocs(docs)
			return nil
		})
		rows := 0
		if _, err := t.rec.call(r.i, execID, "relstore.scan", func() (err error) {
			rows, err = t.eng.drain(pl, args)
			return err
		}); err != nil {
			return err
		}
		// The body is the rows with a newline after each.
		if rows != len(docs) || len(docs) != len(r.want) || n+len(r.want) != len(r.wantBody) {
			r.failed = true
		}
		t.outKB += float64(n) / 1024
		t.docs += len(docs)
		failed := 0
		if r.failed {
			failed = 1
		}
		t.o.count(1, failed)
	}
	return nil
}

// layerOfSpan names the metric that reports a span's median self time.
var layerOfSpan = map[string]string{
	"http":              "serve.net_us_p50",
	"serve.handler":     "serve.handler_self_us_p50",
	"xsltdb.run":        "xsltdb.run_self_us_p50",
	"sqlxml.exec":       "sqlxml.construct_us_p50",
	"relstore.scan":     "relstore.scan_us_p50",
	"xmltree.serialize": "xmltree.serialize_us_p50",
}

// runTraced is the traced pass of one workload and the source of every
// per-layer metric.
func runTraced(e *env, name string) (*outcome, error) {
	t := &tracedPass{e: e, o: newOutcome(), refs: map[int][]string{}}
	switch name {
	case "serve_hit", "serve_miss":
		p, err := prepareServe(e, name == "serve_hit")
		if err != nil {
			return nil, err
		}
		defer p.close()
		t.p, t.op = p, p.op
	case "lib_scan":
		p, err := prepareLibScan(e)
		if err != nil {
			return nil, err
		}
		defer p.close()
		t.p, t.op = p, p.op
	case "paper_figs":
		p, err := preparePaperFigs(e)
		if err != nil {
			return nil, err
		}
		defer p.close()
		t.p, t.op = p, p.op
	case "mixed_rw":
		m, err := prepareMixedRW(e)
		if err != nil {
			return nil, err
		}
		defer m.close()
		// One client means no concurrent writer, so the writer's effect is
		// kept by inserting one row before every read: each read finds the
		// data version moved and the cache useless, as in the untraced run.
		t.p, t.op = m.prepared, m.reader()
		t.live = func(k int) func([]byte) bool { return m.expecting(k, nil) }
		w := &writer{db: m.f.db, rows: m.inserts, acked: m.acked.add}
		t.pre = w.insertNext
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := t.run(name); err != nil {
		return nil, err
	}
	return t.o, nil
}

func (t *tracedPass) run(name string) error {
	e, o, p := t.e, t.o, t.p
	db := p.f.db
	t.eng = newEngine(db)
	t.handler = p.f.srv.Handler()
	twin, err := serve.New(serve.Config{DB: db, CacheCapacity: -1})
	if err != nil {
		return err
	}
	defer twin.Close()
	t.plans = map[string]*plan{}
	for _, tr := range p.f.transforms {
		if err := twin.RegisterTransform(tr.Name, tr.View, tr.Sheet); err != nil {
			return err
		}
		pl, err := t.eng.compile(db.View(tr.View), tr.Sheet)
		if err != nil {
			return err
		}
		if pl.query == nil {
			return fmt.Errorf("%s did not lower to SQL/XML; the ladder replays the SQL strategy", tr.Name)
		}
		t.plans[tr.Name] = pl
	}
	t.uncached = twin.Handler()

	if err := p.fillCache(); err != nil {
		return err
	}

	// Counted pass: the first CountedOps operations of the seeded sequence,
	// untraced, one caller, at the workload's own entry point. The counters
	// are the program's public ones, read before and after, so they repeat
	// exactly for a seed; the times are the untraced reference for the
	// tracing overhead.
	var scratch bytes.Buffer
	nOps := e.Sizes.CountedOps
	statsBefore, cacheBefore := *db.Stats(), p.f.srv.CacheStats()
	failed := 0
	var outBytes int
	untraced, err := samples(nOps, func(i int) error {
		if t.pre != nil {
			if err := t.pre(); err != nil {
				return err
			}
		}
		if !t.op(i, &scratch) {
			failed++
		}
		outBytes += scratch.Len()
		return nil
	})
	if err != nil {
		return err
	}
	o.count(nOps, failed)
	st, cache := *db.Stats(), p.f.srv.CacheStats()
	ops := float64(nOps)
	perOp := func(after, before int64) float64 { return float64(after-before) / ops }
	o.Metrics["relstore.rows_scanned_per_op"] = perOp(st.RowsScanned, statsBefore.RowsScanned)
	o.Metrics["relstore.rows_filtered_per_op"] = perOp(st.RowsFiltered, statsBefore.RowsFiltered)
	o.Metrics["relstore.index_probes_per_op"] = perOp(st.IndexProbes, statsBefore.IndexProbes)
	o.Metrics["relstore.batches_per_op"] = perOp(st.Batches, statsBefore.Batches)
	o.Metrics["relstore.morsels_per_op"] = perOp(st.Morsels, statsBefore.Morsels)
	examined := float64(st.RowsEmitted - statsBefore.RowsEmitted + st.RowsFiltered - statsBefore.RowsFiltered)
	o.Metrics["serve.cache_hit_ratio"] = cacheHitRatio(cacheBefore, cache)
	o.Metrics["serve.cache_evictions_per_op"] = perOp(int64(cache.Evictions), int64(cacheBefore.Evictions))
	var coalesced, shed, served float64
	for _, ten := range p.f.srv.TenantsState() {
		coalesced += float64(ten.Coalesced)
		shed += float64(ten.Shed)
		served += float64(ten.Served)
	}
	o.Metrics["serve.coalesced_ratio"] = ratio(coalesced, served)
	o.Metrics["serve.shed_total"] = shed
	o.Metrics["serve.bytes_out_per_op"] = float64(outBytes) / ops
	// The driving rows of the counted operations, from the driving access
	// path alone: what the executor constructs when one of them executes.
	countedDocs := 0
	for i := 0; i < nOps; i++ {
		k := p.key(i)
		rows, err := t.eng.drain(t.plans[p.tr[k].Name], p.args[k])
		if err != nil {
			return err
		}
		countedDocs += rows
	}

	// Traced pass: the ladder, for half of the run's seconds, continuing
	// the request sequence where the counted pass stopped.
	t.rec.origin = time.Now()
	deadline := t.rec.origin.Add(e.window(0.5))
	o.Metrics["xsltdb.recompiles_per_op"], o.Metrics["xsltdb.degradations_total"] = 0, 0
	const batch = 32
	laddered := 0
	for laddered < batch || time.Now().Before(deadline) {
		if err := t.ladder(nOps+laddered, batch); err != nil {
			return fmt.Errorf("ladder from operation %d: %w", laddered, err)
		}
		laddered += batch
	}
	o.Metrics["xsltdb.recompiles_per_op"] /= float64(laddered)
	if err := t.rec.write(filepath.Join(e.OutDir, name+".trace.ndjson")); err != nil {
		return err
	}
	dur, self := t.rec.times()
	top := "xsltdb.run"
	if p.http {
		top = "http"
	}
	wall := median(dur[top])
	// A layer's self time below zero means its replays do more than it does.
	// It is judged against the operation that contains all of them: the
	// uncached handler's, which always executes.
	executed := median(dur["serve.handler"])
	worst := 0.0
	shares := map[string]float64{}
	for spanName, metric := range layerOfSpan {
		m := median(self[spanName])
		o.Metrics[metric] = m / 1e3
		shares[spanName] = m / 1e3
		worst = min(worst, m/executed)
	}
	o.Notes["self_us_p50"] = shares
	o.Notes["ladder_ops"] = laddered
	o.Metrics["serve.hit_us_p50"] = median(dur["serve.handler_hit"]) / 1e3
	o.Metrics["bench.op_us_p50"] = wall / 1e3
	o.Metrics["bench.op_us_p90"] = quantile(dur[top], 0.90) / 1e3
	o.Metrics["bench.trace_overhead_pct"] = (wall/median(untraced) - 1) * 100
	o.Metrics["bench.negative_self_pct"] = max(0, -worst*100)
	var constructNs, serializeNs float64
	for _, v := range self["sqlxml.exec"] {
		constructNs += v
	}
	for _, v := range dur["xmltree.serialize"] {
		serializeNs += v
	}
	o.Metrics["sqlxml.construct_us_per_doc"] = ratio(constructNs/1e3, float64(t.docs))
	o.Metrics["sqlxml.docs_per_op"] = float64(countedDocs) / ops
	o.Metrics["relstore.rows_examined_per_row_out"] = ratio(examined, float64(countedDocs))
	o.Metrics["xmltree.serialize_ns_per_kb"] = ratio(serializeNs, t.outKB)

	if err := t.probeCompile(); err != nil {
		return fmt.Errorf("compile probes: %w", err)
	}
	if err := t.probeEngine(); err != nil {
		return fmt.Errorf("engine probes: %w", err)
	}
	if err := t.probeWAL(name); err != nil {
		return fmt.Errorf("wal probes: %w", err)
	}
	// The writer's pacing is the only generator a one-client pass has; its
	// lateness is the lateness of the benchmark's open loops.
	_, lag, _ := (&writer{db: db, rows: p.inserts, rate: insertRate}).run(e.window(0.05))
	o.Metrics["bench.gen_lag_ms_p95"] = quantile(lag, 0.95)
	o.Metrics["bench.gomaxprocs"] = float64(e.Procs)
	o.Metrics["bench.clients"] = float64(e.Clients)
	pc := db.PlanCacheStats()
	o.Metrics["xsltdb.plancache_hit_ratio"] = ratio(float64(pc.CacheHits), float64(pc.CacheHits+pc.CacheMisses))
	return nil
}

// probeCompile times the stages of the compile pipeline on the workload's
// stylesheets, and counts how many inline fully and how many reach SQL/XML.
func (t *tracedPass) probeCompile() error {
	o, p, db := t.o, t.p, t.p.f.db
	var parse, rewrite, translate []float64
	for i := 0; i < 40*t.e.Sizes.ColdCompiles; i++ {
		s := p.sheets[i%len(p.sheets)]
		pl, err := t.eng.compile(db.View(s.View), s.Sheet)
		if err != nil {
			return err
		}
		parse = append(parse, float64(pl.parse.Nanoseconds()))
		rewrite = append(rewrite, float64(pl.rewrite.Nanoseconds()))
		if pl.query != nil {
			translate = append(translate, float64(pl.translate.Nanoseconds()))
		}
	}
	// The same compilations through the facade, in one piece; a tag of its own
	// keeps each out of the plan cache, which would answer all but the first.
	cold, err := samples(len(parse), func(i int) error {
		s := p.sheets[i%len(p.sheets)]
		_, err := db.CompileTransform(s.View, s.Sheet, xsltdb.WithPlanTag("cold-"+strconv.Itoa(i)))
		return err
	})
	if err != nil {
		return err
	}
	o.Metrics["xsltdb.compile_ms_p50"] = median(cold) / 1e6
	o.Metrics["xslt.parse_us_p50"] = median(parse) / 1e3
	o.Metrics["core.rewrite_ms_p50"] = median(rewrite) / 1e6
	o.Metrics["xq2sql.translate_us_p50"] = median(translate) / 1e3

	inlined, sql := 0, 0
	for _, s := range p.sheets {
		ct, err := db.CompileTransform(s.View, s.Sheet)
		if err != nil {
			return err
		}
		if ct.Strategy() == xsltdb.StrategySQL {
			sql++
		}
		if ct.Inlined() {
			inlined++
		}
	}
	// The XSLTMark stylesheets are counted over the suite's own schemas,
	// recursive ones included, which is the paper's "23 out of 40"; the
	// views they compile against here cannot recurse.
	if len(p.sheets) > 1 {
		inlined = 0
		for _, c := range markCases() {
			ok, err := c.inlinesFully()
			if err != nil {
				return err
			}
			if ok {
				inlined++
			}
		}
	}
	o.Metrics["core.inline_ratio"] = float64(inlined) / float64(len(p.sheets))
	o.Metrics["xq2sql.sql_plan_ratio"] = float64(sql) / float64(len(p.sheets))

	hit, err := samples(t.e.Sizes.ProbeN, func(i int) error {
		s := p.sheets[i%len(p.sheets)]
		_, err := db.CompileTransform(s.View, s.Sheet)
		return err
	})
	if err != nil {
		return err
	}
	o.Metrics["xsltdb.plancache_hit_ns"] = median(hit)
	return nil
}

// probeEngine times single calls into relstore, xmltree, the functional
// strategies, the cursor pipeline and the program's own tracing, on the
// workload's data and operations.
func (t *tracedPass) probeEngine() error {
	o, p, db, n := t.o, t.p, t.p.f.db, t.e.Sizes.ProbeN
	ctx := context.Background()
	budget := t.e.window(0.04)

	probe, err := samples(n, func(i int) error {
		_, err := t.eng.probe(p.scanTable, p.probeCol, int64(i*7919)%p.probeKeys+1)
		return err
	})
	if err != nil {
		return err
	}
	o.Metrics["relstore.probe_ns_p50"] = median(probe)
	snap, _ := samples(n, func(int) error { t.eng.snapshot(); return nil })
	o.Metrics["relstore.snapshot_ns_p50"] = median(snap)
	scanned := 0
	scan, err := budgeted(n, budget, func(int) (err error) {
		scanned, err = t.eng.fullScan(p.scanTable)
		return err
	})
	if err != nil {
		return err
	}
	o.Metrics["relstore.scan_mrows_per_s"] = float64(scanned) / median(scan) * 1e3

	// One key's operation, for the probes that compare two ways of running it.
	k := p.key(0)
	tr, opts := p.tr[k], p.opts[k]
	res, err := tr.ct.Run(ctx, opts...)
	if err != nil {
		return err
	}
	docs := float64(max(1, len(res.Rows)))
	kb := float64(len(joinRows(res.Rows))) / 1024
	parse, err := budgeted(n, budget, func(int) error { return parseRows(res.Rows) })
	if err != nil {
		return err
	}
	o.Metrics["xmltree.parse_ns_per_kb"] = median(parse) / kb

	// A functional strategy materializes the view rows and then interprets
	// or evaluates each; what it spends beyond materializing is its own.
	materialize, err := budgeted(n, budget, func(int) error {
		_, err := t.eng.materialize(t.plans[tr.Name], p.args[k])
		return err
	})
	if err != nil {
		return err
	}
	xq, err := db.CompileTransform(tr.View, tr.Sheet, xsltdb.WithForcedStrategy(xsltdb.StrategyXQuery))
	if err != nil {
		return err
	}
	for metric, ct := range map[string]*xsltdb.CompiledTransform{"xslt.interpret_us_per_doc": tr.baseline, "xquery.eval_us_per_doc": xq} {
		ns, err := budgeted(n, budget, func(int) error {
			_, err := ct.Run(ctx, opts...)
			return err
		})
		if err != nil {
			return err
		}
		o.Metrics[metric] = (median(ns) - median(materialize)) / 1e3 / docs
	}

	// Interleaved pairs: Run against OpenCursor drained, and Run against Run
	// with the program's own trace attached.
	var run, cursor, plain, traced []float64
	deadline := time.Now().Add(2 * budget)
	for i := 0; i < n && (i < 3 || time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		if _, err := tr.ct.Run(ctx, opts...); err != nil {
			return err
		}
		run = append(run, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		cur, err := tr.ct.OpenCursor(ctx, opts...)
		if err != nil {
			return err
		}
		for {
			if _, err := cur.Next(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return err
			}
		}
		cur.Close()
		cursor = append(cursor, float64(time.Since(t0).Nanoseconds()))

		t0 = time.Now()
		if _, err := tr.ct.Run(ctx, opts...); err != nil {
			return err
		}
		plain = append(plain, float64(time.Since(t0).Nanoseconds()))
		withTrace, release := withEngineTrace()
		t0 = time.Now()
		_, err = tr.ct.Run(ctx, append(opts[:len(opts):len(opts)], withTrace)...)
		traced = append(traced, float64(time.Since(t0).Nanoseconds()))
		release()
		if err != nil {
			return err
		}
	}
	o.Metrics["xsltdb.cursor_vs_run_ratio"] = median(cursor) / median(run)
	o.Metrics["obs.trace_overhead_pct"] = (median(traced)/median(plain) - 1) * 100

	// Inserts last: they change the data every probe above has read.
	ins, err := samples(n, func(i int) error {
		row := p.inserts[len(p.inserts)-1-i%len(p.inserts)]
		row.Empno += 1 << 30
		return insertEmp(db, row)
	})
	if err != nil {
		return err
	}
	o.Metrics["relstore.insert_ns_p50"] = median(ins)
	return nil
}

// probeWAL times the write-ahead log on its own and behind the facade, in a
// scratch directory: appends without fsync, appends with the sandbox's
// fsync, the log bytes one facade insert costs, and the replay of a reopen.
func (t *tracedPass) probeWAL(name string) error {
	o, n := t.o, t.e.Sizes.ProbeN
	dir, err := os.MkdirTemp(t.e.OutDir, name+"-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payload := bytes.Repeat([]byte{0x5a}, 48) // about the size of one logged emp row
	appends, _, err := walProbe(filepath.Join(dir, "never"), payload, 4*n, false)
	if err != nil {
		return err
	}
	o.Metrics["wal.append_ns_p50"] = median(appends)
	_, fsyncs, err := walProbe(filepath.Join(dir, "always"), payload, n/2+1, true)
	if err != nil {
		return err
	}
	o.Metrics["wal.fsync_us_p50"] = median(fsyncs) / 1e3

	dbDir := filepath.Join(dir, "db")
	db, err := openDB(dbDir)
	if err != nil {
		return err
	}
	if err := createEmp(db); err != nil {
		db.Close()
		return err
	}
	inserts := 4 * n
	for i := 0; i < inserts; i++ {
		if err := insertEmp(db, t.p.inserts[i%len(t.p.inserts)]); err != nil {
			db.Close()
			return err
		}
	}
	if err := db.Close(); err != nil {
		return err
	}
	var logBytes int64
	segs, err := filepath.Glob(filepath.Join(dbDir, "*"))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			return err
		}
		logBytes += fi.Size()
	}
	o.Metrics["wal.bytes_per_insert"] = float64(logBytes) / float64(inserts)
	t0 := time.Now()
	db, err = openDB(dbDir)
	if err != nil {
		return err
	}
	replay := time.Since(t0)
	records := db.RecoveryStats().Records
	db.Close()
	o.Metrics["wal.replay_us_per_record"] = ratio(float64(replay.Nanoseconds())/1e3, float64(records))
	return nil
}
