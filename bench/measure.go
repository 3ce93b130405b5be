package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	xsltdb "repro"
	"repro/serve"
)

// measure.go is the untraced run of each workload: the numbers a user of
// the system would see.
//
// Every run repeats its phases in rounds, so that each phase is spread over
// the whole run, and reports what the rounds agree on. The two processors of
// this sandbox are a virtual machine's on a shared host: for seconds, often
// for a minute at a time, a neighbour makes everything 10-40 % slower, the
// requests that cross threads and sockets most of all, and in such a spell
// most rounds of a run are slow. A timed metric is therefore taken from the
// best third of its fifteen rounds — what the program does when the box
// leaves it alone, the only level that repeats from run to run — as the mean
// of the second- to fifth-best round; the very best is left out because a
// round now and then is lucky (serve_miss has rounds whose median latency is
// a quarter below all others). A round is long enough (hundreds of
// operations, several collections) to hold the program's own periodic costs,
// so the best rounds do not hide them. mixed_rw is the exception: its database
// grows under the reader, every round is slower than the one before, the best
// rounds are simply the first, and a spell that hits those moves the result
// by the whole decay; its timed metrics are the median round's. Allocations
// per operation are counts, not times, and the median round's everywhere. The speed-up is a
// ratio of two times taken side by side, which a slow spell leaves alone; it
// is the mean of the middle half of its rounds.

// env is what a run was asked to do and the box it runs on.
type env struct {
	Seed    int64
	Seconds float64 // total timed seconds of the run, split among its phases
	Sizes   sizes
	Procs   int    // GOMAXPROCS
	Clients int    // client goroutines = connections; never more than Procs
	OutDir  string // traces, history and the durable database's scratch space
	Log     io.Writer
}

// rounds is how many times a run repeats its phases, and bestRounds how many
// of them a timed metric is taken from, the very best excepted.
const (
	rounds     = 15
	bestRounds = 5
)

// window is a share of the run's timed seconds; slot is one round's part of it.
func (e *env) window(share float64) time.Duration {
	return time.Duration(share * e.Seconds * float64(time.Second))
}

func (e *env) slot(share float64) time.Duration { return e.window(share) / rounds }

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.Log, format+"\n", args...) }

// nominalSeconds is the run length the windows were designed for. A shorter
// run scales every window, the 2 s warm-up included, by one factor.
const nominalSeconds = 20.0

func (e *env) warmup() time.Duration { return e.window(2.0 / nominalSeconds) }

// insertRate is the fixed rate of mixed_rw's writer, which runs through
// nine tenths of a run next to the reader.
const insertRate = 500.0

// openRates freezes the open-loop request rate of the two HTTP workloads at
// about 40 % of the closed-loop throughput measured at the commit that
// introduced the benchmark (results/seed.json), so that latency is measured
// at the same offered load on every later commit.
var openRates = map[string]float64{"serve_hit": 6500, "serve_miss": 550}

// outcome is what a run reports.
type outcome struct {
	Metrics           map[string]float64
	Attempted, Failed int
	Notes             map[string]any // sample counts and per-case detail, for the reader

	perRound map[string][]float64 // what each round measured, by name, until settle
	drifts   bool                 // every round is slower than the one before: take the median round, not the best
	lagMs    []float64
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Notes: map[string]any{}, perRound: map[string][]float64{}}
}

func (o *outcome) count(attempted, failed int) {
	o.Attempted += attempted
	o.Failed += failed
}

// observe records what one round measured.
func (o *outcome) observe(name string, v float64) {
	o.perRound[name] = append(o.perRound[name], v)
}

// settle turns the rounds into the run's metrics. What a round measured
// besides — the tail of its latencies, mixed_rw's insert latencies — goes to
// the notes with the rounds themselves: it does not repeat well enough from
// run to run to carry a bound (see README.md).
func (o *outcome) settle() {
	medianRound := func(name string) float64 { return median(append([]float64{}, o.perRound[name]...)) }
	timed := func(name string, higher bool) float64 {
		if o.drifts {
			return medianRound(name)
		}
		return bestMean(o.perRound[name], bestRounds, higher)
	}
	o.Metrics["throughput_ops_s"] = timed("throughput_ops_s", true)
	o.Metrics["latency_p50_ms"] = timed("latency_p50_ms", false)
	o.Metrics["speedup_vs_norewrite"] = midMean(o.perRound["speedup_vs_norewrite"])
	o.Metrics["allocs_per_op"] = medianRound("allocs_per_op")
	o.Metrics["alloc_kb_per_op"] = medianRound("alloc_kb_per_op")
	o.Notes["rounds"] = o.perRound
	for _, name := range []string{"latency_p90_ms", "insert_p50_us", "insert_p90_us"} {
		if len(o.perRound[name]) > 0 {
			o.Notes[name] = medianRound(name)
		}
	}
	// A run whose generators were late did not offer the load it claims.
	lag := quantile(o.lagMs, 0.95)
	o.Notes["gen_lag_ms_p95"] = lag
	if lag > 1 {
		o.Notes["invalid"] = "generator lag p95 above 1 ms"
	}
}

// throughput records one round of a closed-loop phase: what it sustained,
// and the process's heap allocations during it.
func (o *outcome) throughput(r loopResult) {
	o.observe("throughput_ops_s", r.opsPerSec())
	o.observe("allocs_per_op", ratio(float64(r.Mallocs), float64(len(r.LatMs))))
	o.observe("alloc_kb_per_op", ratio(float64(r.AllocBytes)/1024, float64(len(r.LatMs))))
}

// latency records the median and the 90th percentile of one round's
// operations. Only the median becomes a metric. The tail is noted at p90,
// not higher: on serve_hit about one request in twenty meets a collection,
// so p95 sits on the edge between the requests that did and those that did
// not, and a round of paper_figs has some two dozen passes.
func (o *outcome) latency(r loopResult) {
	o.observe("latency_p50_ms", quantile(r.LatMs, 0.50))
	o.observe("latency_p90_ms", quantile(r.LatMs, 0.90))
	o.lagMs = append(o.lagMs, r.LagMs...)
}

// countLoop adds a phase's operations to the run's attempted and failed.
func (o *outcome) countLoop(r loopResult) { o.count(len(r.LatMs), r.Failed) }

// speedupProbe runs the workload's operations alternately as no-rewrite and
// as rewrite for d, one caller, and records median(no-rewrite) over
// median(rewrite): the paper's claim on this workload's own operation.
// Every rewrite output is compared with the interpreter's.
func speedupProbe(o *outcome, p *prepared, seq *sequence, d time.Duration) error {
	ctx := context.Background()
	var rw, base []float64
	deadline := time.Now().Add(d)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		k := p.key(seq.take())
		t0 := time.Now()
		want, err := p.tr[k].baseline.Run(ctx, p.opts[k]...)
		base = append(base, float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			return err
		}
		t0 = time.Now()
		got, err := p.tr[k].ct.Run(ctx, p.opts[k]...)
		rw = append(rw, float64(time.Since(t0).Nanoseconds()))
		failed := 0
		if err != nil || !expectRows(want.Rows).matchesRows(got.Rows) {
			failed = 1
		}
		o.count(1, failed)
	}
	o.observe("speedup_vs_norewrite", median(base)/median(rw))
	return nil
}

// writer is mixed_rw's open-loop writer: rows go in at a fixed rate, each
// timed from the moment it was due. It continues through the rows from
// round to round.
type writer struct {
	db    *xsltdb.Database
	rows  []empRow
	next  int
	rate  float64      // inserts per second
	acked func(empRow) // hears of every acknowledged insert before the next one starts, or nil
}

// insertNext inserts the writer's next row. Past the generated rows it
// starts over with fresh empnos.
func (w *writer) insertNext() error {
	row := w.rows[w.next%len(w.rows)]
	row.Empno += int64(w.next/len(w.rows)) * int64(len(w.rows))
	w.next++
	err := insertEmp(w.db, row)
	if err == nil && w.acked != nil {
		w.acked(row)
	}
	return err
}

// run inserts for d and returns the latencies in µs, the writer's lateness
// in ms, and how many inserts failed.
func (w *writer) run(d time.Duration) (latUs, lagMs []float64, failed int) {
	interval := time.Duration(float64(time.Second) / w.rate)
	n := int(float64(d) / float64(interval))
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if waitUntil(due) {
			lagMs = append(lagMs, ms(time.Since(due)))
		}
		err := w.insertNext()
		latUs = append(latUs, float64(time.Since(due).Nanoseconds())/1e3)
		if err != nil {
			failed++
		}
	}
	return latUs, lagMs, failed
}

// inserts counts one round of the writer and notes its latencies.
func (o *outcome) inserts(latUs, lagMs []float64, failed int) {
	o.count(len(latUs), failed)
	o.observe("insert_p50_us", quantile(latUs, 0.50))
	o.observe("insert_p90_us", quantile(latUs, 0.90))
	o.lagMs = append(o.lagMs, lagMs...)
}

// cacheHitRatio is the result cache's hit ratio between two readings.
func cacheHitRatio(before, after serve.ResultCacheStats) float64 {
	hits := float64(after.Hits - before.Hits)
	return ratio(hits, hits+float64(after.Misses-before.Misses))
}

// runServe measures serve_hit or serve_miss. A round is a closed-loop phase
// for throughput and allocations, an open-loop phase at the frozen rate for
// latency, and the speed-up probe.
func runServe(e *env, name string, hot bool) (*outcome, error) {
	p, err := prepareServe(e, hot)
	if err != nil {
		return nil, err
	}
	defer p.close()
	o := newOutcome()
	o.Metrics["setup_s"] = p.setupS
	if err := p.fillCache(); err != nil {
		return nil, err
	}
	var seq, probeSeq sequence
	closedLoop(e.Clients, e.warmup(), &seq, p.httpOp)
	before := p.f.srv.CacheStats()
	for round := 0; round < rounds; round++ {
		closed := closedLoop(e.Clients, e.slot(0.45), &seq, p.httpOp)
		o.throughput(closed)
		o.countLoop(closed)
		open := openLoop(e.Clients, openRates[name], e.slot(0.45), &seq, p.httpOp)
		o.latency(open)
		o.countLoop(open)
		if err := speedupProbe(o, p, &probeSeq, e.slot(0.1)); err != nil {
			return nil, err
		}
	}
	o.Notes["cache_hit_ratio"] = cacheHitRatio(before, p.f.srv.CacheStats())
	o.Notes["open_rate_ops_s"] = openRates[name]
	o.settle()
	return o, nil
}

// runLibScan measures lib_scan: one caller of CompiledTransform.Run in a
// closed loop, which gives throughput and latency from the same samples.
func runLibScan(e *env) (*outcome, error) {
	p, err := prepareLibScan(e)
	if err != nil {
		return nil, err
	}
	defer p.close()
	o := newOutcome()
	o.Metrics["setup_s"] = p.setupS
	var seq, probeSeq sequence
	closedLoop(1, e.warmup(), &seq, p.runOp)
	for round := 0; round < rounds; round++ {
		main := closedLoop(1, e.slot(0.9), &seq, p.runOp)
		o.throughput(main)
		o.latency(main)
		o.countLoop(main)
		if err := speedupProbe(o, p, &probeSeq, e.slot(0.1)); err != nil {
			return nil, err
		}
	}
	o.settle()
	return o, nil
}

// runPaperFigs measures paper_figs. Its operation is one pass over the five
// cases as rewrite: the cases differ by three orders of magnitude, so the
// median over single runs would sit between two of them and jump with every
// small shift, while a pass is one number. A round is bursts of
// rewritePasses passes, each burst timed and between two readings of the
// allocator, then one no-rewrite run of every case, the baseline of the
// speed-up. A no-rewrite run leaves a 16 000-row DOM behind; collecting
// before every burst keeps that collection out of it.
func runPaperFigs(e *env) (*outcome, error) {
	p, err := preparePaperFigs(e)
	if err != nil {
		return nil, err
	}
	defer p.close()
	o := newOutcome()
	o.Metrics["setup_s"] = p.setupS

	const rewritePasses = 12
	ctx := context.Background()
	perCase := map[string][]float64{}
	for round := -1; round < rounds; round++ { // round -1 warms up and is dropped
		var main loopResult
		rwNs := make([][]float64, len(p.tr))
		baseNs := make([]float64, len(p.tr))
		// Passes fill two thirds of the round's time; the rest is about what
		// the five no-rewrite runs take.
		deadline := time.Now().Add(e.slot(1) * 2 / 3)
		for n := 0; n == 0 || (round >= 0 && time.Now().Before(deadline)); n++ {
			runtime.GC()
			mallocs, allocBytes, _ := measured(func() {
				for r := 0; r < rewritePasses; r++ {
					ok := true
					var pass time.Duration
					for k, t := range p.tr {
						t0 := time.Now()
						res, err := t.ct.Run(ctx)
						d := time.Since(t0)
						pass += d
						rwNs[k] = append(rwNs[k], float64(d.Nanoseconds()))
						ok = ok && err == nil && p.want[k].matchesRows(res.Rows)
					}
					main.Elapsed += pass
					main.LatMs = append(main.LatMs, ms(pass))
					if !ok {
						main.Failed++
					}
				}
			})
			main.Mallocs += mallocs
			main.AllocBytes += allocBytes
		}
		for k, t := range p.tr {
			t0 := time.Now()
			if _, err := t.baseline.Run(ctx); err != nil {
				return nil, err
			}
			baseNs[k] = float64(time.Since(t0).Nanoseconds())
		}
		if round < 0 {
			continue
		}
		o.throughput(main)
		o.latency(main)
		o.countLoop(main)
		var speedups []float64
		for k, t := range p.tr {
			s := baseNs[k] / median(rwNs[k])
			speedups = append(speedups, s)
			perCase[t.Name] = append(perCase[t.Name], s)
		}
		o.observe("speedup_vs_norewrite", geomean(speedups))
	}
	speedup := map[string]float64{}
	for name, vs := range perCase {
		speedup[name] = median(vs)
	}
	o.Notes["speedup_per_case"] = speedup
	o.settle()
	return o, nil
}

// runMixedRW measures mixed_rw: in every round the writer and one reader
// side by side, then the speed-up probe; after the last round the reopen
// check.
func runMixedRW(e *env) (*outcome, error) {
	m, err := prepareMixedRW(e)
	if err != nil {
		return nil, err
	}
	defer m.close()
	o := newOutcome()
	o.drifts = true // every insert adds a row that later reads render
	o.Metrics["setup_s"] = m.setupS

	var seq, probeSeq sequence
	read := m.reader()
	w := &writer{db: m.f.db, rows: m.inserts, rate: insertRate, acked: m.acked.add}
	closedLoop(1, e.warmup(), &seq, read)
	before := m.f.srv.CacheStats()
	for round := 0; round < rounds; round++ {
		var insertUs, lag []float64
		var insertsFailed int
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			insertUs, lag, insertsFailed = w.run(e.slot(0.9))
		}()
		reads := closedLoop(1, e.slot(0.9), &seq, read)
		wg.Wait()
		o.throughput(reads)
		o.latency(reads)
		o.countLoop(reads)
		o.inserts(insertUs, lag, insertsFailed)
		if err := speedupProbe(o, m.prepared, &probeSeq, e.slot(0.1)); err != nil {
			return nil, err
		}
	}
	o.Notes["cache_hit_ratio"] = cacheHitRatio(before, m.f.srv.CacheStats())

	lost, err := m.verifyReopen()
	if err != nil {
		return nil, err
	}
	o.count(m.acked.n, lost)
	o.Notes["inserts_acknowledged"] = m.acked.n
	o.Notes["inserts_lost_on_reopen"] = lost
	o.settle()
	return o, nil
}
