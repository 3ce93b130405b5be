package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	xsltdb "repro"
)

// workloads.go prepares each workload: data, fixture, request keys and the
// oracle's expected outputs. measure.go runs a prepared workload untraced,
// trace.go runs it traced. Why each workload exists is told in README.md
// and BENCHMARK.json; the names are fixed in spec.go.

// timedSetup builds the fixture again and again — at least five times, then
// until a second has gone by or twenty-five builds are done — and keeps the
// last. setup_s is the lower quartile of the build times: no single build
// decides it, and when a neighbour slows the sandbox for a while it is still
// taken from the builds that were left alone, so that the medians of two sets
// of runs agree.
func timedSetup(build func() (*fixture, error)) (*fixture, float64, error) {
	var times []float64
	var f *fixture
	begin := time.Now()
	for len(times) < 5 || (len(times) < 25 && time.Since(begin) < time.Second) {
		f.close()
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = build(); err != nil {
			f.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return f, quantile(times, 0.25), nil
}

// expect is the oracle's record of one correct output: its length and its
// FNV-1a hash. It always comes from the no-rewrite interpreter, never from
// the SQL path under test.
type expect struct {
	Len  int
	Hash uint64
}

// expectRows fingerprints rows the way the server writes them: each row
// followed by a newline.
func expectRows(rows []string) expect {
	e := expect{Hash: fnvOffset}
	for _, r := range rows {
		e.Hash = fnvAddString(e.Hash, r)
		e.Hash = fnvAddString(e.Hash, "\n")
		e.Len += len(r) + 1
	}
	return e
}

func (e expect) matchesBody(b []byte) bool {
	return len(b) == e.Len && fnvAdd(fnvOffset, b) == e.Hash
}

func (e expect) matchesRows(rows []string) bool { return expectRows(rows) == e }

// prepared is a workload ready to run: its fixture and its seeded requests.
// Request i of the sequence asks for key order[i mod len(order)].
type prepared struct {
	f      *fixture
	setupS float64
	http   bool // the workload's own entry point: HTTP, or library Run

	order []int
	tr    []*transform // per key
	args  []runArgs
	opts  [][]xsltdb.RunOption
	paths []string
	want  []expect

	sheets    []sheetOnView // what the traced pass compiles cold
	scanTable string        // the largest table, for the scan probe
	probeCol  string        // an indexed column of scanTable whose keys are 1..probeKeys
	probeKeys int64
	inserts   []empRow // the writer's input
}

func (p *prepared) close() { p.f.close() }

// sheetOnView is one stylesheet to compile against one view.
type sheetOnView struct{ View, Sheet string }

// fillCache asks the server for every key once when the key set fits the
// result cache, so that what follows finds the cache as a long-running
// server would have it. A key set larger than the cache is left alone.
func (p *prepared) fillCache() error {
	if len(p.paths) > resultCacheEntries {
		return nil
	}
	var scratch bytes.Buffer
	for _, path := range p.paths {
		if _, _, err := p.f.get(path, &scratch); err != nil {
			return err
		}
	}
	return nil
}

func (p *prepared) key(i int) int { return p.order[i%len(p.order)] }

// addKey registers one request key.
func (p *prepared) addKey(t *transform, a runArgs, want expect) {
	p.tr = append(p.tr, t)
	p.args = append(p.args, a)
	p.opts = append(p.opts, a.options())
	p.paths = append(p.paths, a.path(t.Name))
	p.want = append(p.want, want)
}

// get performs one HTTP request and returns the status, the body (in
// scratch) and whether the result cache answered it.
func (f *fixture) get(path string, scratch *bytes.Buffer) (status int, hit bool, err error) {
	resp, err := f.client.Get(f.ts.URL + path)
	if err != nil {
		return 0, false, err
	}
	scratch.Reset()
	_, err = scratch.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Xsltd-Cache") == "hit", err
}

// httpOp is request i over the socket, checked against the oracle.
func (p *prepared) httpOp(i int, scratch *bytes.Buffer) bool {
	k := p.key(i)
	status, _, err := p.f.get(p.paths[k], scratch)
	return err == nil && status == 200 && p.want[k].matchesBody(scratch.Bytes())
}

// runOp is request i through the library, checked against the oracle.
func (p *prepared) runOp(i int, _ *bytes.Buffer) bool {
	k := p.key(i)
	res, err := p.tr[k].ct.Run(context.Background(), p.opts[k]...)
	return err == nil && p.want[k].matchesRows(res.Rows)
}

// op is request i at the workload's own entry point.
func (p *prepared) op(i int, scratch *bytes.Buffer) bool {
	if p.http {
		return p.httpOp(i, scratch)
	}
	return p.runOp(i, scratch)
}

// windowArgs is the request for one window of departments.
func windowArgs(w window) runArgs {
	return runArgs{Where: "deptno >= $lo and deptno < $hi", Params: map[string]int64{"lo": w.Lo, "hi": w.Hi}}
}

// prepareDeptEmp builds the dept_emp fixture and one key per window. The
// oracle runs the interpreter once over the whole view: the expected body
// of a window is the interpreter's rows for its departments, in order.
func prepareDeptEmp(e *env, keys []window, order []int, dirs func() string, insertInto []window) (*prepared, error) {
	sz := e.Sizes
	data := genDeptEmp(e.Seed, sz.Depts, sz.EmpsPerDept, 0)
	f, setup, err := timedSetup(func() (*fixture, error) { return newDeptEmpFixture(data, false, dirs(), e.Clients) })
	if err != nil {
		return nil, err
	}
	p := &prepared{f: f, setupS: setup, http: true, order: order,
		sheets:    []sheetOnView{{"dept_emp", paperStylesheet()}},
		scanTable: "emp", probeCol: "deptno", probeKeys: int64(sz.Depts),
		inserts: genInserts(e.Seed, insertInto, sz.Depts, int(insertRate*e.Seconds)+1),
	}
	t := f.transforms["paper"]
	ref, err := t.baseline.Run(context.Background())
	if err != nil {
		p.close()
		return nil, err
	}
	for _, w := range keys {
		p.addKey(t, windowArgs(w), expectRows(ref.Rows[w.Lo-1:w.Hi-1]))
	}
	return p, nil
}

func inMemory() string { return "" }

// prepareServe is serve_hit (hot) and serve_miss: the same server, data and
// stylesheet, asked for 64 Zipf-popular windows that fit the result cache,
// or uniformly for every window there is, 23 times what the cache holds.
func prepareServe(e *env, hot bool) (*prepared, error) {
	sz := e.Sizes
	if hot {
		return prepareDeptEmp(e, hotWindows(e.Seed, sz.HitKeys, sz.Depts), zipfSeq(e.Seed, sz.HitKeys, sz.SeqLen), inMemory, nil)
	}
	keys := allWindows(sz.Depts)
	return prepareDeptEmp(e, keys, uniformSeq(e.Seed, len(keys), sz.SeqLen), inMemory, nil)
}

// prepareLibScan is lib_scan: one department per driving row, the filter
// column val unindexed, each value on 0.1 % of the rows.
func prepareLibScan(e *env) (*prepared, error) {
	sz := e.Sizes
	data := genDeptEmp(e.Seed, sz.ScanRows, 1, sz.ScanVals)
	f, setup, err := timedSetup(func() (*fixture, error) { return newDeptEmpFixture(data, true, "", e.Clients) })
	if err != nil {
		return nil, err
	}
	p := &prepared{f: f, setupS: setup, order: uniformSeq(e.Seed, sz.ScanKeys, sz.SeqLen),
		sheets:    []sheetOnView{{"dept_emp", paperStylesheet()}},
		scanTable: "dept", probeCol: "deptno", probeKeys: int64(sz.ScanRows),
		inserts: genInserts(e.Seed, nil, sz.ScanRows, int(insertRate*e.Seconds)+1),
	}
	t := f.transforms["paper"]
	for _, v := range scanKeys(e.Seed, sz.ScanKeys, sz.ScanVals) {
		a := runArgs{Where: "val = $v", Params: map[string]int64{"v": v}}
		ref, err := t.baseline.Run(context.Background(), a.options()...)
		if err != nil {
			p.close()
			return nil, err
		}
		p.addKey(t, a, expectRows(ref.Rows))
	}
	return p, nil
}

// preparePaperFigs is paper_figs: the five cases of the paper's evaluation,
// one key each, asked for in turn.
func preparePaperFigs(e *env) (*prepared, error) {
	sz := e.Sizes
	sales, words := genSales(e.Seed, sz.SalesRows), genWords(e.Seed, sz.WordsRows)
	f, setup, err := timedSetup(func() (*fixture, error) { return newMarkFixture(sales, words, e.Clients) })
	if err != nil {
		return nil, err
	}
	p := &prepared{f: f, setupS: setup,
		scanTable: "sales", probeCol: "id", probeKeys: int64(sz.SalesRows),
		inserts: genInserts(e.Seed, nil, sz.SalesRows, int(insertRate*e.Seconds)+1),
	}
	for _, c := range markCases() {
		p.sheets = append(p.sheets, sheetOnView{markViews[c.Shape], c.Stylesheet})
	}
	for i, name := range figureCases {
		t := f.transforms[name]
		if t.ct.Strategy() != xsltdb.StrategySQL {
			p.close()
			return nil, fmt.Errorf("%s compiled to %v, not to SQL/XML", name, t.ct.Strategy())
		}
		ref, err := t.baseline.Run(context.Background())
		if err != nil {
			p.close()
			return nil, err
		}
		p.addKey(t, runArgs{}, expectRows(ref.Rows))
		p.order = append(p.order, i)
	}
	return p, nil
}

// insertLog is what the writer has had acknowledged, by department, for the
// reader's stale-read check.
type insertLog struct {
	mu     sync.Mutex
	byDept map[int64][]int64 // deptno → empnos, in acknowledgement order
	n      int
}

func (l *insertLog) add(e empRow) {
	l.mu.Lock()
	l.byDept[e.Deptno] = append(l.byDept[e.Deptno], e.Empno)
	l.n++
	l.mu.Unlock()
}

// recent appends the last few acknowledged empnos of every department of w.
func (l *insertLog) recent(w window, dst []int64) []int64 {
	const perDept = 2
	l.mu.Lock()
	for d := w.Lo; d < w.Hi; d++ {
		nos := l.byDept[d]
		dst = append(dst, nos[max(0, len(nos)-perDept):]...)
	}
	l.mu.Unlock()
	return dst
}

// mixedRW is mixed_rw prepared: the reader's keys plus the writer's log.
type mixedRW struct {
	*prepared
	keys    []window
	acked   *insertLog
	scratch string
}

// prepareMixedRW is mixed_rw: the serve_hit keys on a durable database. The
// data changes under the reader, so a read is checked by what it must
// contain: one rendered department per department of the window, and the
// empno of the latest inserts into the window acknowledged before the
// request was sent — a stale cache hit lacks them.
func prepareMixedRW(e *env) (*mixedRW, error) {
	sz := e.Sizes
	scratch, err := os.MkdirTemp(e.OutDir, "mixed_rw-")
	if err != nil {
		return nil, err
	}
	builds := 0
	keys := hotWindows(e.Seed, sz.HitKeys, sz.Depts)
	// The reader asks for the hot keys in turn rather than by popularity: a
	// key then comes back after 64 requests, long after the next insert has
	// invalidated it, so no read is a cache hit. With popular keys repeating
	// within the 2 ms between inserts, a few percent of reads would hit, how
	// many would depend on timing, and the allocations per read with it.
	p, err := prepareDeptEmp(e, keys, uniformSeq(e.Seed, sz.HitKeys, sz.SeqLen), func() string {
		builds++
		return filepath.Join(scratch, strconv.Itoa(builds))
	}, keys)
	if err != nil {
		os.RemoveAll(scratch)
		return nil, err
	}
	m := &mixedRW{prepared: p, keys: keys, acked: &insertLog{byDept: map[int64][]int64{}}, scratch: scratch}
	return m, nil
}

func (m *mixedRW) close() {
	m.prepared.close()
	os.RemoveAll(m.scratch)
}

// expecting returns the check for a read of key k that is about to be sent:
// the body must hold one rendered department per department of the window
// and the empno of every insert the check saw acknowledged. buf is reused
// for those empnos when it is large enough.
func (m *mixedRW) expecting(k int, buf []int64) func(body []byte) bool {
	recent := m.acked.recent(m.keys[k], buf[:0])
	return func(body []byte) bool {
		if bytes.Count(body, []byte("<H1>")) != int(m.keys[k].Hi-m.keys[k].Lo) {
			return false
		}
		var needle []byte
		for _, empno := range recent {
			needle = strconv.AppendInt(append(needle[:0], "<td>"...), empno, 10)
			if !bytes.Contains(body, append(needle, "</td>"...)) {
				return false
			}
		}
		return true
	}
}

// reader returns the read operation of one reader goroutine.
func (m *mixedRW) reader() opFunc {
	var buf []int64
	return func(i int, scratch *bytes.Buffer) bool {
		k := m.key(i)
		buf = buf[:0]
		ok := m.expecting(k, buf)
		status, _, err := m.f.get(m.paths[k], scratch)
		return err == nil && status == 200 && ok(scratch.Bytes())
	}
}

var tdNumber = regexp.MustCompile(`<td>(\d+)</td>`)

// verifyReopen closes the database, opens it again from its directory and
// counts the acknowledged inserts that are missing. This checks the log's
// replay, not a power loss: nothing here cuts the process off between a
// write and its fsync (make crash does that).
func (m *mixedRW) verifyReopen() (lost int, err error) {
	dir := m.f.dir
	m.f.close()
	db, err := openDB(dir)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	ct, err := db.CompileTransform("dept_emp", paperStylesheet(), xsltdb.WithForcedStrategy(xsltdb.StrategyNoRewrite))
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	res, err := ct.Run(context.Background())
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	present := map[int64]bool{}
	for _, row := range res.Rows {
		for _, sub := range tdNumber.FindAllStringSubmatch(row, -1) {
			if n, _ := strconv.ParseInt(sub[1], 10, 64); n >= firstInsertEmpno {
				present[n] = true
			}
		}
	}
	for _, nos := range m.acked.byDept {
		for _, empno := range nos {
			if !present[empno] {
				lost++
			}
		}
	}
	return lost, nil
}
