package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestGeneratorsFollowTheSeed(t *testing.T) {
	sz := tinySizes
	a, b, c := genDeptEmp(7, sz.Depts, sz.EmpsPerDept, 0), genDeptEmp(7, sz.Depts, sz.EmpsPerDept, 0), genDeptEmp(8, sz.Depts, sz.EmpsPerDept, 0)
	if a.hash() != b.hash() {
		t.Error("dept/emp data differs between two generations from one seed")
	}
	if a.hash() == c.hash() {
		t.Error("dept/emp data is the same for two seeds")
	}
	if len(a.Emps) != len(c.Emps) || len(a.Depts) != len(c.Depts) {
		t.Error("the seed changed a cardinality")
	}
	if hashSales(genSales(7, 100)) != hashSales(genSales(7, 100)) || hashSales(genSales(7, 100)) == hashSales(genSales(8, 100)) {
		t.Error("sales data does not follow the seed")
	}
	sequences := map[string]func(seed int64) any{
		"zipf":    func(s int64) any { return zipfSeq(s, sz.HitKeys, 500) },
		"uniform": func(s int64) any { return uniformSeq(s, 300, 500) },
		"hot":     func(s int64) any { return hotWindows(s, sz.HitKeys, sz.Depts) },
		"scan":    func(s int64) any { return scanKeys(s, sz.ScanKeys, sz.ScanVals) },
		"inserts": func(s int64) any { return genInserts(s, nil, sz.Depts, 50) },
		"words":   func(s int64) any { return genWords(s, 20) },
	}
	for name, gen := range sequences {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: differs between two generations from one seed", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: the same for two seeds", name)
		}
	}
	// The work a seed asks for must not depend on the seed: every filter value
	// of lib_scan selects the same number of rows, and every department
	// renders the same number of employees.
	scan := genDeptEmp(9, sz.ScanRows, 1, sz.ScanVals)
	perVal := map[int64]int{}
	for _, d := range scan.Depts {
		perVal[d.Val]++
	}
	for v, n := range perVal {
		if n != sz.ScanRows/sz.ScanVals {
			t.Fatalf("filter value %d is on %d rows, want %d", v, n, sz.ScanRows/sz.ScanVals)
		}
	}
	// No two hot keys share a department, and the inserts of mixed_rw reach
	// every key equally often, so that its reads grow alike under every seed.
	hot := hotWindows(9, fullSizes.HitKeys, fullSizes.Depts)
	owner := map[int64]int{}
	for k, w := range hot {
		if w.Lo < 1 || w.Hi > int64(fullSizes.Depts)+1 {
			t.Fatalf("hot key %d is %v, outside the departments", k, w)
		}
		for d := w.Lo; d < w.Hi; d++ {
			if other, taken := owner[d]; taken {
				t.Fatalf("hot keys %d and %d share department %d", other, k, d)
			}
			owner[d] = k
		}
	}
	perKey := make([]int, len(hot))
	for _, e := range genInserts(9, hot, fullSizes.Depts, 10*len(hot)) {
		perKey[owner[e.Deptno]]++
	}
	for k, n := range perKey {
		if n != 10 {
			t.Fatalf("hot key %d received %d of %d inserts, want 10", k, n, 10*len(hot))
		}
	}
	high := map[int64]int{}
	for _, e := range a.Emps {
		if e.Sal > 2000 {
			high[e.Deptno]++
		}
	}
	for d, n := range high {
		if n != (sz.EmpsPerDept+1)/2 {
			t.Fatalf("department %d renders %d employees, want %d", d, n, (sz.EmpsPerDept+1)/2)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMeetsTheContract keeps BENCHMARK.json equal to spec.go and both
// inside the limits the driver refuses a benchmark for.
func TestSpecMeetsTheContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var onDisk, inCode any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(benchmarkSpec())
	_ = json.Unmarshal(b, &inCode)
	if !reflect.DeepEqual(onDisk, inCode) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: bash bench/run.sh -print-spec > BENCHMARK.json")
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
		if m.moves == "" {
			t.Errorf("%s: does not say which end-to-end metric on which workload it should move", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

func tinyEnv(t *testing.T) *env {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	return &env{Seed: 5, Seconds: 0.5, Sizes: tinySizes, Procs: procs, Clients: min(procs, 2), OutDir: t.TempDir(), Log: io.Discard}
}

// exactCounts are the per-layer metrics that are counts of work, not times,
// and so must repeat bit for bit for a seed with one caller.
var exactCounts = []string{
	"relstore.rows_scanned_per_op", "relstore.rows_filtered_per_op", "relstore.index_probes_per_op",
	"core.inline_ratio", "xq2sql.sql_plan_ratio", "sqlxml.docs_per_op", "serve.bytes_out_per_op",
}

// TestEveryWorkloadOnTinyData runs both passes of every workload on tiny
// data. runOne itself refuses a run that reports other metrics than the
// spec names; on top of that nothing may fail, end-to-end metrics may not be
// zero, a replay may not do more work than its parent, the span file must
// link replays to parents, and the exact counts must repeat.
func TestEveryWorkloadOnTinyData(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			e := tinyEnv(t)
			if e.Clients > runtime.NumCPU() {
				t.Errorf("%d clients on %d processors", e.Clients, runtime.NumCPU())
			}
			r, err := runOne(e, w, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("end-to-end: %d of %d operations failed", r.Failed, r.Attempted)
			}
			for name, v := range r.Metrics {
				if v <= 0 {
					t.Errorf("end-to-end metric %s is %v", name, v)
				}
			}
			first, err := runOne(e, w, true)
			if err != nil {
				t.Fatal(err)
			}
			if first.Failed != 0 || first.Attempted == 0 {
				t.Errorf("traced: %d of %d operations failed", first.Failed, first.Attempted)
			}
			// With only a batch or two laddered, one collection during one level
			// decides that level's median; the check needs a few batches.
			if neg := first.Metrics["bench.negative_self_pct"]; neg > 5 && first.Notes["ladder_ops"].(int) >= 128 {
				t.Errorf("a layer's median self time is %.1f%% of the operation below zero: a replay does other work than its parent", neg)
			}
			if first.Metrics["xsltdb.degradations_total"] != 0 {
				t.Error("a run degraded to a weaker strategy")
			}
			checkSpans(t, filepath.Join(e.OutDir, w.Name+".trace.ndjson"))

			second, err := runOne(e, w, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactCounts {
				if first.Metrics[name] != second.Metrics[name] {
					t.Errorf("%s: %v then %v for the same seed", name, first.Metrics[name], second.Metrics[name])
				}
			}
		})
	}
}

// checkSpans reads a span file: every span has a name, a positive
// duration and an operation, and a child's parent is an earlier span of the
// same operation.
func checkSpans(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	children := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Name == "" || s.End < s.Start || s.ID != len(byID)+1 {
			t.Fatalf("bad span %+v", s)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.OpID != s.OpID {
				t.Fatalf("span %+v: parent %+v", s, p)
			}
			children++
		}
		byID[s.ID] = s
	}
	if len(byID) == 0 || children == 0 {
		t.Fatalf("%s: %d spans, %d with a parent", path, len(byID), children)
	}
}

func TestBestMeanLeavesOutTheVeryBest(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 8, 2}
	if got := bestMean(xs, 4, false); got != (2+3+5)/3.0 {
		t.Errorf("lowest four but the lowest: %v", got)
	}
	if got := bestMean(xs, 4, true); got != (8+7+5)/3.0 {
		t.Errorf("highest four but the highest: %v", got)
	}
	if xs[0] != 9 {
		t.Error("bestMean reordered its argument")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
