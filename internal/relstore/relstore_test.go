package relstore

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/governor"
)

func mkDeptEmp(t *testing.T) (*DB, *Table, *Table) {
	t.Helper()
	db := NewDB()
	dept, err := db.CreateTable("dept",
		Column{"deptno", IntCol}, Column{"dname", StringCol}, Column{"loc", StringCol})
	if err != nil {
		t.Fatal(err)
	}
	emp, err := db.CreateTable("emp",
		Column{"empno", IntCol}, Column{"ename", StringCol},
		Column{"job", StringCol}, Column{"sal", IntCol}, Column{"deptno", IntCol})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Tables 1 and 2.
	mustInsert(t, dept, int64(10), "ACCOUNTING", "NEW YORK")
	mustInsert(t, dept, int64(40), "OPERATIONS", "BOSTON")
	mustInsert(t, emp, int64(7782), "CLARK", "MANAGER", int64(2450), int64(10))
	mustInsert(t, emp, int64(7934), "MILLER", "CLERK", int64(1300), int64(10))
	mustInsert(t, emp, int64(7954), "SMITH", "VP", int64(4900), int64(40))
	return db, dept, emp
}

func mustInsert(t *testing.T, tab *Table, vals ...Value) {
	t.Helper()
	if _, err := tab.Insert(vals...); err != nil {
		t.Fatal(err)
	}
}

// collect drains a batch iterator into a flat id slice (test convenience).
func collect(it BatchIterator) []int {
	var ids []int
	batch := GetBatch(0)
	defer PutBatch(batch)
	for {
		n, ok := it.NextBatch(batch)
		if !ok {
			return ids
		}
		ids = append(ids, batch.IDs[:n]...)
	}
}

// openPlan plans and opens the batch access path for preds over a snapshot of
// t's current state; openScan does the same for the forced full scan.
func openPlan(t *Table, preds []Pred, stats *Stats, g *governor.G, opts BatchOpts) BatchIterator {
	ts := t.Snap()
	return PlanAccessAt(ts, preds).OpenBatchAt(ts, stats, g, opts)
}

func openScan(t *Table, preds []Pred, stats *Stats, g *governor.G, opts BatchOpts) BatchIterator {
	ts := t.Snap()
	return FullScanPlanAt(ts, preds).OpenBatchAt(ts, stats, g, opts)
}

func accessPath(t *Table, preds []Pred, stats *Stats) BatchIterator {
	return openPlan(t, preds, stats, nil, BatchOpts{Workers: 1})
}

// explainPlan is the EXPLAIN line of the access path accessPath opens.
func explainPlan(t *Table, preds []Pred) string { return PlanAccessAt(t.Snap(), preds).Explain(t) }

func TestTableBasics(t *testing.T) {
	_, dept, emp := mkDeptEmp(t)
	if dept.NumRows() != 2 || emp.NumRows() != 3 {
		t.Fatal("row counts wrong")
	}
	if emp.Value(0, "ename") != "CLARK" {
		t.Fatalf("cell = %v", emp.Value(0, "ename"))
	}
	if emp.Value(0, "nope") != nil || emp.Value(99, "ename") != nil {
		t.Fatal("missing cells should be nil")
	}
	if dept.ColIndex("loc") != 2 || dept.ColIndex("zz") != -1 {
		t.Fatal("ColIndex wrong")
	}
	ct, ok := emp.ColType("sal")
	if !ok || ct != IntCol {
		t.Fatal("ColType wrong")
	}
}

func TestInsertCoercion(t *testing.T) {
	tab, _ := NewTable("t", Column{"i", IntCol}, Column{"f", FloatCol}, Column{"s", StringCol})
	if _, err := tab.Insert("42", 1, 99); err != nil {
		t.Fatal(err)
	}
	if tab.Value(0, "i") != int64(42) {
		t.Fatalf("i = %v", tab.Value(0, "i"))
	}
	if tab.Value(0, "f") != float64(1) {
		t.Fatalf("f = %v", tab.Value(0, "f"))
	}
	if tab.Value(0, "s") != "99" {
		t.Fatalf("s = %v", tab.Value(0, "s"))
	}
	if _, err := tab.Insert("notanint", 0, ""); err == nil {
		t.Fatal("bad int should error")
	}
	if _, err := tab.Insert(int64(1)); err == nil {
		t.Fatal("arity should error")
	}
	// NULLs are allowed.
	if _, err := tab.Insert(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateTableErrors(t *testing.T) {
	if _, err := NewTable("t"); err == nil {
		t.Fatal("empty table should error")
	}
	if _, err := NewTable("t", Column{"a", IntCol}, Column{"a", IntCol}); err == nil {
		t.Fatal("dup column should error")
	}
	db := NewDB()
	if _, err := db.CreateTable("x", Column{"a", IntCol}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("x", Column{"a", IntCol}); err == nil {
		t.Fatal("dup table should error")
	}
	if db.Table("x") == nil || db.Table("y") != nil {
		t.Fatal("Table lookup wrong")
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "x" {
		t.Fatal("TableNames wrong")
	}
}

func TestBTreeInsertLookup(t *testing.T) {
	bt := NewBTree[int64]()
	for i := 0; i < 1000; i++ {
		bt.Insert(int64(i%100), i)
	}
	if bt.Len() != 100 {
		t.Fatalf("distinct keys = %d", bt.Len())
	}
	rows := bt.Lookup(int64(7))
	if len(rows) != 10 {
		t.Fatalf("posting list = %d", len(rows))
	}
	if bt.Lookup(int64(500)) != nil {
		t.Fatal("missing key should return nil")
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree[int64]()
	for i := 0; i < 500; i++ {
		bt.Insert(int64(i), i)
	}
	var keys []int64
	bt.Range(Bound{Value: int64(100), Inclusive: true}, Bound{Value: int64(110)}, func(k int64, _ []int) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 10 || keys[0] != 100 || keys[9] != 109 {
		t.Fatalf("range keys = %v", keys)
	}
	// Exclusive low bound.
	keys = keys[:0]
	bt.Range(Bound{Value: int64(100)}, Bound{Value: int64(103), Inclusive: true}, func(k int64, _ []int) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 3 || keys[0] != 101 {
		t.Fatalf("exclusive range = %v", keys)
	}
	// Early stop.
	count := 0
	bt.AscendAll(func(int64, []int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestQuickBTreeOrdered property: ascending iteration yields sorted distinct
// keys matching a reference map, under random insertion order.
func TestQuickBTreeOrdered(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree[int64]()
		ref := map[int64][]int{}
		for i := 0; i < n*3; i++ {
			k := int64(rng.Intn(n))
			bt.Insert(k, i)
			ref[k] = append(ref[k], i)
		}
		var got []int64
		ok := true
		bt.AscendAll(func(key int64, rows []int) bool {
			got = append(got, key)
			if len(rows) != len(ref[key]) {
				ok = false
			}
			return true
		})
		if !ok || len(got) != len(ref) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBTreeRangeMatchesLinear(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree[int64]()
		vals := map[int64]bool{}
		for i := 0; i < 300; i++ {
			k := int64(rng.Intn(256))
			bt.Insert(k, i)
			vals[k] = true
		}
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for k := range vals {
			if k >= lo && k <= hi {
				want++
			}
		}
		got := 0
		bt.Range(Bound{Value: lo, Inclusive: true}, Bound{Value: hi, Inclusive: true}, func(int64, []int) bool {
			got++
			return true
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{"a", "b", -1},
		{int64(2), float64(2.5), -1},
		{float64(3), int64(2), 1},
		{nil, int64(1), -1},
		{nil, nil, 0},
		{int64(1), nil, 1},
	}
	for _, tc := range cases {
		if got := CompareValues(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAccessPathSelectsIndex(t *testing.T) {
	_, _, emp := mkDeptEmp(t)
	preds := []Pred{{Col: "sal", Op: CmpGt, Val: int64(2000)}}

	// Without an index: full scan.
	stats := &Stats{}
	it := accessPath(emp, preds, stats)
	if expl := explainPlan(emp, preds); !strings.HasPrefix(expl, "TABLE SCAN") {
		t.Fatalf("expected scan, got %s", expl)
	}
	ids := collect(it)
	if len(ids) != 2 { // CLARK 2450, SMITH 4900
		t.Fatalf("scan result = %v", ids)
	}
	if stats.RowsScanned != 3 {
		t.Fatalf("rows scanned = %d", stats.RowsScanned)
	}

	// With an index: index range scan, fewer rows touched.
	if err := emp.CreateIndex("sal"); err != nil {
		t.Fatal(err)
	}
	stats2 := &Stats{}
	it2 := accessPath(emp, preds, stats2)
	if expl2 := explainPlan(emp, preds); !strings.HasPrefix(expl2, "INDEX RANGE SCAN") {
		t.Fatalf("expected index scan, got %s", expl2)
	}
	ids2 := collect(it2)
	if len(ids2) != 2 {
		t.Fatalf("index result = %v", ids2)
	}
	if stats2.RowsScanned != 0 || stats2.IndexProbes != 1 {
		t.Fatalf("stats = %+v", stats2)
	}
	// Same rows either way.
	sort.Ints(ids)
	sort.Ints(ids2)
	for i := range ids {
		if ids[i] != ids2[i] {
			t.Fatal("index and scan disagree")
		}
	}
}

func TestAccessPathEqualityAndResidual(t *testing.T) {
	_, _, emp := mkDeptEmp(t)
	if err := emp.CreateIndex("deptno"); err != nil {
		t.Fatal(err)
	}
	preds := []Pred{
		{Col: "deptno", Op: CmpEq, Val: int64(10)},
		{Col: "sal", Op: CmpGt, Val: int64(2000)},
	}
	it := accessPath(emp, preds, nil)
	if expl := explainPlan(emp, preds); !strings.Contains(expl, "deptno = 10") || !strings.Contains(expl, "FILTER sal > 2000") {
		t.Fatalf("explain = %s", expl)
	}
	ids := collect(it)
	if len(ids) != 1 || emp.Value(ids[0], "ename") != "CLARK" {
		t.Fatalf("result = %v", ids)
	}
}

func TestAccessPathPrefersEquality(t *testing.T) {
	_, _, emp := mkDeptEmp(t)
	_ = emp.CreateIndex("sal")
	_ = emp.CreateIndex("deptno")
	preds := []Pred{
		{Col: "sal", Op: CmpGt, Val: int64(0)},
		{Col: "deptno", Op: CmpEq, Val: int64(40)},
	}
	if expl := explainPlan(emp, preds); !strings.Contains(expl, "deptno = 40") {
		t.Fatalf("should prefer equality probe: %s", expl)
	}
}

func TestPredMatchesNullSemantics(t *testing.T) {
	p := Pred{Col: "x", Op: CmpEq, Val: int64(1)}
	if p.Matches(nil) {
		t.Fatal("NULL should not match")
	}
	p2 := Pred{Col: "x", Op: CmpNe, Val: int64(1)}
	if p2.Matches(nil) {
		t.Fatal("NULL <> 1 should not match (3VL)")
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	tab, _ := NewTable("t", Column{"k", IntCol})
	_ = tab.CreateIndex("k")
	for i := 0; i < 100; i++ {
		mustInsert(t, tab, int64(i%10))
	}
	if got := len(tab.indexes["k"].(*BTree[int64]).Lookup(int64(3))); got != 10 {
		t.Fatalf("index postings = %d", got)
	}
	// NULLs are not indexed.
	mustInsert(t, tab, nil)
	if tab.indexes["k"].(*BTree[int64]).Len() != 10 {
		t.Fatal("NULL should not be indexed")
	}
}

func TestLargeScaleIndexVsScanAgree(t *testing.T) {
	tab, _ := NewTable("big", Column{"id", IntCol}, Column{"v", IntCol})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		mustInsert(t, tab, int64(i), int64(rng.Intn(1000)))
	}
	preds := []Pred{{Col: "v", Op: CmpGe, Val: int64(990)}}
	scanIDs := collect(accessPath(tab, preds, nil))
	_ = tab.CreateIndex("v")
	idxIDs := collect(accessPath(tab, preds, nil))
	sort.Ints(scanIDs)
	sort.Ints(idxIDs)
	if len(scanIDs) != len(idxIDs) {
		t.Fatalf("scan %d vs index %d", len(scanIDs), len(idxIDs))
	}
	for i := range scanIDs {
		if scanIDs[i] != idxIDs[i] {
			t.Fatal("row sets differ")
		}
	}
}

// TestCommitSeq: the database's data version moves forward on every applied
// write — table and index DDL as well as each inserted row — and never on a
// rejected one; a table that belongs to no database has no counter to move.
func TestCommitSeq(t *testing.T) {
	db := NewDB()
	if got := db.CommitSeq(); got != 0 {
		t.Fatalf("fresh database at version %d", got)
	}
	last := db.CommitSeq()
	moved := func(what string) {
		t.Helper()
		if now := db.CommitSeq(); now <= last {
			t.Fatalf("%s left the version at %d (was %d)", what, now, last)
		} else {
			last = now
		}
	}
	tab, err := db.CreateTable("t", Column{Name: "k", Type: IntCol})
	if err != nil {
		t.Fatal(err)
	}
	moved("CreateTable")
	for i := 0; i < 3; i++ {
		if _, err := tab.Insert(int64(i)); err != nil {
			t.Fatal(err)
		}
		moved("Insert")
	}
	if err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	moved("CreateIndex")

	if _, err := tab.Insert("not a number"); err == nil {
		t.Fatal("bad insert accepted")
	}
	if _, err := db.CreateTable("t", Column{Name: "k", Type: IntCol}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if now := db.CommitSeq(); now != last {
		t.Fatalf("rejected writes moved the version from %d to %d", last, now)
	}

	loose, err := NewTable("loose", Column{Name: "k", Type: IntCol})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loose.Insert(int64(1)); err != nil {
		t.Fatal(err)
	}
}
