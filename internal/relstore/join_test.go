package relstore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/governor"
)

// joinInner builds the inner table of the join tests: k is the correlation
// column (INT or FLOAT, with NULLs and duplicates), v a filter column, s a
// string column. Values come from r; about a fifth of the rows hold a NULL.
func joinInner(tb testing.TB, r *rand.Rand, rows int, kType ColType, span int) *Table {
	tb.Helper()
	t, err := NewTable("inner", Column{Name: "k", Type: kType}, Column{Name: "v", Type: IntCol}, Column{Name: "s", Type: StringCol})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		var k, v Value = int64(r.Intn(span)), int64(r.Intn(100))
		if kType == FloatCol && r.Intn(4) == 0 {
			k = float64(r.Intn(span)) + 0.5
		}
		switch r.Intn(9) {
		case 0:
			k = nil
		case 1:
			v = nil
		}
		if _, err := t.Insert(k, v, fmt.Sprintf("s%d", r.Intn(5))); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// outerKeys draws a batch of outer keys in no particular order: duplicates,
// keys no inner row has, NULLs, and both numeric types.
func outerKeys(r *rand.Rand, n, span int) []Value {
	keys := make([]Value, n)
	for i := range keys {
		switch r.Intn(8) {
		case 0:
			keys[i] = nil
		case 1:
			keys[i] = float64(r.Intn(span + 3)) // INT cell = FLOAT key under CompareValues
		case 2:
			keys[i] = float64(r.Intn(span)) + 0.5
		case 3:
			keys[i] = "k" // a type the column does not hold: equals nothing
		default:
			keys[i] = int64(r.Intn(span + 3))
		}
	}
	return keys
}

// nestedLoop is the oracle: for each outer key, every committed inner row in
// heap order whose k equals the key and that passes every predicate, all by
// Pred.Matches over the boxed cells.
func nestedLoop(ts *TableSnap, col string, keys []Value, preds []Pred) [][]int {
	out := make([][]int, len(keys))
	for i, k := range keys {
		all := preds
		if col != "" {
			all = append(append([]Pred{}, preds...), Pred{Col: col, Op: CmpEq, Val: k})
		}
		for id := 0; id < ts.NumRows(); id++ {
			if matchesAll(ts, id, all) {
				out[i] = append(out[i], id)
			}
		}
	}
	return out
}

// matchesAll is the reference conjunction: Pred.Matches over Cell.
func matchesAll(ts *TableSnap, id int, preds []Pred) bool {
	for _, p := range preds {
		if !p.Matches(ts.Value(id, p.Col)) {
			return false
		}
	}
	return true
}

// keyOrd is the column of keyTable holding a key of k's type.
func keyOrd(k Value) int {
	switch k.(type) {
	case float64:
		return 1
	case string:
		return 2
	}
	return 0
}

// keyTable pins a table whose row i holds keys[i] in the column of its type
// (INT, FLOAT, VARCHAR; a NULL key is NULL in all three).
func keyTable(tb testing.TB, keys []Value) *TableSnap {
	tb.Helper()
	t, err := NewTable("outer", Column{Name: "i", Type: IntCol}, Column{Name: "f", Type: FloatCol}, Column{Name: "s", Type: StringCol})
	if err != nil {
		tb.Fatal(err)
	}
	for _, k := range keys {
		row := make([]Value, 3)
		row[keyOrd(k)] = k
		if _, err := t.Insert(row...); err != nil {
			tb.Fatal(err)
		}
	}
	return t.Snap()
}

// intKeys is a batch of INT outer keys (nil: NULL).
func intKeys(tb testing.TB, keys ...Value) Keys {
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i
	}
	return Keys{Table: keyTable(tb, keys), Ord: 0, IDs: ids}
}

// joinValues joins keys of any mix of types through j — one Join per type,
// since an outer column has one — into groups, which the caller reuses across
// calls as the executor reuses it, and returns each key's run, copied.
func joinValues(tb testing.TB, j *GroupJoin, keys []Value, groups *Groups, stats *Stats, g *governor.G) ([][]int, error) {
	ts := keyTable(tb, keys)
	out := make([][]int, len(keys))
	for ord := range 3 {
		var ids []int
		for i, k := range keys {
			if keyOrd(k) == ord {
				ids = append(ids, i)
			}
		}
		if len(ids) == 0 {
			continue
		}
		if err := j.Join(Keys{Table: ts, Ord: ord, IDs: ids}, groups, stats, g); err != nil {
			return nil, err
		}
		if len(groups.Runs) != len(ids) {
			tb.Fatalf("%d runs for %d keys", len(groups.Runs), len(ids))
		}
		for n, id := range ids {
			out[id] = slices.Clone(groups.Runs[n])
		}
	}
	return out, nil
}

func checkJoin(t *testing.T, label string, ts *TableSnap, col string, keys []Value, preds []Pred, batch int) {
	t.Helper()
	j := PlanGroupJoin(ts, col, preds)
	want := nestedLoop(ts, col, keys, preds)
	var groups Groups // reused across batches, as the executor reuses it
	for lo := 0; lo < len(keys); lo += batch {
		hi := min(lo+batch, len(keys))
		runs, err := joinValues(t, &j, keys[lo:hi], &groups, &Stats{}, governor.New(context.Background()))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, run := range runs {
			if !slices.Equal(run, want[lo+i]) {
				t.Fatalf("%s (%s): key %d = %v: run %v, nested loop %v", label, j.Explain("o"), lo+i, keys[lo+i], run, want[lo+i])
			}
		}
	}
}

// TestGroupJoinVsNestedLoop: both variants of the group-join return exactly
// the nested loop's groups, whatever the outer order, key types, NULLs,
// residual predicates and batch size.
func TestGroupJoinVsNestedLoop(t *testing.T) {
	predSets := map[string][]Pred{
		"none":     nil,
		"residual": {{Col: "v", Op: CmpGe, Val: int64(40)}},
		"two":      {{Col: "v", Op: CmpLt, Val: int64(80)}, {Col: "s", Op: CmpNe, Val: "s1"}},
		"nomatch":  {{Col: "v", Op: CmpGt, Val: int64(1000)}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		kType := IntCol
		if seed%2 == 0 {
			kType = FloatCol
		}
		tab := joinInner(t, r, 300+int(seed)*50, kType, 40)
		keys := outerKeys(r, 70, 40)
		for _, indexed := range []string{"", "v", "k"} { // scan join, scan join over an index range, index join
			if indexed != "" {
				if err := tab.CreateIndex(indexed); err != nil {
					t.Fatal(err)
				}
			}
			ts := tab.Snap()
			for name, preds := range predSets {
				for _, batch := range []int{1, 3, 1024} {
					label := fmt.Sprintf("seed=%d index=%q preds=%s batch=%d", seed, indexed, name, batch)
					checkJoin(t, label, ts, "k", keys, preds, batch)
				}
			}
			// Without a correlation every outer row's group is every
			// qualifying inner row.
			checkJoin(t, fmt.Sprintf("seed=%d index=%q uncorrelated", seed, indexed), ts, "", keys[:3], predSets["residual"], 1024)
		}
	}
}

// TestGroupJoinExplainAndStats: the variant follows from the indexes, the
// index variant descends once per non-NULL key under one operator start, and
// its filter count is what the constant predicates rejected.
func TestGroupJoinExplainAndStats(t *testing.T) {
	tab := joinInner(t, rand.New(rand.NewSource(7)), 200, IntCol, 10)
	preds := []Pred{{Col: "v", Op: CmpGe, Val: int64(50)}}
	scan := PlanGroupJoin(tab.Snap(), "k", preds)
	if got, want := scan.Explain("id"), "SCAN JOIN inner(k) = outer.id FILTER v >= 50"; got != want {
		t.Fatalf("explain = %q, want %q", got, want)
	}
	if err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	ts := tab.Snap()
	j := PlanGroupJoin(ts, "k", preds)
	if got, want := j.Explain("id"), "INDEX JOIN inner(k) = outer.id FILTER v >= 50"; got != want {
		t.Fatalf("explain = %q, want %q", got, want)
	}
	keys := intKeys(t, int64(3), nil, int64(3), int64(99), int64(4))
	var groups Groups
	var stats Stats
	g := governor.New(context.Background())
	if err := j.Join(keys, &groups, &stats, g); err != nil {
		t.Fatal(err)
	}
	var visited, emitted int64
	for _, k := range []int64{3, 3, 4} {
		for id := 0; id < ts.NumRows(); id++ {
			if ts.Value(id, "k") == Value(k) {
				visited++
				if preds[0].Matches(ts.Value(id, "v")) {
					emitted++
				}
			}
		}
	}
	want := Stats{IndexProbes: 4, RangeScans: 1, RowsEmitted: emitted, RowsFiltered: visited - emitted, Batches: 1}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
	if g.Ticks() != uint64(visited) {
		t.Fatalf("governor charged %d, want the %d ids visited", g.Ticks(), visited)
	}
}

// TestGroupJoinViewsArePinned: an index-join run holds exactly the ids the
// pinned snapshot committed, and keeps them while inserts land in the very
// leaves the join read and split them (run with -race: the ids were copied
// out under the table lock, so nothing the join returned is shared with the
// tree).
func TestGroupJoinViewsArePinned(t *testing.T) {
	tab, err := NewTable("inner", Column{Name: "k", Type: IntCol})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tab.Insert(int64(i % 2)); err != nil {
			t.Fatal(err)
		}
	}
	ts := tab.Snap()
	j := PlanGroupJoin(ts, "k", nil)
	var groups Groups
	if err := j.Join(intKeys(t, int64(0), int64(1)), &groups, nil, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if _, err := tab.Insert(int64(i % 2)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for n := 0; n < 200; n++ {
		for k, run := range groups.Runs {
			if want := []int{k, k + 2, k + 4, k + 6, k + 8}; !slices.Equal(run, want) {
				t.Fatalf("view of key %d changed under inserts: %v", k, run)
			}
		}
	}
	<-done
	// A join planned on the old snapshot still sees only its ten rows.
	if err := j.Join(intKeys(t, int64(1)), &groups, nil, nil); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 5, 7, 9}; !slices.Equal(groups.Runs[0], want) {
		t.Fatalf("pinned join saw later inserts: %v", groups.Runs[0])
	}
}

// TestGroupJoinFaults: a fault at the join's own site, or in the scan
// variant's inner pass, is an error — never a shorter group.
func TestGroupJoinFaults(t *testing.T) {
	defer faultpoint.Reset()
	boom := errors.New("boom")
	tab := joinInner(t, rand.New(rand.NewSource(3)), 100, IntCol, 5)
	keys := intKeys(t, int64(1), int64(2))
	var groups Groups

	scan := PlanGroupJoin(tab.Snap(), "k", nil)
	faultpoint.EnableAfter("relstore.scan.batch", 1, boom)
	if err := scan.Join(keys, &groups, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("scan-join inner fault: err = %v", err)
	}
	faultpoint.Reset()

	if err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	index := PlanGroupJoin(tab.Snap(), "k", nil)
	faultpoint.Enable("relstore.join.batch", boom)
	if err := index.Join(keys, &groups, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("join fault: err = %v", err)
	}
	faultpoint.Reset()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	many := make([]Value, 200)
	for i := range many {
		many[i] = int64(i % 5)
	}
	if err := index.Join(intKeys(t, many...), &groups, nil, governor.New(ctx)); !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("cancelled join: err = %v", err)
	}
}

// FuzzJoinVsNestedLoop drives both join variants from fuzzed table contents,
// outer keys and a residual bound, with NaN among the FLOAT cells and keys
// (CompareValues makes it equal to every number, which no key order can
// place). Numeric values stay below 2^53, where
// INT/FLOAT equality is exact (beyond it CompareValues itself is not
// transitive and a B-tree holds one entry per key).
func FuzzJoinVsNestedLoop(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1, 250, 7}, []byte{2, 1, 9, 2}, byte(3), false)
	f.Add([]byte{0, 0, 0, 5, 5, 5, 128, 129}, []byte{0, 5, 128, 200, 77}, byte(0), true)
	f.Add([]byte{}, []byte{1}, byte(9), true)
	f.Fuzz(func(t *testing.T, cells, outer []byte, bound byte, floatCol bool) {
		kType := IntCol
		if floatCol {
			kType = FloatCol
		}
		tab, err := NewTable("inner", Column{Name: "k", Type: kType}, Column{Name: "v", Type: IntCol}, Column{Name: "s", Type: StringCol})
		if err != nil {
			t.Fatal(err)
		}
		// A byte b is NULL when b%11 == 10, NaN (equal to every number) when
		// b%11 == 9 on a FLOAT column, else the key b%16 — halved into x.5
		// values on a FLOAT column for odd b above 127.
		val := func(b byte, float bool) Value {
			switch {
			case b%11 == 10:
				return nil
			case float && b%11 == 9:
				return math.NaN()
			case float && b > 127 && b%2 == 1:
				return float64(b%16) + 0.5
			case float:
				return float64(b % 16)
			}
			return int64(b % 16)
		}
		for i, b := range cells {
			if _, err := tab.Insert(val(b, floatCol), int64(i%7), "s"); err != nil {
				t.Fatal(err)
			}
		}
		keys := make([]Value, len(outer))
		for i, b := range outer {
			keys[i] = val(b, b%3 == 0) // outer type independent of the column's
		}
		preds := []Pred{{Col: "v", Op: CmpGe, Val: int64(bound % 8)}}
		checkJoin(t, "scan", tab.Snap(), "k", keys, preds, 1+int(bound)%5)
		if err := tab.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		checkJoin(t, "index", tab.Snap(), "k", keys, preds, 1+int(bound)%5)
	})
}

// TestPlanAccessInterval: every sargable predicate on the chosen index
// column folds into one [Lo, Hi]; what cannot fold stays residual.
func TestPlanAccessInterval(t *testing.T) {
	tab, err := NewTable("t", Column{Name: "a", Type: IntCol}, Column{Name: "b", Type: IntCol})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tab.Insert(int64(i), int64(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"a", "b"} {
		if err := tab.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	p := func(col string, op CmpOp, v Value) Pred { return Pred{Col: col, Op: op, Val: v} }
	cases := []struct {
		name    string
		preds   []Pred
		explain string
		rows    int // -1: placeholders, not runnable
	}{
		{"two-sided", []Pred{p("a", CmpGe, int64(30)), p("a", CmpLt, int64(55))},
			"INDEX RANGE SCAN t(a) a >= 30 AND a < 55", 25},
		{"redundant bounds keep the tightest", []Pred{p("a", CmpGe, int64(10)), p("a", CmpGt, int64(29)), p("a", CmpLe, int64(90)), p("a", CmpLt, int64(55)), p("a", CmpGe, int64(30))},
			"INDEX RANGE SCAN t(a) a >= 30 AND a < 55", 25},
		{"exclusive beats inclusive at one value", []Pred{p("a", CmpGe, int64(30)), p("a", CmpGt, int64(30)), p("a", CmpLe, int64(40)), p("a", CmpLt, int64(40))},
			"INDEX RANGE SCAN t(a) a > 30 AND a < 40", 9},
		{"contradictory bounds are an empty scan", []Pred{p("a", CmpGt, int64(60)), p("a", CmpLt, int64(40))},
			"INDEX RANGE SCAN t(a) a > 60 AND a < 40", 0},
		{"touching exclusive bounds are empty", []Pred{p("a", CmpGe, int64(40)), p("a", CmpLt, int64(40))},
			"INDEX RANGE SCAN t(a) a >= 40 AND a < 40", 0},
		{"closed interval of one value is a probe", []Pred{p("a", CmpGe, int64(40)), p("a", CmpLe, int64(40))},
			"INDEX PROBE t(a) a = 40", 1},
		{"equality preferred over an earlier range", []Pred{p("a", CmpGe, int64(30)), p("b", CmpEq, int64(3)), p("a", CmpLt, int64(55))},
			"INDEX PROBE t(b) b = 3 FILTER a >= 30 AND a < 55", 3},
		{"equality absorbs compatible bounds", []Pred{p("a", CmpEq, int64(42)), p("a", CmpGt, int64(7))},
			"INDEX PROBE t(a) a = 42", 1},
		{"equality outside a bound is empty", []Pred{p("a", CmpEq, int64(5)), p("a", CmpGt, int64(7))},
			"INDEX RANGE SCAN t(a) a > 7 AND a <= 5", 0},
		{"not-equal and other columns stay residual", []Pred{p("a", CmpGe, int64(30)), p("a", CmpNe, int64(31)), p("b", CmpEq, nil), p("a", CmpLt, int64(34))},
			"INDEX RANGE SCAN t(a) a >= 30 AND a < 34 FILTER a <> 31 AND b = <nil>", 0},
		{"placeholders bound both sides", []Pred{p("a", CmpGe, ParamValue("lo")), p("a", CmpLt, ParamValue("hi"))},
			"INDEX RANGE SCAN t(a) a >= :lo AND a < :hi", -1},
		{"an incomparable second bound stays residual", []Pred{p("a", CmpGe, ParamValue("lo")), p("a", CmpGe, int64(3)), p("a", CmpLe, ParamValue("hi"))},
			"INDEX RANGE SCAN t(a) a >= :lo AND a <= :hi FILTER a >= 3", -1},
		{"two placeholders are not a point", []Pred{p("a", CmpGe, ParamValue("x")), p("a", CmpLe, ParamValue("y"))},
			"INDEX RANGE SCAN t(a) a >= :x AND a <= :y", -1},
		{"one placeholder twice is", []Pred{p("a", CmpEq, ParamValue("x"))},
			"INDEX PROBE t(a) a = :x", -1},
	}
	for _, c := range cases {
		ts := tab.Snap()
		plan := PlanAccessAt(ts, c.preds)
		if got := plan.Explain(tab); got != c.explain {
			t.Errorf("%s: plan %q, want %q", c.name, got, c.explain)
			continue
		}
		if c.rows < 0 {
			continue
		}
		var stats Stats
		got := collect(plan.OpenBatchAt(ts, &stats, nil, BatchOpts{Workers: 1}))
		want := collect(FullScanPlanAt(ts, c.preds).OpenBatchAt(ts, nil, nil, BatchOpts{Workers: 1}))
		if !slices.Equal(got, want) || len(got) != c.rows {
			t.Errorf("%s: index path %v, full scan %v, want %d rows", c.name, got, want, c.rows)
		}
		// Nothing bounded by the interval is visited and thrown away.
		if !strings.Contains(c.explain, "FILTER") && stats.RowsFiltered != 0 {
			t.Errorf("%s: filtered %d rows with no residual", c.name, stats.RowsFiltered)
		}
		if c.rows == 0 && !strings.Contains(c.explain, "FILTER") && stats.IndexProbes != 0 {
			t.Errorf("%s: empty interval descended (%d probes)", c.name, stats.IndexProbes)
		}
	}
}
