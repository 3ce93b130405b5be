package relstore

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The filter kernels are held to Pred.Matches over the boxed cells (Cell),
// the reference they replace, through every access path that runs them.

// kernelCell decodes the cell of row r, column c (0 INT, 1 FLOAT, 2
// VARCHAR) from data. Every row differs even when data is short, and the
// pools hold the corners: NULL, ints past 2^53, NaN, negative zero,
// infinities and the empty string.
func kernelCell(data []byte, r, c int) Value {
	b := byte(r*7 + c*13)
	if len(data) > 0 {
		b += data[(3*r+c)%len(data)]
	}
	switch c {
	case 0:
		return kernelInts[int(b)%len(kernelInts)]
	case 1:
		return kernelFloats[int(b)%len(kernelFloats)]
	}
	return kernelStrings[int(b)%len(kernelStrings)]
}

var (
	kernelInts    = []Value{nil, int64(0), int64(1), int64(-3), int64(7), int64(1<<53 + 1), int64(-(1 << 53) - 1), int64(1 << 53), int64(math.MaxInt64), int64(2)}
	kernelFloats  = []Value{nil, 0.0, math.Copysign(0, -1), 1.0, -3.0, 7.5, math.NaN(), math.Inf(1), float64(1 << 53), 2.0}
	kernelStrings = []Value{nil, "", "a", "b", "ab", "7", "B"}
	// kernelConsts covers every constant type a predicate can carry: a
	// column's own, the other number, VARCHAR vs a number and NULL.
	kernelConsts = append(append(append([]Value{nil, int(4)}, kernelInts[1:]...), kernelFloats[1:]...), kernelStrings[1:]...)
	kernelCols   = []string{"i", "f", "s", "nope"}
)

// kernelPreds decodes a conjunction of 0–3 predicates, three bytes each.
func kernelPreds(spec []byte) []Pred {
	var preds []Pred
	for k := 0; k+2 < len(spec) && len(preds) < 3; k += 3 {
		preds = append(preds, Pred{
			Col: kernelCols[int(spec[k])%len(kernelCols)],
			Op:  CmpOp(spec[k+1] % 6),
			Val: kernelConsts[int(spec[k+2])%len(kernelConsts)],
		})
	}
	return preds
}

// kernelTable is a table of rows rows decoded from data, indexed on every
// column.
func kernelTable(tb testing.TB, data []byte, rows int) *Table {
	tb.Helper()
	t, err := NewTable("k", Column{"i", IntCol}, Column{"f", FloatCol}, Column{"s", StringCol})
	if err != nil {
		tb.Fatal(err)
	}
	for r := range rows {
		if _, err := t.Insert(kernelCell(data, r, 0), kernelCell(data, r, 1), kernelCell(data, r, 2)); err != nil {
			tb.Fatal(err)
		}
	}
	for _, col := range []string{"i", "f", "s"} {
		if err := t.CreateIndex(col); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// drainMorsels pulls a morsel pool dry.
func drainMorsels(tb testing.TB, m *Morsels[struct{}]) []int {
	tb.Helper()
	ids := collect(m)
	if err := m.Err(); err != nil {
		tb.Fatal(err)
	}
	return ids
}

// FuzzKernelVsMatches: whatever the cells and the conjunction, the ids a
// kernel path selects are exactly the rows whose boxed cells satisfy every
// predicate by Pred.Matches — through the serial scan at batch sizes 1, 7
// and 1024, the morsel pool at 1 and 4 workers, the planner's own access
// path (an index probe or range on any column, NaN FLOAT keys included)
// serially and on the morsel pool, an index range with the predicates as
// residuals, and the index join's constant filter.
func FuzzKernelVsMatches(f *testing.F) {
	f.Add([]byte{}, []byte{0, 0, 4})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 2, 20, 2, 0, 30, 0, 5, 12})
	f.Add([]byte{6, 6, 6, 0, 255}, []byte{1, 0, 15, 1, 1, 15, 2, 4, 1})
	f.Add([]byte{9, 8, 7}, []byte{0, 3, 9, 3, 0, 2})
	f.Add([]byte{42}, []byte{2, 3, 22, 0, 4, 1, 1, 5, 0})
	f.Fuzz(func(t *testing.T, data, spec []byte) {
		tab := kernelTable(t, data, MorselMinRows+37)
		ts := tab.Snap()
		preds := kernelPreds(spec)
		var want []int
		for id := range ts.NumRows() {
			if matchesAll(ts, id, preds) {
				want = append(want, id)
			}
		}
		check := func(path string, got []int) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s over %s: %d ids, Pred.Matches selects %d (first got %v, want %v)",
					path, predsString(preds), len(got), len(want), got[:min(len(got), 5)], want[:min(len(want), 5)])
			}
		}
		scan := FullScanPlanAt(ts, preds)
		for _, size := range []int{1, 7, 1024} {
			check(fmt.Sprintf("serial scan, batch %d", size), collect(scan.OpenBatchAt(ts, nil, nil, BatchOpts{BatchSize: size, Workers: 1})))
		}
		for _, workers := range []int{1, 4} {
			m := newMorsels[struct{}](nil, ts, nil, ts.NumRows(), preds, "relstore.scan.batch", nil, nil, workers, DefaultBatchSize, nil)
			check(fmt.Sprintf("morsel pool, %d workers", workers), drainMorsels(t, m))
		}

		plan := PlanAccessAt(ts, preds)
		for _, workers := range []int{1, 4} {
			check(fmt.Sprintf("%s, %d workers", plan.Explain(tab), workers), collect(plan.OpenBatchAt(ts, nil, nil, BatchOpts{Workers: workers})))
		}

		// An index range on i with every predicate a residual: the oracle
		// adds the interval (ints, so int64 comparison is exact).
		lo, hi := int64(-3), int64(1<<53+1)
		if len(spec) > 0 {
			lo = kernelInts[1+int(spec[0])%(len(kernelInts)-1)].(int64)
			hi = kernelInts[1+int(spec[len(spec)-1])%(len(kernelInts)-1)].(int64)
		}
		rng := AccessPlan{Kind: PathIndexRange, Col: "i", Lo: Bound{Value: lo, Inclusive: true}, Hi: Bound{Value: hi, Inclusive: true}, Residual: preds}
		inRange := want[:0:0]
		for _, id := range want {
			if x, ok := ts.Int(0, id); ok && lo <= x && x <= hi {
				inRange = append(inRange, id)
			}
		}
		if got := collect(rng.OpenBatchAt(ts, nil, nil, BatchOpts{Workers: 1})); !slices.Equal(got, inRange) {
			t.Fatalf("index range [%d, %d] over %s: %v, want %v", lo, hi, predsString(preds), got, inRange)
		}

		// The index join on i: each group is the key's rows that pass the
		// constant predicates.
		keys := []Value{nil}
		for _, b := range spec {
			keys = append(keys, kernelInts[int(b)%len(kernelInts)])
		}
		checkJoin(t, "index join", ts, "i", keys, preds, 3)
	})
}

// TestKernelCompileRules spells out the cross-type rules a kernel settles at
// compile time, each against Pred.Matches.
func TestKernelCompileRules(t *testing.T) {
	tab := kernelTable(t, nil, 200)
	ts := tab.Snap()
	for _, p := range []Pred{
		{Col: "i", Op: CmpEq, Val: float64(1 << 53)}, // INT vs FLOAT compares as float64, past 2^53 too
		{Col: "i", Op: CmpLt, Val: "a"},              // VARCHAR vs a number: by type name, every non-NULL row
		{Col: "s", Op: CmpGt, Val: int64(3)},         // and the other way round: none
		{Col: "f", Op: CmpEq, Val: math.NaN()},       // NaN equals every number
		{Col: "f", Op: CmpLe, Val: 1.0},              // a NaN cell equals every constant
		{Col: "f", Op: CmpEq, Val: 0.0},              // negative zero equals zero
		{Col: "i", Op: CmpNe, Val: nil},              // NULL never matches
		{Col: "i", Op: CmpEq, Val: ParamValue("x")},  // nor does an unbound placeholder
		{Col: "nope", Op: CmpGe, Val: int64(0)},      // nor a missing column
		{Col: "i", Op: CmpGe, Val: int(4)},           // a constant of any other type orders by type name
	} {
		c := compileConj(ts, []Pred{p})
		got := c.sel(nil, ts, 0, ts.NumRows(), nil)
		ord := ts.ColIndex(p.Col)
		var typ ColType
		if ord >= 0 {
			typ = ts.Type(ord)
		}
		f := CompileFilter(typ, ord, p.Op, p.Val)
		var want []int
		for id := range ts.NumRows() {
			if p.Matches(ts.Value(id, p.Col)) {
				want = append(want, id)
			}
			if f.Matches(ts, id) != p.Matches(ts.Value(id, p.Col)) {
				t.Fatalf("%s: Filter disagrees at row %d", p, id)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: kernel selects %d rows, Pred.Matches %d", p, len(got), len(want))
		}
	}
}

// TestZeroFilterMatchesNothing: a Filter never compiled matches no row, even
// where column 0 is not INT (the zero kernel would read it as one).
func TestZeroFilterMatchesNothing(t *testing.T) {
	tab, err := NewTable("t", Column{Name: "s", Type: StringCol}, Column{Name: "f", Type: FloatCol})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]Value{{"a", 1.0}, {"", 0.0}, {nil, nil}} {
		if _, err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	ts := tab.Snap()
	var f Filter
	for id := range ts.NumRows() {
		if f.Matches(ts, id) {
			t.Fatalf("zero Filter matches row %d", id)
		}
	}
}

// TestNaNAccessPathsAgree: a NaN cell compares equal to every number, so it
// matches =, <= and >= and no other operator — through the serial scan, an
// index probe or range, and the morsel pool over either, for every operator
// and for conjunctions whose bounds fold into one interval.
func TestNaNAccessPathsAgree(t *testing.T) {
	cells := []Value{1.0, math.NaN(), 2.0, 3.0}
	tab, err := NewTable("n", Column{"f", FloatCol})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 4 * MorselMinRows
	for r := range rows {
		if _, err := tab.Insert(cells[r%len(cells)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("f"); err != nil {
		t.Fatal(err)
	}
	ts := tab.Snap()
	two := func(op CmpOp) Pred { return Pred{Col: "f", Op: op, Val: 2.0} }
	conjs := [][]Pred{
		{{Col: "f", Op: CmpGe, Val: 1.0}, {Col: "f", Op: CmpLt, Val: 3.0}},
		{{Col: "f", Op: CmpLe, Val: 2.0}, {Col: "f", Op: CmpLt, Val: 3.0}}, // the looser < folds away, yet rejects NaN
		{{Col: "f", Op: CmpGe, Val: 3.0}, {Col: "f", Op: CmpLe, Val: 1.0}}, // no number is in it; NaN is
		{{Col: "f", Op: CmpGe, Val: int64(2)}, {Col: "f", Op: CmpLe, Val: int64(2)}},
	}
	for op := CmpEq; op <= CmpGe; op++ {
		conjs = append(conjs, []Pred{two(op)})
	}
	for _, preds := range conjs {
		var want []int
		for id := range rows {
			if matchesAll(ts, id, preds) {
				want = append(want, id)
			}
		}
		plan := PlanAccessAt(ts, preds)
		for _, path := range []struct {
			name string
			plan AccessPlan
		}{{"scan", FullScanPlanAt(ts, preds)}, {plan.Explain(tab), plan}} {
			for _, workers := range []int{1, 4} {
				stats := &Stats{}
				got := collect(path.plan.OpenBatchAt(ts, stats, nil, BatchOpts{Workers: workers}))
				if !slices.Equal(got, want) {
					t.Errorf("%s, %d workers, over %s: %d ids (first %v), Pred.Matches selects %d (first %v)",
						path.name, workers, predsString(preds), len(got), got[:min(len(got), 4)], len(want), want[:min(len(want), 4)])
				}
				if workers > 1 && len(want) >= MorselMinRows && stats.Morsels == 0 {
					t.Errorf("%s over %s: %d ids, but the morsel pool did not run", path.name, predsString(preds), len(want))
				}
			}
		}
	}
}
