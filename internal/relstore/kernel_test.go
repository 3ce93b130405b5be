package relstore

import (
	"fmt"
	"math"
	"math/rand/v2"
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
// residuals, and the index join's constant filter. Batches of 7 rows start
// inside the kernels' blocks of selBlock rows, and the table's
// MorselMinRows+37 rows leave the last batch and morsel a partial block.
// Each predicate's Filter, and the same predicate on an unbound bind
// variable, also tests ascending id lists of 1 to 64 rows with Mask, which
// must set exactly the bits of the rows Matches accepts.
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

		checkMasks(t, ts, preds, data)
	})
}

// checkMasks holds Filter.Mask to Filter.Matches for each of preds, and
// for each on an unbound bind variable, over ascending id lists of 1 to 64
// rows of ts whose gaps data decides.
func checkMasks(t *testing.T, ts *TableSnap, preds []Pred, data []byte) {
	t.Helper()
	var filters []Filter
	var names []string
	for _, p := range preds {
		ord := ts.ColIndex(p.Col)
		var typ ColType
		if ord >= 0 {
			typ = ts.Type(ord)
		}
		filters = append(filters, CompileFilter(typ, ord, p.Op, p.Val), CompileFilter(typ, ord, p.Op, ParamValue("x")))
		names = append(names, p.String(), p.String()+" (unbound)")
	}
	for n := 1; n <= 64; n++ {
		// Gaps of 1 to 97 rows: 64 ids span at most 64*97 rows past start.
		start := (n * 131) % (ts.NumRows() - 64*97)
		ids := make([]int, n)
		for b, id := 0, start; b < n; b++ {
			ids[b] = id
			if len(data) > 0 {
				id += int(data[(n+b)%len(data)]) % 97
			}
			id++
		}
		for i := range filters {
			var want uint64
			for b, id := range ids {
				if filters[i].Matches(ts, id) {
					want |= 1 << b
				}
			}
			if got := filters[i].Mask(ts, ids); got != want {
				t.Fatalf("Mask of %s over ids %v: %064b, Matches %064b", names[i], ids, got, want)
			}
		}
	}
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
		{Col: "f", Op: CmpEq, Val: math.NaN()},       // a NaN constant equals nothing
		{Col: "f", Op: CmpNe, Val: math.NaN()},       // and differs from every number
		{Col: "i", Op: CmpGe, Val: math.NaN()},       // an INT column against a NaN too
		{Col: "f", Op: CmpLe, Val: 1.0},              // a NaN cell is unordered: not <=
		{Col: "f", Op: CmpNe, Val: 1.0},              // but !=
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

// TestKernelBlockEdges holds the numeric kernels to Pred.Matches where
// their blocks and buffers begin and end: every operator, over runs of 0 to
// 2*selBlock+1 rows at aligned and unaligned starts, whose blocks hold a
// match on their first and last row, a NULL beside a match and (FLOAT) a
// NaN; with INT-vs-FLOAT constants; into a selection vector with room for
// every candidate, one with none, and one already holding ids; and over id
// lists filtered in place, and tested as one Filter.Mask. One run crosses
// selNum's stack buffer twice.
func TestKernelBlockEdges(t *testing.T) {
	tab, err := NewTable("e", Column{"i", IntCol}, Column{"f", FloatCol})
	if err != nil {
		t.Fatal(err)
	}
	// Of each two blocks of selBlock rows (aligned at row 0), the first has
	// 3 on its first row only and the second on its last row only; the
	// second's NULL, which the vector stores as a zero, sits beside a 0.
	ints := []Value{
		int64(3), int64(1), int64(5), nil, int64(2), int64(4), int64(9), int64(6),
		int64(6), int64(0), int64(5), nil, int64(2), int64(4), int64(9), int64(3),
	}
	flts := []Value{
		3.0, 1.5, math.NaN(), nil, 2.0, 4.0, 9.5, 6.0,
		6.0, 0.0, 2.5, nil, 2.0, 4.0, 9.5, 3.0,
	}
	const rows = 2*selChunk + selBlock + 1
	for r := range rows {
		if _, err := tab.Insert(ints[r%len(ints)], flts[r%len(flts)]); err != nil {
			t.Fatal(err)
		}
	}
	ts := tab.Snap()
	consts := map[string][]Value{
		"i": {int64(3), int64(0), int64(10), 3.0, 2.5},
		"f": {3.0, 2.5, 0.0, int64(3), int64(9)},
	}
	type run struct{ lo, hi int }
	var runs []run
	for _, lo := range []int{0, 1, selBlock - 1} {
		for n := range 2*selBlock + 2 {
			runs = append(runs, run{lo, lo + n})
		}
	}
	runs = append(runs, run{0, rows})
	for col, vals := range consts {
		ord := ts.ColIndex(col)
		for _, val := range vals {
			for op := CmpEq; op <= CmpGe; op++ {
				p := Pred{Col: col, Op: op, Val: val}
				k := compileKernel(ts.Type(ord), ord, op, val)
				for _, r := range runs {
					var cands, want []int
					for id := r.lo; id < r.hi; id++ {
						cands = append(cands, id)
						if p.Matches(ts.Value(id, col)) {
							want = append(want, id)
						}
					}
					check := func(path string, got []int) {
						t.Helper()
						if !slices.Equal(got, want) {
							t.Fatalf("%s over rows %d..%d, %s: %v, want %v", p, r.lo, r.hi, path, got, want)
						}
					}
					for _, room := range []int{0, len(cands)} {
						path := fmt.Sprintf("room for %d", room)
						check(path, k.sel(make([]int, 0, room), ts, r.lo, r.hi, nil))
						got := k.sel(append(make([]int, 0, 1+room), -1), ts, r.lo, r.hi, nil)
						check(path+", appended", got[1:])
						if len(cands) == 0 {
							continue // an empty id list is not the ids path
						}
						got = k.sel(append(make([]int, 0, 1+room), -1), ts, 0, 0, cands)
						check(path+", ids appended", got[1:])
					}
					if len(cands) > 0 && len(cands) <= 64 {
						f := CompileFilter(ts.Type(ord), ord, op, val)
						var bits []int
						for b, m := 0, f.Mask(ts, cands); b < len(cands); b++ {
							if m>>b&1 != 0 {
								bits = append(bits, cands[b])
							}
						}
						check("mask", bits)
					}
					check("ids in place", k.sel(cands[:0], ts, 0, 0, cands))
				}
			}
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

// TestNaNAccessPathsAgree: a NaN cell is unordered against every number,
// so it matches != and no other operator — through the serial scan, an
// index probe or range, and the morsel pool over either, for every operator
// and for conjunctions whose bounds fold into one interval. Each
// conjunction's count of the cells 1, NaN, 2 and 3 it keeps is spelled out,
// so the reference, Pred.Matches, is checked too.
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
	conjs := []struct {
		preds []Pred
		cells int // of 1, NaN, 2 and 3
	}{
		{[]Pred{{Col: "f", Op: CmpGe, Val: 1.0}, {Col: "f", Op: CmpLt, Val: 3.0}}, 2},
		{[]Pred{{Col: "f", Op: CmpLe, Val: 2.0}, {Col: "f", Op: CmpLt, Val: 3.0}}, 2}, // the looser < folds away
		{[]Pred{{Col: "f", Op: CmpGe, Val: 3.0}, {Col: "f", Op: CmpLe, Val: 1.0}}, 0}, // neither a number nor NaN is in it
		{[]Pred{{Col: "f", Op: CmpGe, Val: int64(2)}, {Col: "f", Op: CmpLe, Val: int64(2)}}, 1},
		{[]Pred{two(CmpEq)}, 1},
		{[]Pred{two(CmpNe)}, 3}, // NaN among them
		{[]Pred{two(CmpLt)}, 1},
		{[]Pred{two(CmpLe)}, 2},
		{[]Pred{two(CmpGt)}, 1},
		{[]Pred{two(CmpGe)}, 2},
		{[]Pred{{Col: "f", Op: CmpEq, Val: math.NaN()}}, 0},
		{[]Pred{{Col: "f", Op: CmpNe, Val: math.NaN()}}, 4},
	}
	for _, c := range conjs {
		preds := c.preds
		var want []int
		for id := range rows {
			if matchesAll(ts, id, preds) {
				want = append(want, id)
			}
		}
		if len(want) != c.cells*rows/len(cells) {
			t.Errorf("Pred.Matches over %s keeps %d rows, want %d", predsString(preds), len(want), c.cells*rows/len(cells))
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

// BenchmarkKernel times one kernel over 200 000 INT cells uniform in 0..999,
// called in morsel-sized runs as the pool calls it, at a constant near the
// bottom of the values (7) and one in their middle (500). The two must cost
// about the same for = (both select 0.1 %): a kernel that branches on each
// comparison mispredicts on the middle constant, where = first tests <.
func BenchmarkKernel(b *testing.B) {
	const rows = 200_000
	tab, err := NewTable("k", Column{"v", IntCol})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range rows {
		if _, err := tab.Insert(int64(r.IntN(1000))); err != nil {
			b.Fatal(err)
		}
	}
	ts := tab.Snap()
	for op := CmpEq; op <= CmpGe; op++ {
		for _, c := range []struct {
			name string
			v    int64
		}{{"low", 7}, {"mid", 500}} {
			b.Run(fmt.Sprintf("%s/const=%s", [...]string{"eq", "ne", "lt", "le", "gt", "ge"}[op], c.name), func(b *testing.B) {
				k := compileConj(ts, []Pred{{Col: "v", Op: op, Val: c.v}})
				var sel []int
				var n int
				b.ResetTimer()
				for range b.N {
					n = 0
					for lo := 0; lo < rows; lo += morselRows {
						sel = k.sel(sel[:0], ts, lo, min(lo+morselRows, rows), nil)
						n += len(sel)
					}
				}
				b.ReportMetric(float64(n)/rows, "selected")
			})
		}
	}
}
