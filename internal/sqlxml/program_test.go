package sqlxml

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/governor"
	"repro/internal/relstore"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Both emitters are held to the reference walk (walk_test.go) over
// generated bodies: for any XMLExpr the generator below decodes from fuzz
// bytes, a byte program must append, through AppendNext, exactly the bytes
// Node.Serialize prints for the walk's documents, and a tree program must
// build those documents — at every batch size and worker count, over enough
// driving rows that the morsel pool constructs.

// shapeGen decodes bytes into an XMLExpr over kindsDB's tables: o drives,
// i is correlated on o.id, j on i.w. Exhausted input reads as zeros, which
// end every choice in its smallest option.
type shapeGen struct {
	b []byte
	i int
}

func (g *shapeGen) n(k int) int {
	if g.i >= len(g.b) {
		return 0
	}
	v := int(g.b[g.i]) % k
	g.i++
	return v
}

// kindsCols lists each table's columns plus one it does not have.
var kindsCols = map[string][]string{
	"o": {"id", "name", "note", "score", "nope"},
	"i": {"oid", "label", "amt", "w", "nope"},
	"j": {"k", "tag", "nope"},
}

var (
	shapeLits  = []string{"", "t", `a<b&"c"`, "\n\t", "日本"}
	shapeNames = []string{"e", "f", "p:e", ":e"}
	shapeAttrs = []string{"a", "b", "a", ":a", "p:a", ":p:a", "p:b"}
	shapeFns   = []string{"count", "sum", "avg", "min", "max"}
)

func (g *shapeGen) col(table string) string {
	cols := kindsCols[table]
	return cols[g.n(len(cols))]
}

// pred is a predicate on an existing column of table: a constant of the
// column's type, another type, NULL, or a bind variable ($p int, $s text).
func (g *shapeGen) pred(table string) relstore.Pred {
	cols := kindsCols[table]
	p := relstore.Pred{Col: cols[g.n(len(cols)-1)], Op: relstore.CmpOp(g.n(6))}
	switch g.n(6) {
	case 0:
		p.Val = int64(g.n(4))
	case 1:
		p.Val = float64(g.n(5)) - 1.5
	case 2:
		p.Val = nasty[g.n(len(nasty))]
	case 3:
		p.Val = relstore.ParamValue("p")
	case 4:
		p.Val = relstore.ParamValue("s")
	default:
		p.Val = nil
	}
	return p
}

// sub is a subquery under rows of table: correlated one level down, or
// uncorrelated over the four-row j, with 0–2 WHERE predicates and maybe an
// ORDER BY in either direction.
func (g *shapeGen) sub(table string) *SubQuery {
	var q SubQuery
	switch {
	case table == "o" && g.n(3) > 0:
		q = SubQuery{Table: "i", CorrInner: "oid", CorrOuter: "id"}
	case table == "i" && g.n(3) > 0:
		q = SubQuery{Table: "j", CorrInner: "k", CorrOuter: "w"}
	default:
		q.Table = "j"
	}
	for n := g.n(3); n > 0; n-- {
		q.Where = append(q.Where, g.pred(q.Table))
	}
	if g.n(2) == 1 {
		cols := kindsCols[q.Table]
		q.OrderBy, q.Descending = cols[g.n(len(cols)-1)], g.n(2) == 1
	}
	return &q
}

func (g *shapeGen) scalarAgg(table string) *ScalarAgg {
	sub := g.sub(table)
	e := &ScalarAgg{Fn: shapeFns[g.n(len(shapeFns))], Sub: sub}
	if e.Fn != "count" || g.n(2) == 1 {
		e.Col = g.col(sub.Table)
	}
	return e
}

// scalar is an attribute value.
func (g *shapeGen) scalar(table string, depth int) XMLExpr {
	switch g.n(4) {
	case 1:
		return &Column{Name: g.col(table)}
	case 2:
		if depth < 3 {
			items := make([]XMLExpr, 1+g.n(3))
			for i := range items {
				items[i] = g.scalar(table, depth+1)
			}
			return &Concat{Items: items}
		}
	case 3:
		return g.scalarAgg(table)
	}
	return &Literal{Text: shapeLits[g.n(len(shapeLits))]}
}

// element has 0–5 attributes, names repeating, and 0–3 children.
func (g *shapeGen) element(table string, depth, aggs int) *Element {
	e := &Element{Name: shapeNames[g.n(len(shapeNames))]}
	for n := g.n(6); n > 0; n-- {
		e.Attrs = append(e.Attrs, Attr{Name: shapeAttrs[g.n(len(shapeAttrs))], Value: g.scalar(table, 0)})
	}
	if depth < 4 {
		for n := g.n(4); n > 0; n-- {
			e.Children = append(e.Children, g.content(table, depth+1, aggs))
		}
	}
	return e
}

// content is anything an element may contain. aggs counts the XMLAggs
// enclosing it, at most two.
func (g *shapeGen) content(table string, depth, aggs int) XMLExpr {
	switch g.n(8) {
	case 1:
		return &Literal{Text: shapeLits[g.n(len(shapeLits))]}
	case 2:
		return &Column{Name: g.col(table)}
	case 3:
		if depth < 4 {
			items := make([]XMLExpr, g.n(4))
			for i := range items {
				items[i] = g.content(table, depth+1, aggs)
			}
			return &Concat{Items: items}
		}
	case 4:
		if depth < 4 {
			c := &Cond{Then: g.content(table, depth+1, aggs)}
			for n := 1 + g.n(2); n > 0; n-- {
				cols := kindsCols[table]
				p := g.pred(table)
				p.Col = cols[g.n(len(cols))] // a missing column too: NULL never matches
				c.Preds = append(c.Preds, p)
			}
			if g.n(2) == 1 {
				c.Else = g.content(table, depth+1, aggs)
			}
			return c
		}
	case 5:
		if aggs < 2 && depth < 4 {
			sub := g.sub(table)
			sub.Body = g.content(sub.Table, depth+1, aggs+1)
			return &Agg{Sub: sub}
		}
	case 6:
		return g.scalarAgg(table)
	}
	return g.element(table, depth, aggs)
}

// shapeParams binds the generator's bind variables.
var shapeParams = map[string]relstore.Value{"p": int64(2), "s": nasty[1]}

// assertProgramMatchesTrees demands the walk's documents' bytes from every
// byte route: batch sizes 1, 7 and 1024 at 1 and 4 workers. It returns the
// morsels the 4-worker runs executed.
func assertProgramMatchesTrees(tb testing.TB, ex *Executor, q *Query) int64 {
	tb.Helper()
	want := serializeDocs(walkDocs(tb, ex.DB, q, shapeParams, nil))
	var sink relstore.Stats
	for _, workers := range []int{1, 4} {
		for _, size := range []int{1, 7, 1024} {
			c, err := ex.OpenQueryCursorSpec(q, &sink, nil, &RunSpec{Params: shapeParams, Batch: relstore.BatchOpts{BatchSize: size, Workers: workers}})
			if err != nil {
				tb.Fatal(err)
			}
			var buf []byte
			for i := 0; ; i++ {
				buf, err = c.AppendNext(buf[:0])
				if err == io.EOF {
					if i != len(want) {
						tb.Fatalf("workers=%d batch=%d: %d rows, want %d", workers, size, i, len(want))
					}
					break
				}
				if err != nil {
					tb.Fatal(err)
				}
				if i >= len(want) || string(buf) != want[i] {
					tb.Fatalf("workers=%d batch=%d: row %d differs:\n got  %q\n want %q\nbody: %s", workers, size, i, buf, want[min(i, len(want)-1)], q.Body.SQL())
				}
			}
			c.Close()
		}
	}
	return sink.Morsels
}

var (
	shapeDBOnce sync.Once
	shapeDB     *relstore.DB
)

// bigShapeDB is kindsDB over wideTexts with o just past MorselMinRows,
// built once.
func bigShapeDB(tb testing.TB) *relstore.DB {
	shapeDBOnce.Do(func() {
		shapeDB = kindsDB(tb, wideTexts, []float64{0, 1, -2.5, 1e6, 1e21, 3.0000001, -7}, relstore.MorselMinRows+5)
	})
	return shapeDB
}

// oneRow is a query with one driving row, of the three-row v (its driving
// scan stays serial), whose document is an XMLAgg over all of o with the
// generated body per member: entered open (under an element) or not, and
// in heap or ORDER BY order.
func (g *shapeGen) oneRow() *Query {
	sub := &SubQuery{Table: "o"}
	if g.n(2) == 1 {
		sub.OrderBy, sub.Descending = kindsCols["o"][g.n(4)], g.n(2) == 1
	}
	sub.Body = g.content("o", 1, 1)
	var body XMLExpr = &Agg{Sub: sub}
	if g.n(2) == 1 {
		body = &Element{Name: "root", Children: []XMLExpr{body}}
	}
	return &Query{Table: "v", Where: oneV, Body: body}
}

// oneV selects one row of v.
var oneV = []relstore.Pred{{Col: "n", Op: relstore.CmpEq, Val: int64(0)}}

// splits reports whether q's outermost XMLAgg compiled as splittable.
func splits(tb testing.TB, db *relstore.DB, q *Query) bool {
	tb.Helper()
	p, err := Compile(db, q)
	if err != nil {
		tb.Fatal(err)
	}
	for _, o := range p.code {
		if o.kind == opAgg {
			return o.sub.split
		}
	}
	tb.Fatalf("no XMLAgg in %s", q.Body.SQL())
	return false
}

// addShapeSeeds seeds a generated-body fuzz target (shapeGen), in its
// driving-rows and its one-row mode.
func addShapeSeeds(f *testing.F) {
	for _, shape := range [][]byte{
		{},
		{0, 5, 3, 0, 1, 2, 4, 6, 1, 7, 2},
		{4, 0, 2, 1, 3, 0, 1, 1, 2, 0, 1, 5, 1, 1, 0, 3},
		{5, 1, 2, 1, 1, 0, 5, 1, 0, 0, 0, 5, 2, 2, 3, 3, 1, 0, 6, 2, 1},
		{0, 5, 0, 2, 1, 3, 2, 5, 3, 4, 2, 6, 1, 3, 0, 2},
		{3, 3, 6, 4, 1, 1, 4, 0, 2, 0, 5, 0, 1, 1, 1, 1, 2, 6, 3, 1, 4, 1},
	} {
		f.Add(shape, false)
		f.Add(shape, true)
	}
	f.Add([]byte{1, 1, 2, 4, 0, 0, 0, 0, 1, 2, 1}, true)
	// Static runs of 15, 16 and 17 bytes before (or after) a VARCHAR cell,
	// over driving rows and as an XMLAgg's body: the 16-byte stores' edge,
	// over wideTexts' cells of 0 to 17 bytes.
	for _, seed := range []struct {
		shape  []byte
		oneRow bool
	}{
		{[]byte{4, 0, 3, 3, 6, 1, 2, 5, 0}, false},                         // 15
		{[]byte{3, 6, 7, 2, 1, 4, 6, 7, 2, 6, 4, 6, 5, 1, 1, 0, 4}, false}, // 16
		{[]byte{7, 6, 3, 5, 0, 0, 4, 5, 7}, false},                         // 17
		{[]byte{1, 5, 6, 5, 6, 0, 0, 0, 0, 4, 1, 1, 7, 4}, true},           // 15
		{[]byte{7, 0, 3, 3, 3, 7, 3, 3, 4, 1, 2, 3, 0}, true},              // 16
		{[]byte{2, 0, 6, 3, 5, 4, 0, 4, 5, 6}, true},                       // 17
	} {
		f.Add(seed.shape, seed.oneRow)
	}
}

// FuzzProgramVsTree: for any generated body, the byte program and the walk
// agree on every row of a driving table large enough for the morsel pool —
// and, in one-row mode, on the one document whose XMLAgg groups that whole
// table, which the pool splits exactly when the body ends with its tags
// closed.
func FuzzProgramVsTree(f *testing.F) {
	addShapeSeeds(f)
	f.Fuzz(func(t *testing.T, shape []byte, oneRow bool) {
		db := bigShapeDB(t)
		g := &shapeGen{b: shape}
		if !oneRow {
			q := &Query{Table: "o", Body: g.content("o", 0, 0)}
			if morsels := assertProgramMatchesTrees(t, NewExecutor(db), q); morsels == 0 {
				t.Fatalf("the parallel route did not run for %s", q.Body.SQL())
			}
			return
		}
		q := g.oneRow()
		morsels := assertProgramMatchesTrees(t, NewExecutor(db), q)
		if split := splits(t, db, q); split != (morsels > 0) {
			t.Fatalf("splittable %t, but the 4-worker runs executed %d morsels: %s", split, morsels, q.Body.SQL())
		}
	})
}

// TestAggSplitShapes pins which XMLAgg bodies the compiler lets the morsel
// pool split, over a group past MorselMinRows (all of o) under one driving
// row, and the bytes each constructs at every worker count.
func TestAggSplitShapes(t *testing.T) {
	db := bigShapeDB(t)
	qty := []relstore.Pred{{Col: "score", Op: relstore.CmpGt, Val: 0.5}}
	under := func(body XMLExpr) XMLExpr {
		return &Element{Name: "a", Children: []XMLExpr{&Agg{Sub: &SubQuery{Table: "o", Body: body}}}}
	}
	for _, tc := range []struct {
		name  string
		body  XMLExpr
		split bool
	}{
		{"a body ending closed splits", under(&Element{Name: "b", Attrs: []Attr{{Name: "id", Value: &Column{Name: "id"}}}}), true},
		{"entered closed, at top level", &Agg{Sub: &SubQuery{Table: "o", Body: &Element{Name: "b"}}}, true},
		{"entered closed, a cond with an empty else", &Agg{Sub: &SubQuery{Table: "o", Body: &Cond{Preds: qty, Then: &Element{Name: "b"}}}}, true},
		{"a cond closing on both branches splits", under(&Cond{Preds: qty, Then: &Element{Name: "b"}, Else: &Literal{Text: "-"}}), true},
		{"a cond with an empty else stays serial", under(&Cond{Preds: qty, Then: &Element{Name: "b"}}), false},
		{"a possibly-empty column stays serial", under(&Column{Name: "note"}), false},
		{"content after a possibly-empty column splits", under(&Concat{Items: []XMLExpr{&Column{Name: "note"}, &Literal{Text: ";"}}}), true},
		{"a body with its own subquery splits", under(&Element{Name: "b", Children: []XMLExpr{
			&ScalarAgg{Fn: "count", Sub: &SubQuery{Table: "i", CorrInner: "oid", CorrOuter: "id"}}}}), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &Query{Table: "v", Where: oneV, Body: tc.body}
			if got := splits(t, db, q); got != tc.split {
				t.Fatalf("splittable %t, want %t", got, tc.split)
			}
			if morsels := assertProgramMatchesTrees(t, NewExecutor(db), q); (morsels > 0) != tc.split {
				t.Fatalf("the 4-worker runs executed %d morsels, splittable %t", morsels, tc.split)
			}
		})
	}
	// Entered open: the element's '>' is written once, before member 0.
	q := &Query{Table: "v", Where: oneV, Body: under(&Element{Name: "b"})}
	c, err := NewExecutor(db).OpenQueryCursorSpec(q, nil, nil, &RunSpec{Batch: relstore.BatchOpts{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	row, err := c.AppendNext(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "<a>" + strings.Repeat("<b/>", relstore.MorselMinRows+5) + "</a>"; string(row) != want {
		t.Fatalf("got %d bytes starting %q, want %d", len(row), row[:min(len(row), 16)], len(want))
	}
}

// wideTexts are VARCHAR cells on either side of the 16-byte store that
// copies a short cell (and nasty after them): 16 and 17 bytes with nothing
// to escape, empty, 15 bytes, and 16 bytes that need escaping as text and
// as an attribute value, or as an attribute value only.
var wideTexts = append([]string{
	"abcdefghijklmnop", "abcdefghijklmnopq", "", "abcdefghijklmno",
	"abcdefgh<jklmnop", `abcdefgh"jklmnop`,
}, nasty...)

// TestProgramShapes pins what the compiler decides statically for the
// corners of the deferred '>' and for its superinstructions — and the bytes
// each one constructs, and the governor ticks: one per source op, however
// many were folded into one. The driving rows' name and note cells are
// wideTexts, around the 16-byte stores' edge, and each body also runs into
// buffers whose capacity ends exactly where its bytes do, where the stores
// fall back to appends and nothing is allocated.
func TestProgramShapes(t *testing.T) {
	db := kindsDB(t, wideTexts, []float64{0, 1}, 5)
	for _, tc := range []struct {
		name  string
		body  XMLExpr
		ops   int // ops compiled for the driving body
		ticks int // governor ticks per driving row; 0: not pinned
	}{
		// The static run before a value op is folded into it, and still
		// charges its tick — also when the value (a NULL note) is empty.
		{"literal, column, literal", &Concat{Items: []XMLExpr{&Literal{Text: "<x"}, &Column{Name: "note"}, &Literal{Text: "y"}}}, 2, 3},
		{"static tree is one run", &Element{Name: "a", Attrs: []Attr{{Name: "x", Value: &Literal{Text: `"`}}}, Children: []XMLExpr{
			&Element{Name: "b"}, &Literal{Text: "<"}, &Element{Name: "c", Children: []XMLExpr{&Literal{Text: "d"}}}}}, 1, 0},
		{"column under an open tag", &Element{Name: "a", Children: []XMLExpr{&Column{Name: "note"}}}, 4, 0},
		{"missing column compiles away", &Element{Name: "a", Children: []XMLExpr{&Column{Name: "nope"}}}, 1, 0},
		{"count is content", &Element{Name: "a", Children: []XMLExpr{&ScalarAgg{Fn: "count", Sub: &SubQuery{Table: "j"}}}}, 3, 0},
		{"agg body entered open", &Element{Name: "a", Children: []XMLExpr{&Agg{Sub: &SubQuery{Table: "i", CorrInner: "oid", CorrOuter: "id",
			Body: &Element{Name: "b"}}}}}, 4, 0},
		// A repeated attribute name keeps the first position and the last
		// value; the value it overrides is never evaluated — on either path,
		// so a non-scalar one is no error and a subquery in it joins nothing.
		{"overridden attribute values are not evaluated", &Element{Name: "a", Attrs: []Attr{
			{Name: "x", Value: &Element{Name: "not-scalar"}},
			{Name: "y", Value: &ScalarAgg{Fn: "count", Sub: &SubQuery{Table: "i", CorrInner: "oid", CorrOuter: "id"}}},
			{Name: "x", Value: &Column{Name: "name"}},
			{Name: "y", Value: &Literal{Text: "v"}}}}, 2, 0},
		// A CASE WHEN on a column the table does not have never holds, also
		// over a table whose first column is not INT.
		{"cond on a missing column", &Element{Name: "a", Children: []XMLExpr{&Agg{Sub: &SubQuery{Table: "v",
			Body: &Cond{Preds: []relstore.Pred{{Col: "nope", Op: relstore.CmpEq, Val: int64(1)}},
				Then: &Literal{Text: "then"}, Else: &Column{Name: "word"}}}}}}, 4, 0},
		// Literals on either side of 16 bytes, each folded into the column
		// op after it or left as the last static run, around cells of 0, 15,
		// 16 and 17 bytes, escaped or not.
		{"literals of 15, 16 and 17 bytes", &Concat{Items: []XMLExpr{
			&Literal{Text: strings.Repeat("a", 15)}, &Column{Name: "name"},
			&Literal{Text: strings.Repeat("b", 16)}, &Column{Name: "note"},
			&Literal{Text: strings.Repeat("c", 17)}}}, 3, 5},
		{"cells of 0 to 17 bytes as attribute values", &Element{Name: "e", Attrs: []Attr{
			{Name: "x", Value: &Column{Name: "name"}}, {Name: "y", Value: &Column{Name: "note"}}}}, 3, 5},
		{"a 17-byte end tag after a cell", &Element{Name: "abcdefghijklmn", Children: []XMLExpr{&Column{Name: "name"}}}, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &Query{Table: "o", Body: tc.body}
			p, err := Compile(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.code) != tc.ops {
				t.Errorf("%d ops, want %d: %s", len(p.code), tc.ops, dumpOps(p.code))
			}
			assertProgramMatchesTrees(t, NewExecutor(db), q)
			assertTreesMatchWalk(t, NewExecutor(db), q)
			assertSameStats(t, NewExecutor(db), q)
			assertExactCapacity(t, db, p)
			if tc.ticks > 0 {
				// A tree program charges one tick per op that does work —
				// a literal, a value, a start tag or attribute — which for
				// these shapes is the byte program's count too.
				tp, err := CompileTree(db, q)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []*Program{p, tp} {
					if got, want := programTicks(t, db, p), uint64(tc.ticks*5); got != want {
						t.Errorf("tree %t: %d governor ticks over 5 rows, want %d: %s", p.tree, got, want, dumpOps(p.code))
					}
				}
			}
		})
	}
}

// assertExactCapacity runs p over every row of its driving table into a
// buffer that holds a prefix and has room for exactly the row's bytes: the
// bytes must be the row's, in that same array, and the run must allocate
// nothing — no 16-byte store may grow a buffer, and none may write past its
// capacity.
func assertExactCapacity(tb testing.TB, db *relstore.DB, p *Program) {
	tb.Helper()
	ec, rows := everyDrivingRow(tb, db, p, governor.New(context.Background()))
	defer ec.release()
	for i := range rows {
		ec.setPos(i)
		want, err := ec.runRow(p, []byte("<<"))
		if err != nil {
			tb.Fatal(err)
		}
		buf := make([]byte, 2, len(want))
		copy(buf, "<<")
		var got []byte
		allocs := testing.AllocsPerRun(10, func() {
			ec.setPos(i)
			got, err = ec.runRow(p, buf[:2])
		})
		if err != nil {
			tb.Fatal(err)
		}
		if !bytes.Equal(got, want) || cap(got) != cap(buf) || &got[0] != &buf[0] {
			tb.Fatalf("row %d into an exact buffer: %q (cap %d), want %q in the buffer (cap %d)", i, got, cap(got), want, cap(buf))
		}
		if allocs != 0 {
			tb.Fatalf("row %d into an exact buffer: %v allocations per run, want 0", i, allocs)
		}
	}
}

// everyDrivingRow returns a serial context for p, its filters bound to
// shapeParams and charging gov, whose driving rows are every row of p's
// driving table, and those rows.
func everyDrivingRow(tb testing.TB, db *relstore.DB, p *Program, gov *governor.G) (*evalContext, []int) {
	tb.Helper()
	filters, err := p.bind(shapeParams)
	if err != nil {
		tb.Fatal(err)
	}
	snap := db.Snapshot()
	ts := snap.Table(p.q.Table)
	ids := make([]int, ts.NumRows())
	for i := range ids {
		ids[i] = i
	}
	ec := &evalContext{snap: snap, stats: new(relstore.Stats), gov: gov, params: shapeParams, filters: filters}
	ec.setRows(ts, ids)
	return ec, ids
}

// programTicks runs p (of either emitter) serially over every row of its
// driving table and returns the governor ticks charged.
func programTicks(tb testing.TB, db *relstore.DB, p *Program) uint64 {
	tb.Helper()
	gov := governor.New(context.Background())
	ec, rows := everyDrivingRow(tb, db, p, gov)
	for i := range rows {
		ec.setPos(i)
		var err error
		if p.tree {
			_, err = ec.runDoc(p)
		} else {
			_, err = ec.runRow(p, nil)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	ec.release()
	return gov.Ticks()
}

// assertSameStats demands that the walk and both programs do the same
// relational work for q: equal counters from one serial run each.
func assertSameStats(tb testing.TB, ex *Executor, q *Query) {
	tb.Helper()
	var walk, trees, bytes relstore.Stats
	walkDocs(tb, ex.DB, q, shapeParams, &walk)
	if _, err := ex.ExecQueryParallelSpec(q, 1, &trees, nil, &RunSpec{Params: shapeParams}); err != nil {
		tb.Fatal(err)
	}
	c, err := ex.OpenQueryCursorSpec(q, &bytes, nil, &RunSpec{Params: shapeParams, Batch: relstore.BatchOpts{Workers: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	for {
		if _, err := c.AppendNext(nil); err == io.EOF {
			break
		} else if err != nil {
			tb.Fatal(err)
		}
	}
	if walk.Snapshot() != bytes.Snapshot() || trees.Snapshot() != bytes.Snapshot() {
		tb.Fatalf("the walk did %+v, the tree program %+v, the byte program %+v: %s", walk.Snapshot(), trees.Snapshot(), bytes.Snapshot(), q.Body.SQL())
	}
}

func dumpOps(code []op) string {
	s := ""
	for _, o := range code {
		s += fmt.Sprintf("[%d %q jump=%d] ", o.kind, o.lit, o.jump)
	}
	return s
}

// TestAppendInt holds appendInt to strconv.AppendInt at every length's
// edges — 0, ±1, ±9, ±10, ±10^k and ±(10^k − 1) — and the extremes, into
// an empty slice and after bytes already held.
func TestAppendInt(t *testing.T) {
	xs := []int64{0, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(1); ; p *= 10 {
		xs = append(xs, p, -p, p-1, -(p - 1), p+1, -(p + 1))
		if p > math.MaxInt64/10 {
			break
		}
	}
	for _, x := range xs {
		for _, dst := range [][]byte{nil, []byte("<a>"), make([]byte, 2, 40)} {
			want := strconv.AppendInt(slices.Clone(dst), x, 10)
			if got := appendInt(slices.Clone(dst), x); !bytes.Equal(got, want) {
				t.Fatalf("appendInt(%q, %d) = %q, want %q", dst, x, got, want)
			}
		}
	}
}

// TestDigits8 holds digits8, the 8-byte store opInt writes an INT of up to
// eight digits with, to strconv: every number below 10^6, every 997th up to
// 10^8, and each side of every power of ten — the k digits of a k-digit
// number, once the word is shifted as opInt shifts it, and zeros after them.
func TestDigits8(t *testing.T) {
	check := func(u uint64) {
		k := decimalLen(u)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], digits8(u)>>(64-8*k))
		if want := strconv.FormatUint(u, 10); string(b[:k]) != want || strings.Trim(string(b[k:]), "\x00") != "" {
			t.Fatalf("digits8(%d) stores %q, want %q and zeros", u, b, want)
		}
	}
	for u := uint64(0); u < 1e6; u++ {
		check(u)
	}
	for u := uint64(1e6); u < 1e8; u += 997 {
		check(u)
	}
	for p := uint64(1); p <= 1e8; p *= 10 {
		check(p - 1)
		if p < 1e8 {
			check(p)
		}
	}
}

// TestEscapeClassInValidityByte holds the escape class a VARCHAR cell
// carries from its insert (TableSnap.TextWide) to the escapers themselves:
// for every one-byte string and every nasty value, the text bit is set
// exactly when EscapeText changes the string, and the attribute bit exactly
// when EscapeAttr does.
func TestEscapeClassInValidityByte(t *testing.T) {
	db := relstore.NewDB()
	tab, err := db.CreateTable("t", relstore.Column{Name: "s", Type: relstore.StringCol})
	if err != nil {
		t.Fatal(err)
	}
	values := slices.Clone(nasty)
	for b := range 256 {
		values = append(values, string([]byte{byte(b)}))
	}
	for _, v := range values {
		if _, err := tab.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	ts := db.Snapshot().Table("t")
	for id, v := range values {
		b, _, class := ts.TextWide(0, id)
		if string(b) != v {
			t.Fatalf("row %d reads %q, want %q", id, b, v)
		}
		text := class&xmltree.TextNeedsEscape != 0
		attr := class&xmltree.AttrNeedsEscape != 0
		if text != (xmltree.EscapeText(v) != v) || attr != (xmltree.EscapeAttr(v) != v) {
			t.Errorf("%q: class %02b, but EscapeText changes it: %v, EscapeAttr: %v", v, class, xmltree.EscapeText(v) != v, xmltree.EscapeAttr(v) != v)
		}
	}
}

// aggCells are what FuzzAggregateVsBoxed fills its INT, FLOAT and VARCHAR
// columns from: NULL in each; INTs past 2^53, where float64(x) rounds, and
// the extremes; FLOATs NaN, −0 and +0, infinities and 2^53+2; VARCHARs
// empty, numeric (padded, negative zero, out of range) and not numeric.
var (
	aggInts   = []relstore.Value{nil, int64(0), int64(1), int64(-1), int64(7), int64(1<<53 + 1), int64(-(1<<53 + 1)), int64(math.MaxInt64), int64(math.MinInt64)}
	aggFloats = []relstore.Value{nil, math.NaN(), math.Copysign(0, -1), 0.0, 1.5, -2.25, math.Inf(1), math.Inf(-1), float64(1<<53 + 2)}
	aggTexts  = []relstore.Value{nil, "", "12", " 3.5 ", "-0", "NaN", "abc", "1e400", "9007199254740993"}
)

// boxedAggregate is aggregate as it reads cell by cell: each cell boxed
// (TableSnap.Cell) and converted to a number as the document holds it (a
// FLOAT cell through the text it prints as), and min and max ordered by
// CompareValues.
func boxedAggregate(fn aggFn, ts *relstore.TableSnap, ord int, ids []int) (num float64, best int, isNum bool) {
	if fn == aggCount {
		return float64(len(ids)), -1, true
	}
	var total float64
	var count int
	var bestV relstore.Value
	best = -1
	for _, id := range ids {
		v := ts.Cell(ord, id)
		var x float64
		switch c := v.(type) {
		case nil:
			continue
		case int64:
			x = float64(c)
		case float64:
			x = xpath.StringToNumber(xpath.NumberToString(c))
		case string:
			x = xpath.StringToNumber(c)
		}
		count++
		total += x
		if best < 0 ||
			fn == aggMin && relstore.CompareValues(v, bestV) < 0 ||
			fn == aggMax && relstore.CompareValues(v, bestV) > 0 {
			best, bestV = id, v
		}
	}
	switch fn {
	case aggSum:
		return total, -1, true
	case aggAvg:
		if count > 0 {
			return total / float64(count), -1, true
		}
	case aggMin, aggMax:
		return 0, best, false
	}
	return 0, -1, false
}

// FuzzAggregateVsBoxed holds aggregate's typed loops to boxedAggregate, for
// every function over every column of a table decoded from cells (three
// bytes a row, each picking an INT, a FLOAT and a VARCHAR from aggCells) and
// a column it does not have, over its rows in heap order, reversed, or
// shuffled and cut (order). The answers must be equal to the bit: the same
// sum, the same NaN, the same signed zero, the same row. (The program and
// the tree walk share aggregate, so FuzzProgramVsTree cannot tell a wrong
// aggregate from a right one.)
func FuzzAggregateVsBoxed(f *testing.F) {
	f.Add([]byte{0, 0, 0}, uint8(0))
	f.Add([]byte{5, 1, 3, 6, 2, 2, 1, 3, 8, 4, 1, 7}, uint8(1))
	f.Add([]byte{7, 2, 4, 8, 3, 4, 5, 8, 5, 6, 1, 6, 0, 0, 1}, uint8(2))
	f.Add([]byte{2, 4, 1, 3, 6, 5, 8, 7, 3, 1, 8, 2, 4, 2, 7, 6, 1, 0}, uint8(7))
	f.Fuzz(func(t *testing.T, cells []byte, order uint8) {
		db := relstore.NewDB()
		tab, err := db.CreateTable("a",
			relstore.Column{Name: "i", Type: relstore.IntCol},
			relstore.Column{Name: "f", Type: relstore.FloatCol},
			relstore.Column{Name: "s", Type: relstore.StringCol})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r+2 < len(cells) && r < 3*256; r += 3 {
			if _, err := tab.Insert(aggInts[int(cells[r])%len(aggInts)],
				aggFloats[int(cells[r+1])%len(aggFloats)], aggTexts[int(cells[r+2])%len(aggTexts)]); err != nil {
				t.Fatal(err)
			}
		}
		ts := db.Snapshot().Table("a")
		ids := make([]int, ts.NumRows())
		for i := range ids {
			ids[i] = i
		}
		switch order % 3 {
		case 1:
			slices.Reverse(ids)
		case 2:
			rand.New(rand.NewSource(int64(order))).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			ids = ids[:len(ids)*int(order%4+1)/4]
		}
		for fn := aggNone; fn <= aggMax; fn++ {
			for ord := -1; ord < 3; ord++ {
				num, best, isNum := aggregate(fn, ts, ord, ids)
				wnum, wbest, wisNum := boxedAggregate(fn, ts, ord, ids)
				if math.Float64bits(num) != math.Float64bits(wnum) || best != wbest || isNum != wisNum {
					t.Fatalf("fn %d, column %d, rows %v: (%v, %d, %t), boxed (%v, %d, %t)", fn, ord, ids, num, best, isNum, wnum, wbest, wisNum)
				}
			}
		}
	})
}
