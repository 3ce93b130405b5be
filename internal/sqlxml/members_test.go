package sqlxml

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/governor"
	"repro/internal/relstore"
)

// chunkSizes are the group sizes around the member loop's chunk: one member,
// one short of a chunk, a chunk, one past it, and two chunks and one.
var chunkSizes = []int{1, memberChunk - 1, memberChunk, memberChunk + 1, 2*memberChunk + 1}

// chunkDB builds g, one row per size of chunkSizes, and m, whose rows are
// the members of g's groups (m.g = g.id, indexed), inserted in a seeded
// random order, so that a group's ids are scattered over the heap. A
// member's n is its number in the group (NULL now and then), x a FLOAT that
// is NaN or NULL now and then, and s a VARCHAR that is empty, NULL, or text
// that needs escaping now and then.
func chunkDB(tb testing.TB) *relstore.DB {
	tb.Helper()
	db := relstore.NewDB()
	g, err := db.CreateTable("g", relstore.Column{Name: "id", Type: relstore.IntCol})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := db.CreateTable("m",
		relstore.Column{Name: "g", Type: relstore.IntCol},
		relstore.Column{Name: "n", Type: relstore.IntCol},
		relstore.Column{Name: "x", Type: relstore.FloatCol},
		relstore.Column{Name: "s", Type: relstore.StringCol})
	if err != nil {
		tb.Fatal(err)
	}
	var rows [][]relstore.Value
	for id, size := range chunkSizes {
		if _, err := g.Insert(int64(id)); err != nil {
			tb.Fatal(err)
		}
		for k := 0; k < size; k++ {
			var n, x, s relstore.Value = int64(k), float64(k) / 4, fmt.Sprintf("s%d", k)
			if k%17 == 5 {
				n = nil
			}
			switch k % 7 {
			case 0:
				x = math.NaN()
			case 1:
				x = nil
			}
			switch k % 5 {
			case 0:
				s = ""
			case 1:
				s = nil
			case 2:
				s = fmt.Sprintf(`a<b&"c"%d`, k)
			}
			rows = append(rows, []relstore.Value{int64(id), n, x, s})
		}
	}
	for _, i := range rand.New(rand.NewSource(7)).Perm(len(rows)) {
		if _, err := m.Insert(rows[i]...); err != nil {
			tb.Fatal(err)
		}
	}
	if err := m.CreateIndex("g"); err != nil {
		tb.Fatal(err)
	}
	return db
}

// chunkQuery is a group per row of g: an element with an attribute, and an
// XMLAgg of its members, each reading INT, FLOAT and VARCHAR cells, in
// content and in an attribute, under a CASE WHEN on n and on g (a column it
// reads nowhere else), and joining a subquery of its own (the members of
// the group whose id is its n, counted).
var chunkQuery = &Query{Table: "g", Body: &Element{Name: "g",
	Attrs: []Attr{{Name: "id", Value: &Column{Name: "id"}}},
	Children: []XMLExpr{&Agg{Sub: &SubQuery{Table: "m", CorrInner: "g", CorrOuter: "id",
		Body: &Element{Name: "m", Attrs: []Attr{{Name: "s", Value: &Column{Name: "s"}}}, Children: []XMLExpr{
			&Column{Name: "n"},
			&Element{Name: "x", Children: []XMLExpr{&Column{Name: "x"}}},
			&Element{Name: "c", Children: []XMLExpr{&ScalarAgg{Fn: "count", Sub: &SubQuery{Table: "m", CorrInner: "g", CorrOuter: "n"}}}},
			&Cond{Preds: []relstore.Pred{{Col: "n", Op: relstore.CmpGt, Val: int64(memberChunk)}, {Col: "g", Op: relstore.CmpGe, Val: int64(3)}},
				Then: &Element{Name: "big", Children: []XMLExpr{&Column{Name: "s"}}},
				Else: &Literal{Text: "-"}},
		}}}}}}}

// TestMemberLoopVsUnchunked holds the member loop, for groups on either side
// of a chunk boundary whose members are scattered over the heap, to the loop
// it replaced — the body run member by member, with no chunk and no fetch:
// the same bytes, the same governor ticks and the same counters (the
// unchunked loop tests each CASE WHEN member by member, the member loop a
// chunk at a time). Its fetches must have read exactly the group's cells of
// the columns whose cells the body reads — not g, which only its CASE WHEN
// reads, a chunk at a time of its own (their folded value is a sum, so
// chunking does not change it); and the program's bytes are the tree
// walk's on every route.
func TestMemberLoopVsUnchunked(t *testing.T) {
	db := chunkDB(t)
	assertProgramMatchesTrees(t, NewExecutor(db), chunkQuery)
	assertSameStats(t, NewExecutor(db), chunkQuery)

	p, err := Compile(db, chunkQuery)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(p.code, func(o op) bool { return o.kind == opAgg })
	if i < 0 {
		t.Fatal("no XMLAgg compiled")
	}
	sub := p.code[i].sub
	snap := db.Snapshot()
	ts := snap.Table("m")
	var want []int
	for _, col := range []string{"s", "n", "x"} {
		want = append(want, ts.ColIndex(col))
	}
	got := slices.Clone(sub.cols)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the body fetches columns %v, want %v (s, n, x)", sub.cols, want)
	}

	filters, err := p.bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		bytes string
		ticks uint64
		stats relstore.Stats
	}
	run := func(ids []int, loop func(ec *evalContext, f *frame) ([]byte, error)) (outcome, uint64) {
		var stats relstore.Stats
		gov := governor.New(context.Background())
		ec := &evalContext{snap: snap, stats: &stats, gov: gov, filters: filters}
		f := new(frame)
		ec.setList(f, ts, ids)
		buf, err := loop(ec, f)
		if err == nil {
			err = ec.flushTicks()
		}
		if err != nil {
			t.Fatal(err)
		}
		return outcome{string(buf), gov.Ticks(), stats.Snapshot()}, ec.fetched
	}
	for id, size := range chunkSizes {
		var ids []int
		for r := 0; r < ts.NumRows(); r++ {
			if x, _ := ts.Int(ts.ColIndex("g"), r); x == int64(id) {
				ids = append(ids, r)
			}
		}
		if len(ids) != size {
			t.Fatalf("group %d has %d members, want %d", id, len(ids), size)
		}
		chunked, fetched := run(ids, func(ec *evalContext, f *frame) ([]byte, error) {
			return ec.members(sub, f, nil)
		})
		unchunked, _ := run(ids, func(ec *evalContext, f *frame) ([]byte, error) {
			return ec.run(sub.body, f, 0, len(f.ids), nil)
		})
		if chunked != unchunked {
			t.Fatalf("%d members: the member loop gave\n %+v\nthe unchunked loop\n %+v", size, chunked, unchunked)
		}
		if all := ts.Fetch(sub.cols, ids); fetched != all {
			t.Fatalf("%d members: the member loop's fetches folded to %d, the group's cells to %d", size, fetched, all)
		}
	}
}
