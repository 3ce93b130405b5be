package sqlxml

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The SQL strategy's contract is byte identity with the tree plan: for any
// query, a cursor's AppendNext rows equal the reference walk's documents
// through Node.Serialize, and so do the trees of its tree program
// (ExecQueryParallelSpec). The tests below hold both emitters to that over
// a view built to hit every XMLExpr kind and every serializer corner.

// nasty is the cell-value corpus: everything the two escapers treat
// specially, the empty string, and multi-byte UTF-8.
var nasty = []string{
	`a<b`, `x&y`, `p>q`, `say "hi"`, "line1\nline2", "tab\there", "",
	"naïve — ünïcödé 日本語 🙂", `]]>`, `&amp;`, "\r\n mixed <&>\"\t",
}

// kindsDB builds three tables: o (driving, rows rows), i (inner, correlated on
// o.id) and j (innermost, correlated on i.w). texts fills the string cells
// round-robin; floats the float cells. Every o.id%5 = 4 has no inner rows
// (empty aggregates) and every o.id%5 = 3 a NULL note and NULL score.
func kindsDB(tb testing.TB, texts []string, floats []float64, rows int) *relstore.DB {
	tb.Helper()
	db := relstore.NewDB()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	o, err := db.CreateTable("o",
		relstore.Column{Name: "id", Type: relstore.IntCol},
		relstore.Column{Name: "name", Type: relstore.StringCol},
		relstore.Column{Name: "note", Type: relstore.StringCol},
		relstore.Column{Name: "score", Type: relstore.FloatCol})
	must(err)
	i, err := db.CreateTable("i",
		relstore.Column{Name: "oid", Type: relstore.IntCol},
		relstore.Column{Name: "label", Type: relstore.StringCol},
		relstore.Column{Name: "amt", Type: relstore.FloatCol},
		relstore.Column{Name: "w", Type: relstore.IntCol})
	must(err)
	j, err := db.CreateTable("j",
		relstore.Column{Name: "k", Type: relstore.IntCol},
		relstore.Column{Name: "tag", Type: relstore.StringCol})
	must(err)
	// v leads with a VARCHAR column, so a kernel that wrongly read column 0
	// as INT would fault on it.
	v, err := db.CreateTable("v",
		relstore.Column{Name: "word", Type: relstore.StringCol},
		relstore.Column{Name: "n", Type: relstore.IntCol})
	must(err)
	text := func(n int) relstore.Value { return texts[n%len(texts)] }
	float := func(n int) relstore.Value { return floats[n%len(floats)] }
	for id := 0; id < rows; id++ {
		var note, score relstore.Value = text(id + 3), float(id)
		if id%5 == 3 {
			note, score = nil, nil
		}
		_, err := o.Insert(int64(id), text(id), note, score)
		must(err)
		if id%5 == 4 {
			continue
		}
		for n := 0; n <= id%5+1; n++ {
			var amt relstore.Value = float(id + n + 1)
			if n == 2 {
				amt = nil
			}
			_, err := i.Insert(int64(id), text(id*3+n), amt, int64(n%3))
			must(err)
		}
	}
	for k := 0; k < 2; k++ {
		for n := 0; n < 2; n++ {
			_, err := j.Insert(int64(k), text(k*5+n+1))
			must(err)
		}
	}
	for n := 0; n < 3; n++ {
		_, err := v.Insert(text(n), int64(n))
		must(err)
	}
	must(i.CreateIndex("oid"))
	return db
}

// kindsQuery is the hand-built query covering every XMLExpr kind: attributes
// (column, literal, concat, scalar aggregate, a prefixed name, and a repeated
// name, which keeps the first position and the last value), a childless
// element, elements whose only content is NULL or empty, adjacent literal and
// column text, Cond with and without ELSE, XMLAgg with ORDER BY DESC and a
// nested XMLAgg, every scalar aggregate (over empty sets too), and text at
// document level.
func kindsQuery() *Query {
	inner := &SubQuery{Table: "i", CorrInner: "oid", CorrOuter: "id"}
	agg := func(fn, col string) XMLExpr {
		return &Element{Name: fn, Children: []XMLExpr{&ScalarAgg{Fn: fn, Col: col, Sub: inner}}}
	}
	return &Query{
		Table: "o",
		Body: &Concat{Items: []XMLExpr{
			&Element{
				Name: "r",
				Attrs: []Attr{
					{Name: "id", Value: &Column{Name: "id"}},
					{Name: "name", Value: &Column{Name: "name"}},
					{Name: "id", Value: &Concat{Items: []XMLExpr{&Literal{Text: "dup-"}, &Column{Name: "id"}}}},
					{Name: "mix", Value: &Concat{Items: []XMLExpr{
						&Literal{Text: `x"<`}, &Column{Name: "note"}, &ScalarAgg{Fn: "count", Sub: inner}}}},
					{Name: "p:q", Value: &Column{Name: "score"}},
					{Name: ":name", Value: &Literal{Text: "same-as-name"}},
				},
				Children: []XMLExpr{
					&Element{Name: "empty"},
					&Element{Name: "null", Children: []XMLExpr{&Column{Name: "note"}}},
					&Element{Name: "blank", Attrs: []Attr{{Name: "a", Value: &Column{Name: "note"}}},
						Children: []XMLExpr{&Column{Name: "name"}, &Literal{Text: ""}}},
					&Literal{Text: "lit<&>"},
					&Column{Name: "name"},
					&Column{Name: "score"},
					&Cond{
						Preds: []relstore.Pred{{Col: "id", Op: relstore.CmpGe, Val: int64(2)}},
						Then:  &Element{Name: "big", Children: []XMLExpr{&Column{Name: "id"}}},
						Else:  &Literal{Text: "small"},
					},
					&Cond{
						Preds: []relstore.Pred{{Col: "id", Op: relstore.CmpEq, Val: int64(1)}},
						Then:  &Element{Name: "one"},
					},
					&Element{Name: "items", Children: []XMLExpr{&Agg{Sub: &SubQuery{
						Table: "i", CorrInner: "oid", CorrOuter: "id", OrderBy: "amt", Descending: true,
						Body: &Element{Name: "i", Attrs: []Attr{{Name: "w", Value: &Column{Name: "w"}}},
							Children: []XMLExpr{
								&Column{Name: "label"},
								&Element{Name: "amt", Children: []XMLExpr{&Column{Name: "amt"}}},
								&Agg{Sub: &SubQuery{Table: "j", CorrInner: "k", CorrOuter: "w",
									Body: &Element{Name: "j", Children: []XMLExpr{&Column{Name: "tag"}}}}},
							}},
					}}}},
					agg("count", ""), agg("sum", "amt"), agg("avg", "amt"),
					agg("min", "amt"), agg("max", "amt"), agg("min", "label"), agg("max", "label"),
				},
			},
			&Literal{Text: "&tail"},
		}},
	}
}

func serializeDocs(docs []*xmltree.Node) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		var sb strings.Builder
		d.Serialize(&sb, xmltree.SerializeOptions{OmitDecl: true})
		out[i] = sb.String()
	}
	return out
}

// assertEmitMatchesTrees runs q as trees and as bytes through the streaming
// cursor at each worker count, and demands the walk's documents: node for
// node from the trees, their bytes from the bytes. It returns those bytes
// and the sink of every run.
func assertEmitMatchesTrees(tb testing.TB, ex *Executor, q *Query, workers ...int) ([]string, *relstore.Stats) {
	tb.Helper()
	walked := walkDocs(tb, ex.DB, q, nil, nil)
	want := serializeDocs(walked)
	same := func(label string, got []string) {
		tb.Helper()
		if len(got) != len(want) {
			tb.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				tb.Fatalf("%s: row %d differs:\n got  %q\n want %q", label, i, got[i], want[i])
			}
		}
	}
	var sink relstore.Stats
	for _, w := range workers {
		docs, err := ex.ExecQueryParallelSpec(q, w, &sink, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		assertSameDocs(tb, fmt.Sprintf("trees/workers=%d", w), docs, walked, q)
		c, err := ex.OpenQueryCursorSpec(q, &sink, nil, &RunSpec{Batch: relstore.BatchOpts{Workers: w}})
		if err != nil {
			tb.Fatal(err)
		}
		var streamed []string
		buf := []byte("kept")
		for {
			buf, err = c.AppendNext(buf[:4])
			if err == io.EOF {
				break
			}
			if err != nil {
				tb.Fatal(err)
			}
			streamed = append(streamed, string(buf[4:]))
		}
		if string(buf) != "kept" {
			tb.Fatalf("AppendNext at EOF returned %q, want dst unextended", buf)
		}
		same(fmt.Sprintf("bytes/workers=%d", w), streamed)
	}
	return want, &sink
}

func TestEmitMatchesTreesEveryKind(t *testing.T) {
	db := kindsDB(t, nasty, []float64{0, 1, -2.5, 1e6, 1e21, 3.0000001, -7}, 5)
	want, _ := assertEmitMatchesTrees(t, NewExecutor(db), kindsQuery(), 1, 2, 3)
	if len(want) != 5 {
		t.Fatalf("rows = %d, want 5", len(want))
	}
	// Spot checks that the view really reaches the corners it was built for
	// (row 0: name `a<b`, note `say "hi"`, two inner rows).
	for _, frag := range []string{
		`<r id="dup-0" name="same-as-name" mix="x&quot;&lt;say &quot;hi&quot;2" p:q="0">`,
		`<empty/>`, `<blank a="say &quot;hi&quot;">a&lt;b</blank>`, `lit&lt;&amp;&gt;a&lt;b0small`,
		`</r>&amp;tail`,
	} {
		if !strings.Contains(want[0], frag) {
			t.Errorf("row 0 lacks %q:\n%s", frag, want[0])
		}
	}
	if !strings.Contains(want[3], `<null/>`) || !strings.Contains(want[3], `p:q=""`) {
		t.Errorf("row 3 (NULL note and score) = %s", want[3])
	}
	if !strings.Contains(want[4], `<items/><count>0</count><sum>0</sum><avg/><min/><max/><min/><max/>`) {
		t.Errorf("row 4 (no inner rows) = %s", want[4])
	}
}

func TestEmitMatchesTreesDeptEmp(t *testing.T) {
	_, ex := setup(t)
	v := DeptEmpView()
	assertEmitMatchesTrees(t, ex, &Query{Table: v.Table, Body: v.Body}, 1, 2, 3)
}

// TestEmitMatchesTreesParallel: over more driving rows than
// relstore.MorselMinRows the workers construct every XMLExpr kind — as
// trees and as bytes — to the one-worker trees' bytes, through a full scan
// and through an index range.
func TestEmitMatchesTreesParallel(t *testing.T) {
	db := kindsDB(t, nasty, []float64{0, 1, -2.5, 1e6, 1e21, 3.0000001, -7}, relstore.MorselMinRows+5)
	ex := NewExecutor(db)
	q := kindsQuery()
	q.Where = []relstore.Pred{{Col: "id", Op: relstore.CmpGe, Val: int64(0)}}
	for _, path := range []string{"TABLE SCAN", "INDEX RANGE SCAN"} {
		if path == "INDEX RANGE SCAN" {
			if err := db.Table("o").CreateIndex("id"); err != nil {
				t.Fatal(err)
			}
		}
		if plan := ex.ExplainQuerySpec(q, nil); !strings.HasPrefix(plan, path) {
			t.Fatalf("plan %q, want a %s", plan, path)
		}
		want, sink := assertEmitMatchesTrees(t, ex, q, 3)
		if len(want) != relstore.MorselMinRows+5 || sink.Morsels == 0 {
			t.Fatalf("%s: %d rows, %d morsels: the parallel route did not run", path, len(want), sink.Morsels)
		}
	}
}

// FuzzEmitVsTree drives the every-kind query over random cell contents:
// whatever the strings and floats, bytes and trees must agree.
func FuzzEmitVsTree(f *testing.F) {
	f.Add("plain", "", 1.5, 2.0)
	f.Add(`<&>"`, "\n\t", 0.0, -1.0)
	f.Add("日本語", "a\x00b", 1e21, 1e-7)
	f.Add("]]>", "&#10;", math.Inf(1), math.NaN())
	f.Add("\xff\xfe", " lead", math.Copysign(0, -1), float64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2 float64) {
		db := kindsDB(t, []string{s1, s2, s1 + s2, ""}, []float64{f1, f2, f1 * f2}, 5)
		assertEmitMatchesTrees(t, NewExecutor(db), kindsQuery(), 1, 2)
	})
}

// oldValueText and oldTrimFloat are the fmt-based formatters the emitter
// replaced; the strconv forms must print the same bytes, but for a FLOAT
// cell, which prints as XPath's string() of its number.
func oldTrimFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func oldValueText(v relstore.Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return oldTrimFloat(x)
	}
	return fmt.Sprint(v)
}

func TestNumberFormattingMatchesFmt(t *testing.T) {
	values := []relstore.Value{
		int64(0), int64(-1), int64(42), int64(math.MaxInt64), int64(math.MinInt64),
		0.0, math.Copysign(0, -1), 1.0, -3.0, 1e6, 1e+06 + 0.5, 123456789.0, 1.5, -2.25, 0.1, 1e-7,
		1e21, -1e21, 9.007199254740993e15, float64(math.MaxInt64), math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
		"text", nil,
	}
	// Each value goes into the column of its type, and is read back the
	// way construction reads it: typed, from the vector.
	db := relstore.NewDB()
	tab, err := db.CreateTable("t", relstore.Column{Name: "i", Type: relstore.IntCol},
		relstore.Column{Name: "f", Type: relstore.FloatCol}, relstore.Column{Name: "s", Type: relstore.StringCol})
	if err != nil {
		t.Fatal(err)
	}
	ords := make([]int, len(values))
	for id, v := range values {
		row := make([]relstore.Value, 3)
		switch v.(type) {
		case int64:
			ords[id] = 0
		case float64:
			ords[id] = 1
		default:
			ords[id] = 2
		}
		row[ords[id]] = v
		if _, err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	ts := db.Snapshot().Table("t")
	var ec evalContext
	for id, v := range values {
		got, want := string(ec.cellAt(nil, &op{}, ts, ords[id], id)), oldValueText(v)
		if x, ok := v.(float64); ok {
			// A finite one reads back as itself; XPath 1.0 has no
			// lexical form for an infinity, and reads Infinity as NaN.
			want = xpath.NumberToString(x)
			if back := xpath.StringToNumber(got); back != x && !math.IsNaN(x) && !math.IsInf(x, 0) {
				t.Errorf("cellAt(%v) = %q, which XPath reads as %v", x, got, back)
			}
		}
		if got != want {
			t.Errorf("cellAt(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestScalarAggFormatting(t *testing.T) {
	db := relstore.NewDB()
	tab, err := db.CreateTable("t", relstore.Column{Name: "x", Type: relstore.FloatCol})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []relstore.Value{2.5, nil, 1e6, -4.0} {
		if _, err := tab.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	ts := db.Snapshot().Table("t")
	for _, tc := range []struct {
		fn   string
		ids  []int
		want string
	}{
		{"count", nil, "0"}, {"sum", nil, "0"}, {"avg", nil, ""}, {"min", nil, ""}, {"max", nil, ""},
		{"count", []int{0, 1, 2, 3}, "4"},
		{"sum", []int{0, 1, 2, 3}, oldTrimFloat(2.5 + 1e6 - 4)},
		{"avg", []int{0, 1, 2, 3}, oldTrimFloat((2.5 + 1e6 - 4) / 3)},
		{"min", []int{0, 1, 2, 3}, "-4"}, {"max", []int{0, 1, 2, 3}, "1000000"},
		{"min", []int{1}, ""}, {"sum", []int{1}, "0"},
	} {
		var got string
		var ec evalContext
		if num, best, isNum := aggregate(aggOf(tc.fn), ts, ts.ColIndex("x"), tc.ids); isNum {
			got = xpath.NumberToString(num)
		} else if best >= 0 {
			got = string(ec.cellAt(nil, &op{}, ts, ts.ColIndex("x"), best))
		}
		if got != tc.want {
			t.Errorf("%s over %v = %q, want %q", tc.fn, tc.ids, got, tc.want)
		}
	}
}
