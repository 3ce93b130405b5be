package sqlxml

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/relstore"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The reference constructor every program is held to: a plain walk of the
// expression per driving row, building the tree it denotes through the
// treeSink. A byte program's rows must be the walk's documents through
// Node.Serialize; a tree program's documents must be the walk's, node for
// node. The walk shares with the programs only what reads the snapshot —
// the subquery plans (group), the formatters (cellAt, aggregate) — and the
// sink, and it binds the run's parameters into its CASE WHENs itself.

// walker walks expressions over one run's context.
type walker struct {
	ec *evalContext
	// conds holds each Cond's predicates, bound and compiled against its
	// table at the first row it tests.
	conds map[*Cond][]relstore.Filter
}

// walkDocs constructs q's document for every driving row, serially, with
// the run's parameters params, counting into stats (nil: discarded).
func walkDocs(tb testing.TB, db *relstore.DB, q *Query, params map[string]relstore.Value, stats *relstore.Stats) []*xmltree.Node {
	tb.Helper()
	snap := db.Snapshot()
	ts := snap.Table(q.Table)
	if ts == nil {
		tb.Fatalf("no table %q", q.Table)
	}
	plan, err := (&RunSpec{Params: params}).planDriving(ts, q.Where)
	if err != nil {
		tb.Fatal(err)
	}
	w := &walker{ec: &evalContext{snap: snap, stats: stats, params: params}}
	defer w.ec.release()
	it := plan.OpenBatchAt(ts, stats, nil, relstore.BatchOpts{Workers: 1})
	batch := relstore.GetBatch(0)
	defer relstore.PutBatch(batch)
	var docs []*xmltree.Node
	for {
		if _, ok := it.NextBatch(batch); !ok {
			break
		}
		// The batch is the row list the body's subqueries group-join, as a
		// cursor's serial route installs it.
		w.ec.setRows(ts, batch.IDs)
		for i := range batch.IDs {
			w.ec.setPos(i)
			var sink treeSink
			sink.open()
			if err := w.eval(&sink, q.Body, &w.ec.driving); err != nil {
				tb.Fatalf("%v: %s", err, q.Body.SQL())
			}
			docs = append(docs, sink.close())
		}
	}
	if err := it.Err(); err != nil {
		tb.Fatal(err)
	}
	return docs
}

// eval walks expr for the current row of f into out.
func (w *walker) eval(out *treeSink, expr XMLExpr, f *frame) error {
	switch e := expr.(type) {
	case *Literal:
		out.text(e.Text)
	case *Column:
		w.cell(out, f.ts, f.ts.ColIndex(e.Name), f.id)
	case *Element:
		out.startElement(e.Name)
		// A repeated attribute name keeps the first one's position and the
		// last one's value (Node.SetAttr replaces in place), so only that
		// value is evaluated, there.
		for i, a := range e.Attrs {
			last := lastAttrNamed(e.Attrs, i)
			if last < 0 {
				continue
			}
			out.startAttr(a.Name)
			err := w.scalar(out, e.Attrs[last].Value, f)
			out.endAttr()
			if err != nil {
				return err
			}
		}
		for _, c := range e.Children {
			if err := w.eval(out, c, f); err != nil {
				return err
			}
		}
		out.endElement()
	case *Concat:
		for _, it := range e.Items {
			if err := w.eval(out, it, f); err != nil {
				return err
			}
		}
	case *Agg:
		inner, ids, err := w.ec.group(e.Sub, f)
		if err != nil {
			return err
		}
		body := w.ec.nest(f, inner, ids)
		for i := range ids {
			body.setPos(i)
			if err := w.eval(out, e.Sub.Body, body); err != nil {
				return err
			}
		}
	case *ScalarAgg:
		return w.aggregate(out, e, f)
	case *Cond:
		fs, err := w.condFilters(e, f.ts)
		if err != nil {
			return err
		}
		holds := true
		for i := range fs {
			holds = holds && fs[i].Matches(f.ts, f.id)
		}
		switch {
		case holds:
			return w.eval(out, e.Then, f)
		case e.Else != nil:
			return w.eval(out, e.Else, f)
		}
	default:
		return fmt.Errorf("sqlxml: unhandled expression %T", expr)
	}
	return nil
}

// scalar walks an attribute value (Column, Literal, ScalarAgg, or a Concat
// of those) into the attribute out has open.
func (w *walker) scalar(out *treeSink, expr XMLExpr, f *frame) error {
	switch e := expr.(type) {
	case *Literal, *Column, *ScalarAgg:
		return w.eval(out, e, f)
	case *Concat:
		for _, it := range e.Items {
			if err := w.scalar(out, it, f); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("sqlxml: attribute value must be scalar, got %T", expr)
}

// condFilters returns e's predicates with the run's parameters bound, compiled
// against ts, the table of the rows e tests.
func (w *walker) condFilters(e *Cond, ts *relstore.TableSnap) ([]relstore.Filter, error) {
	if fs, ok := w.conds[e]; ok {
		return fs, nil
	}
	preds, err := relstore.BindPreds(e.Preds, w.ec.params)
	if err != nil {
		return nil, err
	}
	fs := make([]relstore.Filter, len(preds))
	for i, p := range preds {
		ord := ts.ColIndex(p.Col)
		var typ relstore.ColType
		if ord >= 0 {
			typ = ts.Type(ord)
		}
		fs[i] = relstore.CompileFilter(typ, ord, p.Op, p.Val)
	}
	if w.conds == nil {
		w.conds = make(map[*Cond][]relstore.Filter)
	}
	w.conds[e] = fs
	return fs, nil
}

// cell adds the cell of row id in column ord of ts as text: NULL, or a
// column the table does not have (ord < 0), is no text.
func (w *walker) cell(out *treeSink, ts *relstore.TableSnap, ord, id int) {
	switch {
	case ord < 0:
	case ts.Type(ord) == relstore.StringCol:
		if b, ok := ts.Text(ord, id); ok {
			out.text(string(b))
		}
	default:
		out.text(string(w.ec.cellAt(nil, &op{attr: true}, ts, ord, id)))
	}
}

// aggregate adds a SQL aggregate over the rows e's subquery selects as text.
func (w *walker) aggregate(out *treeSink, e *ScalarAgg, f *frame) error {
	inner, ids, err := w.ec.group(e.Sub, f)
	if err != nil {
		return err
	}
	ord := inner.ColIndex(e.Col)
	num, best, isNum := aggregate(aggOf(e.Fn), inner, ord, ids)
	switch {
	case isNum:
		out.text(xpath.NumberToString(num))
	case best >= 0:
		w.cell(out, inner, ord, best)
	}
	return nil
}

// sameTree reports the first difference between got and want ("" for
// none), comparing kinds, names, attributes in order, and text, and demands
// of got that adjacent text is merged into one node, as the walk's sink
// merges it.
func sameTree(got, want *xmltree.Node) string {
	if got.Kind != want.Kind || got.Prefix != want.Prefix || got.Name != want.Name || got.Data != want.Data {
		return fmt.Sprintf("node %v %q:%q %q, want %v %q:%q %q", got.Kind, got.Prefix, got.Name, got.Data, want.Kind, want.Prefix, want.Name, want.Data)
	}
	if len(got.Attrs) != len(want.Attrs) {
		return fmt.Sprintf("<%s> has %d attributes, want %d", got.QName(), len(got.Attrs), len(want.Attrs))
	}
	for i := range got.Attrs {
		if d := sameTree(got.Attrs[i], want.Attrs[i]); d != "" {
			return fmt.Sprintf("<%s> attribute %d: %s", got.QName(), i, d)
		}
	}
	if len(got.Children) != len(want.Children) {
		return fmt.Sprintf("<%s> has %d children, want %d", got.QName(), len(got.Children), len(want.Children))
	}
	for i, c := range got.Children {
		if i > 0 && c.Kind == xmltree.TextNode && got.Children[i-1].Kind == xmltree.TextNode {
			return fmt.Sprintf("<%s> child %d: adjacent text not merged", got.QName(), i)
		}
		if c.Parent != got {
			return fmt.Sprintf("<%s> child %d: wrong parent", got.QName(), i)
		}
		if d := sameTree(c, want.Children[i]); d != "" {
			return fmt.Sprintf("<%s> child %d: %s", got.QName(), i, d)
		}
	}
	return ""
}

// assertSameDocs demands the walk's documents want from got, node for node.
// sameTree compares every field Node.Serialize reads, so the documents
// serialize to the same bytes too; they are serialized only to report a
// difference.
func assertSameDocs(tb testing.TB, label string, got, want []*xmltree.Node, q *Query) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d documents, want %d: %s", label, len(got), len(want), q.Body.SQL())
	}
	for i := range want {
		if d := sameTree(got[i], want[i]); d != "" {
			bytes := serializeDocs([]*xmltree.Node{got[i], want[i]})
			tb.Fatalf("%s: document %d differs: %s\n got  %q\n want %q\nbody: %s", label, i, d, bytes[0], bytes[1], q.Body.SQL())
		}
	}
}

// assertTreesMatchWalk demands the walk's documents from q's tree program
// at batch sizes 1, 7 and 1024 and 1 and 4 workers. It returns the morsels
// the 4-worker runs executed.
func assertTreesMatchWalk(tb testing.TB, ex *Executor, q *Query) int64 {
	tb.Helper()
	want := walkDocs(tb, ex.DB, q, shapeParams, nil)
	p, err := CompileTree(ex.DB, q)
	if err != nil {
		tb.Fatal(err)
	}
	var sink relstore.Stats
	for _, workers := range []int{1, 4} {
		for _, size := range []int{1, 7, 1024} {
			c, err := ex.OpenProgramCursorSpec(p, &sink, nil, &RunSpec{Params: shapeParams, Batch: relstore.BatchOpts{BatchSize: size, Workers: workers}})
			if err != nil {
				tb.Fatal(err)
			}
			got, err := c.drain()
			if err != nil {
				tb.Fatal(err)
			}
			assertSameDocs(tb, fmt.Sprintf("workers=%d batch=%d", workers, size), got, want, q)
		}
	}
	return sink.Morsels
}

// FuzzTreeProgramVsWalk: for any generated body, the tree program builds
// the walk's documents on every row of a driving table large enough for the
// morsel pool — and, in one-row mode, the one document whose XMLAgg groups
// that whole table, which a tree program never splits.
func FuzzTreeProgramVsWalk(f *testing.F) {
	addShapeSeeds(f)
	f.Fuzz(func(t *testing.T, shape []byte, oneRow bool) {
		db := bigShapeDB(t)
		g := &shapeGen{b: shape}
		if !oneRow {
			q := &Query{Table: "o", Body: g.content("o", 0, 0)}
			if morsels := assertTreesMatchWalk(t, NewExecutor(db), q); morsels == 0 {
				t.Fatalf("the parallel route did not run for %s", q.Body.SQL())
			}
			return
		}
		q := g.oneRow()
		if morsels := assertTreesMatchWalk(t, NewExecutor(db), q); morsels != 0 {
			t.Fatalf("a tree program split a group: %d morsels for %s", morsels, q.Body.SQL())
		}
	})
}

// TestWrongPullIsAnError: a cursor's program fixes how it is pulled, on the
// serial and on the parallel route alike — Next on a byte program's cursor
// and AppendNext on a tree program's are errors, and the stream goes on.
func TestWrongPullIsAnError(t *testing.T) {
	ex := NewExecutor(bigShapeDB(t))
	q := &Query{Table: "o", Body: &Element{Name: "e", Children: []XMLExpr{&Column{Name: "id"}}}}
	for _, workers := range []int{1, 4} {
		spec := func() *RunSpec {
			return &RunSpec{Batch: relstore.BatchOpts{Workers: workers}}
		}
		var sink relstore.Stats
		c, err := ex.OpenQueryCursorSpec(q, &sink, nil, spec())
		if err != nil {
			t.Fatal(err)
		}
		row, err := c.AppendNext(nil)
		if err != nil || string(row) != "<e>0</e>" {
			t.Fatalf("workers=%d: first row %q, %v", workers, row, err)
		}
		if doc, err := c.Next(); err == nil || doc != nil {
			t.Fatalf("workers=%d: Next on a byte cursor returned %v, %v", workers, doc, err)
		}
		if row, err = c.AppendNext(nil); err != nil || string(row) != "<e>1</e>" {
			t.Fatalf("workers=%d: row after the wrong pull %q, %v", workers, row, err)
		}
		c.Close()
		if (sink.Morsels > 0) != (workers > 1) {
			t.Fatalf("workers=%d: %d morsels", workers, sink.Morsels)
		}

		p, err := CompileTree(ex.DB, q)
		if err != nil {
			t.Fatal(err)
		}
		c, err = ex.OpenProgramCursorSpec(p, nil, nil, spec())
		if err != nil {
			t.Fatal(err)
		}
		if row, err := c.AppendNext([]byte("kept")); err == nil || err == io.EOF || string(row) != "kept" {
			t.Fatalf("workers=%d: AppendNext on a tree cursor returned %q, %v", workers, row, err)
		}
		doc, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got := serializeDocs([]*xmltree.Node{doc})[0]; got != "<e>0</e>" {
			t.Fatalf("workers=%d: first document %q", workers, got)
		}
		c.Close()
	}
}
