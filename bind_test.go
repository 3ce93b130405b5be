package xsltdb

// A request binds values into what earlier requests derived: its WithWhere
// text's lowering comes from the where memo, its snapshot is the one the last
// run pinned if nothing has committed since. These tests hold both to the
// answers a request that derived everything afresh would get.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/relstore"
)

// leafView exposes the row's name and, as the leaf <k>, the column col.
func leafView(col string) *ViewDef {
	return &ViewDef{Name: "kv", Table: "kv", Body: &XMLElement{
		Name: "row",
		Children: []XMLExpr{
			&XMLElement{Name: "k", Children: []XMLExpr{&XMLColumn{Name: col}}},
			&XMLElement{Name: "name", Children: []XMLExpr{&XMLColumn{Name: "name"}}},
		},
	}}
}

// memoEntries reports how many lowerings d's where memo holds.
func memoEntries(d *Database) int {
	d.wheres.mu.RLock()
	defer d.wheres.mu.RUnlock()
	return len(d.wheres.entries)
}

// TestWhereFollowsViewReplacement: the text `k = 1` means a = 1 while the
// view maps the leaf k to column a, and b = 1 once ReplaceXMLView maps it to
// b. A memo keyed by the text alone would keep selecting by a.
func TestWhereFollowsViewReplacement(t *testing.T) {
	d := NewDatabase()
	if err := d.CreateTable("kv",
		TableColumn{Name: "a", Type: IntCol},
		TableColumn{Name: "b", Type: IntCol},
		TableColumn{Name: "name", Type: StringCol}); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]relstore.Value{{int64(1), int64(2), "by-a"}, {int64(2), int64(1), "by-b"}} {
		if err := d.Insert("kv", r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateXMLView(leafView("a")); err != nil {
		t.Fatal(err)
	}
	ct, err := d.CompileTransform("kv", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	run := func(want string) {
		t.Helper()
		for i := 0; i < 2; i++ { // the second run is served by the memo
			res, err := ct.Run(context.Background(), WithWhere("k = 1"))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0] != "<hit>"+want+"</hit>" {
				t.Fatalf("run %d: rows %q, want the %s row", i, res.Rows, want)
			}
		}
		if n := memoEntries(d); n != 1 {
			t.Fatalf("memo holds %d lowerings, want 1", n)
		}
	}
	run("by-a")
	if err := d.ReplaceXMLView(leafView("b")); err != nil {
		t.Fatal(err)
	}
	run("by-b") // and the old view's lowering was evicted: one entry, not two
}

// TestWhereMemoIsBounded: ten times the memo's capacity of distinct texts
// leaves at most capacity entries, and the text lowered last is among them.
func TestWhereMemoIsBounded(t *testing.T) {
	d := newKeyedDB(t, 4)
	view := d.View("rows")
	var last string
	for i := 0; i < 10*whereMemoCap; i++ {
		last = fmt.Sprintf("@id = %d", i)
		preds, err := d.wheres.lower(view, last)
		if err != nil {
			t.Fatal(err)
		}
		if len(preds) != 1 || preds[0] != (relstore.Pred{Col: "id", Op: relstore.CmpEq, Val: int64(i)}) {
			t.Fatalf("%q lowered to %v", last, preds)
		}
	}
	if n := memoEntries(d); n > whereMemoCap {
		t.Fatalf("memo holds %d lowerings, capacity is %d", n, whereMemoCap)
	}
	d.wheres.mu.RLock()
	_, ok := d.wheres.entries[whereKey{view, last}]
	d.wheres.mu.RUnlock()
	if !ok {
		t.Fatalf("the last text lowered, %q, is not in the memo", last)
	}
}

// TestWhereMemoKeepsNoErrors: a text that does not lower fails the same way
// on every run and is never stored; a text that lowers to a column the table
// lacks is stored, and still fails every run, because the columns are
// checked against the run's pinned table, not remembered.
func TestWhereMemoKeepsNoErrors(t *testing.T) {
	d := newKeyedDB(t, 4)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	var first error
	for i := 0; i < 3; i++ {
		_, err := ct.Run(context.Background(), WithWhere("@id = = 1"))
		if !errors.Is(err, ErrBadRunOption) {
			t.Fatalf("run %d: err = %v, want ErrBadRunOption", i, err)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("run %d: err = %q, the first run's was %q", i, err, first)
		}
		if n := memoEntries(d); n != 0 {
			t.Fatalf("run %d: an invalid text left %d lowerings", i, n)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := ct.Run(context.Background(), WithWhere("nosuch = 1")); !errors.Is(err, ErrBadRunOption) {
			t.Fatalf("run %d: err = %v, want ErrBadRunOption for an unknown column", i, err)
		}
	}
	if n := memoEntries(d); n != 1 {
		t.Fatalf("memo holds %d lowerings, want the unknown column's one", n)
	}
	// Strict binding runs on every request too: the lowering is shared, the
	// parameter is not.
	if _, err := ct.Run(context.Background(), WithWhere("@id = $id")); !errors.Is(err, ErrUnboundParam) {
		t.Fatalf("err = %v, want ErrUnboundParam", err)
	}
	res, err := ct.Run(context.Background(), WithWhere("@id = $id"), WithParam("id", 2))
	if err != nil || len(res.Rows) != 1 || res.Rows[0] != "<hit>name-2</hit>" {
		t.Fatalf("bound run: %q, %v", res.Rows, err)
	}
	if _, err := ct.Run(context.Background(), WithWhere("@id = $id")); !errors.Is(err, ErrUnboundParam) {
		t.Fatalf("after a bound run: err = %v, want ErrUnboundParam", err)
	}
}

// TestWhereMemoConcurrentRuns: runs with distinct texts and distinct
// parameters share the memo and, between commits, one snapshot — run it
// under -race. Each must select exactly its own window.
func TestWhereMemoConcurrentRuns(t *testing.T) {
	const n, workers, runs = 64, 4, 50
	d := newKeyedDB(t, n)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			width := 3 + w
			where := fmt.Sprintf("@id >= $lo and @id < $lo2 and name != 'x%d'", w) // a text of its own
			for i := 0; i < runs; i++ {
				lo := (w*runs + i) % (n - width)
				res, err := ct.Run(context.Background(), WithWhere(where), WithParam("lo", lo), WithParam("lo2", lo+width))
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != width || res.Rows[0] != fmt.Sprintf("<hit>name-%d</hit>", lo) {
					t.Errorf("worker %d, lo %d: rows %q", w, lo, res.Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := memoEntries(d); got != workers {
		t.Fatalf("memo holds %d lowerings, want one per worker's text", got)
	}
}

// TestReplayedRecordForcesNewPin: a WAL record replayed into a live database
// is a write like any other — the shared snapshot is dropped and the next
// pin stamps a higher commit sequence and sees the record.
func TestReplayedRecordForcesNewPin(t *testing.T) {
	d := newKeyedDB(t, 3)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	prev := d.Rel().Snapshot()
	if d.Rel().Snapshot() != prev {
		t.Fatal("two pins with no write between them are different snapshots")
	}
	insert, err := encodeInsert("row", []relstore.Value{int64(3), "name-3"})
	if err != nil {
		t.Fatal(err)
	}
	index := appendString(appendString(nil, "row"), "name")
	for _, rec := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"create table", recCreateTable, encodeCreateTable("other", []TableColumn{{Name: "x", Type: IntCol}})},
		{"insert", recInsert, insert},
		{"create index", recCreateIndex, index},
	} {
		if err := d.replayRecord(rec.typ, rec.payload); err != nil {
			t.Fatalf("%s: %v", rec.name, err)
		}
		snap := d.Rel().Snapshot()
		if snap == prev || snap.CommitSeq() <= prev.CommitSeq() {
			t.Fatalf("%s: pinned seq %d after seq %d (same snapshot: %t)", rec.name, snap.CommitSeq(), prev.CommitSeq(), snap == prev)
		}
		res, err := ct.Run(context.Background(), WithWhere("@id = 3"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DataVersion != snap.CommitSeq() {
			t.Fatalf("%s: run read version %d, the shared pin is %d", rec.name, res.Stats.DataVersion, snap.CommitSeq())
		}
		if want := rec.typ != recCreateTable; (len(res.Rows) == 1) != want {
			t.Fatalf("%s: rows %q", rec.name, res.Rows)
		}
		prev = snap
	}
}
