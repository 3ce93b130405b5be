package relstore

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestSnapshotSharedUntilCommit: pins with no write between them return one
// snapshot; every kind of write — an insert, a created table, a created
// index — drops it at once (nothing retains it past the write), and the next
// pin is a new snapshot at a higher commit sequence that sees the write,
// while the superseded one still reads what it pinned.
func TestSnapshotSharedUntilCommit(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("t", Column{"id", IntCol})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tab, int64(1))
	prev := db.Snapshot()
	if db.Snapshot() != prev {
		t.Fatal("two pins with no write between them are different snapshots")
	}
	writes := []struct {
		name  string
		write func() error
		sees  func(*Snapshot) bool
	}{
		{"insert", func() error { _, err := tab.Insert(int64(2)); return err },
			func(s *Snapshot) bool { return s.Table("t").NumRows() == 2 }},
		{"create table", func() error { _, err := db.CreateTable("u", Column{"x", IntCol}); return err },
			func(s *Snapshot) bool { return s.Table("u") != nil }},
		{"create index", func() error { return tab.CreateIndex("id") },
			func(s *Snapshot) bool {
				return s.Table("t").IndexIDs(nil, "id", UnboundedBound, UnboundedBound) != nil
			}},
	}
	for _, w := range writes {
		rows := prev.Table("t").NumRows()
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if db.last.Load() != nil {
			t.Fatalf("%s: the database still holds the superseded snapshot", w.name)
		}
		snap := db.Snapshot()
		if snap == prev || snap.CommitSeq() <= prev.CommitSeq() {
			t.Fatalf("%s: pinned seq %d after seq %d (same snapshot: %t)", w.name, snap.CommitSeq(), prev.CommitSeq(), snap == prev)
		}
		if snap.CommitSeq() != db.CommitSeq() || !w.sees(snap) {
			t.Fatalf("%s: the new pin (seq %d, database at %d) misses the write", w.name, snap.CommitSeq(), db.CommitSeq())
		}
		if db.Snapshot() != snap {
			t.Fatalf("%s: the new pin is not shared", w.name)
		}
		if prev.Table("t").NumRows() != rows {
			t.Fatalf("%s: the superseded snapshot moved from %d rows", w.name, rows)
		}
		prev = snap
	}
}

// TestColumnSnapshotUnderAppends (run under -race): a pinned snapshot is its
// vector headers, and inserts racing the reader append until every vector —
// validity bytes, INT, FLOAT, the VARCHAR ends and arena — has moved to a
// new array. The pin reads exactly its rows, cell for cell, by Cell, by the
// typed readers and through a kernel scan, the whole time.
func TestColumnSnapshotUnderAppends(t *testing.T) {
	tab, err := NewTable("t", Column{"i", IntCol}, Column{"f", FloatCol}, Column{"s", StringCol})
	if err != nil {
		t.Fatal(err)
	}
	row := func(r int) []Value {
		if r%5 == 4 {
			return []Value{nil, nil, nil}
		}
		return []Value{int64(r), float64(r) / 2, strings.Repeat("x", r%7)}
	}
	const pinned = 100
	for r := range pinned {
		mustInsert(t, tab, row(r)...)
	}
	ts := tab.Snap()
	want := make([][]Value, pinned)
	for id := range want {
		want[id] = []Value{ts.Cell(0, id), ts.Cell(1, id), ts.Cell(2, id)}
	}
	scan := FullScanPlanAt(ts, []Pred{{Col: "i", Op: CmpGe, Val: int64(0)}})

	const writers, perWriter = 2, 2000
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range perWriter {
				if _, err := tab.Insert(int64(w*perWriter+r), 1.5, strings.Repeat("y", 64)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	read := func() {
		if ts.NumRows() != pinned {
			t.Fatalf("the pin grew to %d rows", ts.NumRows())
		}
		for id, cells := range want {
			for ord, c := range cells {
				if got := ts.Cell(ord, id); !reflect.DeepEqual(got, c) {
					t.Fatalf("row %d column %d: %v, pinned %v", id, ord, got, c)
				}
			}
			if x, ok := ts.Int(0, id); ok != (cells[0] != nil) || ok && x != cells[0] {
				t.Fatalf("row %d: Int = %d, %t; pinned %v", id, x, ok, cells[0])
			}
			if b, ok := ts.Text(2, id); ok != (cells[2] != nil) || ok && string(b) != cells[2] {
				t.Fatalf("row %d: Text = %q, %t; pinned %v", id, b, ok, cells[2])
			}
		}
		if n := len(collect(scan.OpenBatchAt(ts, nil, nil, BatchOpts{Workers: 1}))); n != pinned-pinned/5 {
			t.Fatalf("a kernel scan of the pin selected %d rows", n)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		read()
	}
	live := tab.Snap()
	if live.NumRows() != pinned+writers*perWriter {
		t.Fatalf("the table holds %d rows", live.NumRows())
	}
	moved := func(a, b []byte) bool { return &a[0] != &b[0] }
	for c := range live.cols {
		p, l := &ts.cols[c], &live.cols[c]
		if !moved(p.valid, l.valid) ||
			c == 0 && &p.ints[0] == &l.ints[0] ||
			c == 1 && &p.flts[0] == &l.flts[0] ||
			c == 2 && (&p.ends[0] == &l.ends[0] || !moved(p.text, l.text)) {
			t.Fatalf("column %d: the inserts did not move every vector", c)
		}
	}
	read()
}

// TestTextWideUnderAppends (run under -race): the 16-byte view TextWide
// gives of a short VARCHAR cell never reaches above the pin. The pin leaves
// the arena room to grow in place, so inserts racing the reader write the
// bytes right above the pinned end, while the reader reads every pinned
// cell through TextWide and copies each view's 16 bytes. A cell longer than
// 16 bytes, or one starting less than 16 bytes before the pinned arena's end
// (every cell that ends there, the last ones included), gets no view; every
// other cell's view holds the cell and then the pinned bytes after it.
func TestTextWideUnderAppends(t *testing.T) {
	tab, err := NewTable("t", Column{"s", StringCol})
	if err != nil {
		t.Fatal(err)
	}
	var cells []Value
	var arena []byte
	// Lengths 0 to 20 and a NULL every seventh row, until the arena's array
	// has room past its end for the writers to fill in place.
	for r := 0; r < 100 || cap(tab.cols[0].text)-len(tab.cols[0].text) < 64; r++ {
		var v Value = strings.Repeat(string(rune('a'+r%26)), r%21)
		if r%7 == 6 {
			v = nil
		}
		mustInsert(t, tab, v)
		cells = append(cells, v)
		s, _ := v.(string)
		arena = append(arena, s...)
	}
	ts := tab.Snap()
	if len(ts.cols[0].text) != len(arena) {
		t.Fatalf("the pinned arena holds %d bytes, want %d", len(ts.cols[0].text), len(arena))
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 500 {
				if _, err := tab.Insert(strings.Repeat("y", r%9)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	views := 0
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		start := 0
		for id, v := range cells {
			s, _ := v.(string)
			b, wide, _ := ts.TextWide(0, id)
			if string(b) != s {
				t.Fatalf("row %d: TextWide reads %q, pinned %q", id, b, s)
			}
			if want := len(s) <= 16 && start+16 <= len(arena); (wide != nil) != want {
				t.Fatalf("row %d: %d bytes at %d of a %d-byte pinned arena: a wide view %t, want %t", id, len(s), start, len(arena), wide != nil, want)
			}
			if wide != nil {
				if got := *wide; string(got[:]) != string(arena[start:start+16]) {
					t.Fatalf("row %d: the wide view holds %q, the arena %q", id, got, arena[start:start+16])
				}
				views++
			}
			start += len(s)
		}
	}
	wg.Wait()
	if views == 0 {
		t.Fatal("no cell got a wide view")
	}
}
