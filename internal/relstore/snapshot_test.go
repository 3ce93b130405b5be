package relstore

import "testing"

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
			func(s *Snapshot) bool { return s.Table("t").IndexIDs("id", UnboundedBound, UnboundedBound) != nil }},
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
