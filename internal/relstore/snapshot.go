package relstore

import "slices"

// MVCC snapshots. Tables are append-only — a published cell is never
// mutated, and Insert only ever appends to every column vector (column.go) —
// so a consistent point-in-time view of a table is nothing more than its
// vector headers captured under the table lock: their common length IS the
// committed row count at pin time, and every element below it is immutable.
// A TableSnap therefore costs one RLock to pin and nothing to hold; readers
// scan it entirely lock-free while writers keep appending (copy-on-write at
// the slice-header level: an append that grows a backing array publishes a
// new header, and one that reuses it writes only at or above the pinned
// length — different addresses, invisible to the snapshot). That holds for
// the VARCHAR arena and for the validity bytes too, which is why validity is
// a byte per row: a bitmap would share a word between the last pinned row
// and the next one appended.
//
// Secondary indexes need one extra step: a B-tree's nodes mutate in place
// on Insert (a split moves pairs to a new node, an insert shifts a leaf's
// pairs), so nothing a reader brings back may point into the tree. A pinned
// reader descends under the table's read lock and copies the ids below its
// pinned length into memory of its own (the caller's arena) before it
// releases the lock: a table assigns ids in append order, so those are
// exactly the rows committed before the snapshot. Afterwards it reads only
// its copy and the pinned vectors, lock-free.

// TableSnap is an immutable point-in-time view of one table. Cell reads are
// lock-free; the index reads (IndexIDs here, GroupJoin.Join in join.go) hold
// the table's read lock for the B-tree descent and the copy of its ids. The zero value is not
// usable; pin one with Table.Snap or DB.Snapshot.
type TableSnap struct {
	tab  *Table
	n    int   // committed rows at pin time
	cols []vec // headers captured under the table lock at pin time
}

// Snap pins the table's current committed state. The snapshot observes every
// Insert that completed before Snap returned and none that start after.
func (t *Table) Snap() *TableSnap {
	s := new(TableSnap)
	t.pin(s, nil)
	return s
}

// pin captures the table's vector headers into s, appending them to cols
// (which must have room for them, so that s's view of it stays put) and
// returning the extended slice.
func (t *Table) pin(s *TableSnap, cols []vec) []vec {
	start := len(cols)
	t.mu.RLock()
	cols = append(cols, t.cols...)
	s.tab, s.n = t, t.n
	t.mu.RUnlock()
	s.cols = cols[start:len(cols):len(cols)]
	return cols
}

// Table returns the live table this snapshot pins — for metadata (name,
// columns, index existence), never for row reads: the live table may have
// moved past the snapshot.
func (s *TableSnap) Table() *Table { return s.tab }

// Name returns the table name.
func (s *TableSnap) Name() string { return s.tab.Name }

// NumRows reports the committed row count at pin time.
func (s *TableSnap) NumRows() int { return s.n }

// ColIndex returns the ordinal of the named column, or -1. Column metadata
// is immutable after CreateTable, so this delegates to the live table.
func (s *TableSnap) ColIndex(name string) int { return s.tab.ColIndex(name) }

// ColType returns the type of the named column.
func (s *TableSnap) ColType(name string) (ColType, bool) { return s.tab.ColType(name) }

// Value returns one cell as of the snapshot, by column name — lock-free,
// unlike the live Table.Value.
func (s *TableSnap) Value(id int, col string) Value { return s.Cell(s.ColIndex(col), id) }

// HasIndex reports whether col is indexed. Index creation is additive (an
// index built after the pin still covers every pinned row), so consulting
// the live table is safe.
func (s *TableSnap) HasIndex(col string) bool { return s.tab.HasIndex(col) }

// IndexIDs appends to dst the row ids in the bounded interval on col that
// were committed before the snapshot, and with nan those of a FLOAT
// column's NaN key (AccessPlan.NaN), ascending (row-id order is heap order,
// which keeps index-path output deterministic). The ids are copied under
// the table's read lock, which the B-tree descent needs because Insert
// rewrites tree nodes in place; a counting pass sizes dst first, so a copy
// grows it at most once. A missing index appends nothing.
func (s *TableSnap) IndexIDs(dst []int, col string, lo, hi Bound, nan bool) []int {
	start := len(dst)
	s.tab.mu.RLock()
	if idx := s.tab.indexes[col]; idx != nil {
		dst = idx.appendIDs(dst, lo, hi, nan, s.n)
	}
	s.tab.mu.RUnlock()
	if ids := dst[start:]; !slices.IsSorted(ids) {
		slices.Sort(ids) // several keys: their ids interleave
	}
	return dst
}

// Snapshot is a point-in-time view of the whole database: every table pinned
// at one moment. Runs and cursors pin a Snapshot when they start and read
// through it for their entire lifetime, so a scan, its correlated
// subqueries, and its scalar aggregates all observe the same committed
// state no matter how many inserts land mid-run.
//
// A Snapshot holds no locks and needs no explicit release — dropping the
// last reference frees it. It is immutable, so runs that start between the
// same two commits share one (DB.Snapshot). (The facade keeps a pins gauge
// for observability; that bookkeeping lives there, not here.)
type Snapshot struct {
	db   *DB
	seq  int64
	taps map[string]*TableSnap
}

// Snapshot pins every table in the database. Tables created after the pin
// are invisible to it (Table returns nil), exactly like rows inserted after
// the pin.
//
// Until the next write the answer does not change, so the last pin is
// returned again for as long as the commit counter still reads its seq: a
// run that starts on an idle database allocates nothing to pin. The write
// that moves the counter drops the shared pin (Table.committed), and so does
// the next fresh pin, which replaces it: a superseded snapshot is never
// served and never kept alive by the database.
func (db *DB) Snapshot() *Snapshot {
	if s := db.last.Load(); s != nil && s.seq == db.commits.Load() {
		return s
	}
	// Every write bumps the counter inside the critical section that makes it
	// visible, and the pin takes those locks: a counter that reads the same
	// after the pin as before means the snapshot holds exactly the writes
	// numbered <= seq. A write that raced the pin moves it; pin again.
	for {
		seq := db.commits.Load()
		db.mu.RLock()
		// One allocation holds every table's view and one every vector
		// header, however many tables there are.
		snaps := make([]TableSnap, len(db.tables))
		ncols := 0
		for _, t := range db.tables {
			ncols += len(t.Cols)
		}
		cols := make([]vec, 0, ncols)
		taps := make(map[string]*TableSnap, len(db.tables))
		i := 0
		for name, t := range db.tables {
			cols = t.pin(&snaps[i], cols)
			taps[name] = &snaps[i]
			i++
		}
		db.mu.RUnlock()
		if db.commits.Load() != seq {
			continue
		}
		s := &Snapshot{db: db, seq: seq, taps: taps}
		db.last.Store(s)
		// A write that bumped the counter since the check above may have
		// dropped the shared pin before this store landed: take it back out.
		if db.commits.Load() != seq {
			db.last.CompareAndSwap(s, nil)
		}
		return s
	}
}

// CommitSeq is the data version the snapshot was pinned at (DB.CommitSeq read
// at pin time): what a result computed from this snapshot may be cached under,
// because a reader that later observes the same version is owed nothing newer.
func (s *Snapshot) CommitSeq() int64 { return s.seq }

// Table returns the pinned view of the named table, or nil if the table did
// not exist when the snapshot was taken.
func (s *Snapshot) Table(name string) *TableSnap { return s.taps[name] }

// DB returns the live database this snapshot was pinned from.
func (s *Snapshot) DB() *DB { return s.db }
