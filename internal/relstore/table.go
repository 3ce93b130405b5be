package relstore

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// ColType is the declared type of a column.
type ColType uint8

// Column types.
const (
	IntCol ColType = iota
	FloatCol
	StringCol
)

// String names the column type in DDL style.
func (t ColType) String() string {
	switch t {
	case IntCol:
		return "INT"
	case FloatCol:
		return "FLOAT"
	default:
		return "VARCHAR"
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Table is an in-memory columnar heap table (column.go) with optional B-tree
// secondary indexes.
type Table struct {
	Name string
	Cols []Column

	mu      sync.RWMutex
	cols    []vec // one per column, in declared order
	n       int   // rows
	colIdx  map[string]int
	indexes map[string]index

	// db is the owning database (nil for a table that was never registered
	// with one): its commit counter and shared pin; see DB.CommitSeq.
	db *DB
}

// committed bumps the owning database's commit counter and drops the pin
// DB.Snapshot shares, which no longer holds every write. Callers invoke it
// inside the critical section that makes the write visible (under t.mu, or
// db.mu for CreateTable) — DB.Snapshot's exact stamp depends on it.
func (t *Table) committed() {
	if t.db != nil {
		t.db.commits.Add(1)
		t.db.last.Store(nil)
	}
}

// NewTable creates a table with the given columns.
func NewTable(name string, cols ...Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relstore: table %q needs at least one column", name)
	}
	t := &Table{Name: name, Cols: cols, cols: make([]vec, len(cols)), colIdx: map[string]int{}, indexes: map[string]index{}}
	for i, c := range cols {
		t.cols[i].typ = c.Type
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("relstore: duplicate column %q in table %q", c.Name, name)
		}
		t.colIdx[c.Name] = i
	}
	return t, nil
}

// ColIndex returns the ordinal of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// ColType returns the type of the named column.
func (t *Table) ColType(name string) (ColType, bool) {
	i := t.ColIndex(name)
	if i < 0 {
		return 0, false
	}
	return t.Cols[i].Type, true
}

// NumRows reports the row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// coerce validates/converts v to the column type. A value already of the
// column's type is returned as it came, without boxing it again.
func coerce(v Value, ct ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch ct {
	case IntCol:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
		case float64:
			return int64(x), nil
		case string:
			n, err := strconv.ParseInt(x, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("relstore: %q is not an INT", x)
			}
			return n, nil
		}
	case FloatCol:
		switch x := v.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		case string:
			f, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return nil, fmt.Errorf("relstore: %q is not a FLOAT", x)
			}
			return f, nil
		}
	case StringCol:
		switch x := v.(type) {
		case string:
			return v, nil
		case int64:
			return strconv.FormatInt(x, 10), nil
		case int:
			return strconv.Itoa(x), nil
		case float64:
			return strconv.FormatFloat(x, 'g', -1, 64), nil
		}
	}
	return nil, fmt.Errorf("relstore: cannot store %T in a %s column", v, ct)
}

// CoerceRow validates arity and converts each value to its declared column
// type, returning the storable row without inserting it. The durability
// layer uses this to validate a row BEFORE logging it to the WAL — a row
// that would fail Insert must never reach the log, or replay would diverge
// from the original execution.
func (t *Table) CoerceRow(values []Value) ([]Value, error) {
	return t.coerceRow(make([]Value, 0, len(values)), values)
}

// coerceRow is CoerceRow into dst's storage.
func (t *Table) coerceRow(dst, values []Value) ([]Value, error) {
	if len(values) != len(t.Cols) {
		return nil, fmt.Errorf("relstore: table %q expects %d values, got %d", t.Name, len(t.Cols), len(values))
	}
	for i, v := range values {
		cv, err := coerce(v, t.Cols[i].Type)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", t.Cols[i].Name, err)
		}
		dst = append(dst, cv)
	}
	return dst, nil
}

// Insert appends a row (values in declared column order) to every column
// vector and maintains all indexes. Returns the new row id. The row is
// coerced in full before anything is appended, so a value that does not
// fit its column leaves the table as it was.
func (t *Table) Insert(values ...Value) (int, error) {
	var buf [8]Value // the coerced row, for tables of up to 8 columns
	row, err := t.coerceRow(buf[:0], values)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.n
	for i, v := range row {
		t.cols[i].push(v)
	}
	t.n++
	for col, idx := range t.indexes {
		if ci := t.colIdx[col]; row[ci] != nil {
			idx.add(&t.cols[ci], id)
		}
	}
	t.committed()
	return id, nil
}

// Value returns one cell (nil: NULL, no such column or row).
func (t *Table) Value(id int, col string) Value {
	return t.Snap().Cell(t.ColIndex(col), id)
}

// CreateIndex builds a B-tree index on the column (idempotent), in one pass
// over its cells sorted once.
func (t *Table) CreateIndex(col string) error {
	ci := t.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("relstore: no column %q in table %q", col, t.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	t.indexes[col] = buildIndex(&t.cols[ci], t.n)
	t.committed()
	return nil
}

// HasIndex reports whether col is indexed.
func (t *Table) HasIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[col] != nil
}

// DB is a named collection of tables.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table

	commits atomic.Int64
	// last is the most recent pin, which Snapshot returns again while commits
	// still reads its seq; the next write drops it.
	last atomic.Pointer[Snapshot]
}

// CommitSeq is the database's data version: a counter that moves forward on
// every applied write — each inserted row, each created table or index,
// live or replayed from the log. A write bumps it inside the critical section
// that makes the change visible, before the write returns, so a reader that starts
// after a write has returned can never observe a pre-write version. Reading
// it is one atomic load.
func (db *DB) CommitSeq() int64 { return db.commits.Load() }

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}}
}

// CreateTable creates and registers a table.
func (db *DB) CreateTable(name string, cols ...Column) (*Table, error) {
	t, err := NewTable(name, cols...)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("relstore: table %q already exists", name)
	}
	t.db = db
	db.tables[name] = t
	t.committed()
	return t, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
