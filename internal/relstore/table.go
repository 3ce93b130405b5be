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

// Table is an in-memory heap table with optional B-tree secondary indexes.
type Table struct {
	Name string
	Cols []Column

	mu      sync.RWMutex
	rows    [][]Value
	colIdx  map[string]int
	indexes map[string]*BTree

	// commits is the owning database's commit counter (nil for a table that
	// was never registered with one); see DB.CommitSeq.
	commits *atomic.Int64
}

// committed bumps the owning database's commit counter. Callers invoke it
// inside the critical section that makes the write visible (under t.mu, or
// db.mu for CreateTable) — DB.Snapshot's exact stamp depends on it.
func (t *Table) committed() {
	if t.commits != nil {
		t.commits.Add(1)
	}
}

// NewTable creates a table with the given columns.
func NewTable(name string, cols ...Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relstore: table %q needs at least one column", name)
	}
	t := &Table{Name: name, Cols: cols, colIdx: map[string]int{}, indexes: map[string]*BTree{}}
	for i, c := range cols {
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
	return len(t.rows)
}

// coerce validates/converts v to the column type.
func coerce(v Value, ct ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch ct {
	case IntCol:
		switch x := v.(type) {
		case int64:
			return x, nil
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
			return x, nil
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
			return x, nil
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
	if len(values) != len(t.Cols) {
		return nil, fmt.Errorf("relstore: table %q expects %d values, got %d", t.Name, len(t.Cols), len(values))
	}
	row := make([]Value, len(values))
	for i, v := range values {
		cv, err := coerce(v, t.Cols[i].Type)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", t.Cols[i].Name, err)
		}
		row[i] = cv
	}
	return row, nil
}

// Insert appends a row (values in declared column order) and maintains all
// indexes. Returns the new row id.
func (t *Table) Insert(values ...Value) (int, error) {
	row, err := t.CoerceRow(values)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.rows)
	t.rows = append(t.rows, row)
	for col, idx := range t.indexes {
		ci := t.colIdx[col]
		if row[ci] != nil {
			idx.Insert(row[ci], id)
		}
	}
	t.committed()
	return id, nil
}

// Row returns the values of row id (shared slice; callers must not mutate).
func (t *Table) Row(id int) []Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= len(t.rows) {
		return nil
	}
	return t.rows[id]
}

// Value returns one cell.
func (t *Table) Value(id int, col string) Value {
	r := t.Row(id)
	i := t.ColIndex(col)
	if r == nil || i < 0 {
		return nil
	}
	return r[i]
}

// CreateIndex builds a B-tree index on the column (idempotent).
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
	idx := NewBTree()
	for id, row := range t.rows {
		if row[ci] != nil {
			idx.Insert(row[ci], id)
		}
	}
	t.indexes[col] = idx
	t.committed()
	return nil
}

// Index returns the index on col, or nil.
func (t *Table) Index(col string) *BTree {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[col]
}

// HasIndex reports whether col is indexed.
func (t *Table) HasIndex(col string) bool { return t.Index(col) != nil }

// DB is a named collection of tables.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table

	commits atomic.Int64
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
	t.commits = &db.commits
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
