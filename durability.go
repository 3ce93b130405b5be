package xsltdb

// The durability layer: Open(WithDir(dir)) gives a Database whose mutations are
// recorded to a write-ahead log (internal/wal) before they apply to memory,
// and whose state after a crash is rebuilt by replaying that log. The
// record codec lives here: inserts use a compact hand-rolled binary
// encoding (they dominate log volume), view DDL rides on encoding/gob
// (views are deep XMLExpr trees, logged rarely).
//
// Replay determinism rests on one invariant, enforced in xsltdb.go's entry
// points: mutations are validated, then logged, then applied, all under one
// writeMu — so log order equals apply order equals row-id order, and a
// statement that cannot apply never reaches the log.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"time"

	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/wal"
)

// WAL record types. Values are part of the on-disk format — append new
// types, never renumber.
const (
	recCreateTable byte = 1
	recInsert      byte = 2
	recCreateIndex byte = 3
	recCreateView  byte = 4
	recReplaceView byte = 5
)

// Re-exported fsync policies for Open's WithSyncPolicy.
type SyncPolicy = wal.SyncPolicy

const (
	// SyncAlways fsyncs after every logged mutation: an acknowledged write
	// survives any crash.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs every WithSyncEvery mutations (group commit): a
	// crash may lose the unsynced tail, never a synced prefix.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves flushing to the OS — the throughput ceiling, with
	// crash durability to match.
	SyncNever = wal.SyncNever
)

// OpenOption configures Open.
type OpenOption interface {
	applyOpenOption(*openOptions)
}

type openOptionFunc func(*openOptions)

func (f openOptionFunc) applyOpenOption(o *openOptions) { f(o) }

type openOptions struct {
	dir     string
	walOpts wal.Options
	tenants map[string]TenantLimits
}

// WithDir makes the database durable: every mutation is recorded to a
// write-ahead log in dir before it applies, and Open replays that log on
// reopen. Without WithDir the database is purely in-memory.
func WithDir(dir string) OpenOption {
	return openOptionFunc(func(o *openOptions) { o.dir = dir })
}

// WithTenant pre-registers a tenant and its limits at open time; it is
// equivalent to calling RegisterTenant after Open.
func WithTenant(name string, lim TenantLimits) OpenOption {
	return openOptionFunc(func(o *openOptions) {
		if o.tenants == nil {
			o.tenants = map[string]TenantLimits{}
		}
		o.tenants[name] = lim
	})
}

// WithSyncPolicy selects when logged mutations reach stable storage
// (default SyncAlways).
func WithSyncPolicy(p SyncPolicy) OpenOption {
	return openOptionFunc(func(o *openOptions) { o.walOpts.Policy = p })
}

// WithSyncEvery sets the group-commit batch size under SyncInterval
// (default wal.DefaultSyncEvery).
func WithSyncEvery(n int) OpenOption {
	return openOptionFunc(func(o *openOptions) { o.walOpts.SyncEvery = n })
}

// WithSegmentBytes sets the WAL segment rotation threshold (default
// wal.DefaultSegmentBytes).
func WithSegmentBytes(n int64) OpenOption {
	return openOptionFunc(func(o *openOptions) { o.walOpts.SegmentBytes = n })
}

// Open is the single constructor. With no options it returns an empty
// in-memory database. With WithDir(dir) the database is durable: every
// mutation — CreateTable, Insert, CreateIndex, CreateXMLView,
// ReplaceXMLView — is logged to a write-ahead log in dir before it applies,
// so reopening after a crash recovers exactly the committed prefix: a torn
// tail record (a crash mid-write) is truncated away, never half-applied.
// Close the database to sync and release the log; reopening the same dir
// replays it. Durability, sync policy, and tenancy all flow through the
// same OpenOption path.
func Open(opts ...OpenOption) (*Database, error) {
	var oo openOptions
	for _, o := range opts {
		o.applyOpenOption(&oo)
	}
	d := newDatabase()
	for name, lim := range oo.tenants {
		d.tenants[name] = lim
	}
	if oo.dir == "" {
		return d, nil
	}
	oo.walOpts.OnAppend = func(t time.Duration) { d.metrics.walAppendSeconds.Observe(t.Seconds()) }
	oo.walOpts.OnFsync = func(t time.Duration) { d.metrics.walFsyncSeconds.Observe(t.Seconds()) }
	lg, rs, err := wal.Open(oo.dir, oo.walOpts, d.replayRecord)
	if err != nil {
		return nil, fmt.Errorf("xsltdb: open %s: %w", oo.dir, err)
	}
	d.wal = lg
	d.recovery = rs
	return d, nil
}

// RecoveryStats reports what WAL replay found when this database was
// opened: records replayed, torn bytes truncated, segments dropped, and the
// replay's wall time. Zero for an in-memory database.
func (d *Database) RecoveryStats() wal.RecoverStats { return d.recovery }

// replayRecord applies one recovered WAL record through the same in-memory
// paths the original mutation used. A record that fails to decode or apply
// aborts recovery: the log was CRC-clean, so failure means a codec bug or a
// log written by an incompatible version — silently skipping would serve a
// state no execution ever produced.
func (d *Database) replayRecord(typ byte, payload []byte) error {
	switch typ {
	case recCreateTable:
		name, cols, err := decodeCreateTable(payload)
		if err != nil {
			return err
		}
		_, err = d.rel.CreateTable(name, cols...)
		return err
	case recInsert:
		table, row, err := decodeInsert(payload)
		if err != nil {
			return err
		}
		t := d.rel.Table(table)
		if t == nil {
			return fmt.Errorf("insert into unknown table %q", table)
		}
		_, err = t.Insert(row...)
		return err
	case recCreateIndex:
		table, col, err := decodeCreateIndex(payload)
		if err != nil {
			return err
		}
		t := d.rel.Table(table)
		if t == nil {
			return fmt.Errorf("index on unknown table %q", table)
		}
		return t.CreateIndex(col)
	case recCreateView:
		v, err := decodeView(payload)
		if err != nil {
			return err
		}
		return d.applyCreateXMLView(v)
	case recReplaceView:
		v, err := decodeView(payload)
		if err != nil {
			return err
		}
		return d.applyReplaceXMLView(v)
	}
	return fmt.Errorf("unknown record type %d", typ)
}

// Log helpers — called by the facade entry points after validation, before
// apply, under writeMu.

func (d *Database) logCreateTable(name string, cols []TableColumn) error {
	return d.wal.Append(recCreateTable, encodeCreateTable(name, cols))
}

func (d *Database) logInsert(table string, row []relstore.Value) error {
	payload, err := encodeInsert(table, row)
	if err != nil {
		return err
	}
	return d.wal.Append(recInsert, payload)
}

func (d *Database) logCreateIndex(table, col string) error {
	var b []byte
	b = appendString(b, table)
	b = appendString(b, col)
	return d.wal.Append(recCreateIndex, b)
}

func (d *Database) logView(typ byte, v *ViewDef) error {
	payload, err := encodeView(v)
	if err != nil {
		return err
	}
	return d.wal.Append(typ, payload)
}

// --- binary codec (tables, inserts, indexes) ---

// Value tags of the insert encoding.
const (
	valNil    byte = 0
	valInt    byte = 1
	valFloat  byte = 2
	valString byte = 3
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

func encodeCreateTable(name string, cols []TableColumn) []byte {
	var b []byte
	b = appendString(b, name)
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = appendString(b, c.Name)
		b = append(b, byte(c.Type))
	}
	return b
}

func decodeCreateTable(b []byte) (string, []TableColumn, error) {
	name, b, err := readString(b)
	if err != nil {
		return "", nil, fmt.Errorf("create-table record: %w", err)
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return "", nil, fmt.Errorf("create-table record: truncated column count")
	}
	b = b[sz:]
	cols := make([]TableColumn, 0, n)
	for i := uint64(0); i < n; i++ {
		var cname string
		cname, b, err = readString(b)
		if err != nil || len(b) < 1 {
			return "", nil, fmt.Errorf("create-table record: truncated column %d", i)
		}
		cols = append(cols, TableColumn{Name: cname, Type: relstore.ColType(b[0])})
		b = b[1:]
	}
	return name, cols, nil
}

func encodeInsert(table string, row []relstore.Value) ([]byte, error) {
	var b []byte
	b = appendString(b, table)
	b = binary.AppendUvarint(b, uint64(len(row)))
	for i, v := range row {
		switch x := v.(type) {
		case nil:
			b = append(b, valNil)
		case int64:
			b = append(b, valInt)
			b = binary.AppendVarint(b, x)
		case float64:
			b = append(b, valFloat)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		case string:
			b = append(b, valString)
			b = appendString(b, x)
		default:
			// CoerceRow ran before us, so only coerced types reach here; a
			// miss is a facade bug, surfaced before anything hits the log.
			return nil, fmt.Errorf("xsltdb: cannot log value %d of type %T", i, v)
		}
	}
	return b, nil
}

func decodeInsert(b []byte) (string, []relstore.Value, error) {
	table, b, err := readString(b)
	if err != nil {
		return "", nil, fmt.Errorf("insert record: %w", err)
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return "", nil, fmt.Errorf("insert record: truncated value count")
	}
	b = b[sz:]
	row := make([]relstore.Value, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) < 1 {
			return "", nil, fmt.Errorf("insert record: truncated value %d", i)
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case valNil:
			row = append(row, nil)
		case valInt:
			x, sz := binary.Varint(b)
			if sz <= 0 {
				return "", nil, fmt.Errorf("insert record: truncated int value %d", i)
			}
			b = b[sz:]
			row = append(row, x)
		case valFloat:
			if len(b) < 8 {
				return "", nil, fmt.Errorf("insert record: truncated float value %d", i)
			}
			row = append(row, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case valString:
			var s string
			s, b, err = readString(b)
			if err != nil {
				return "", nil, fmt.Errorf("insert record: value %d: %w", i, err)
			}
			row = append(row, s)
		default:
			return "", nil, fmt.Errorf("insert record: unknown value tag %d", tag)
		}
	}
	return table, row, nil
}

func decodeCreateIndex(b []byte) (string, string, error) {
	table, b, err := readString(b)
	if err != nil {
		return "", "", fmt.Errorf("create-index record: %w", err)
	}
	col, _, err := readString(b)
	if err != nil {
		return "", "", fmt.Errorf("create-index record: %w", err)
	}
	return table, col, nil
}

// --- gob codec (view DDL) ---

// viewRecord wraps the ViewDef for gob: registering the wrapper (rather
// than encoding the interface-typed Body directly) keeps the stream
// self-describing under schema growth.
type viewRecord struct {
	Def *sqlxml.ViewDef
}

func init() {
	// XMLExpr implementers (pointer receivers — views hold pointers).
	gob.Register(&sqlxml.Element{})
	gob.Register(&sqlxml.Column{})
	gob.Register(&sqlxml.Literal{})
	gob.Register(&sqlxml.Concat{})
	gob.Register(&sqlxml.Agg{})
	gob.Register(&sqlxml.ScalarAgg{})
	gob.Register(&sqlxml.Cond{})
	gob.Register(&sqlxml.SubQuery{})
	// Concrete types a Pred.Val interface can hold.
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(relstore.ParamValue(""))
}

func encodeView(v *ViewDef) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(viewRecord{Def: v}); err != nil {
		return nil, fmt.Errorf("xsltdb: encoding view %q: %w", v.Name, err)
	}
	return buf.Bytes(), nil
}

func decodeView(b []byte) (*ViewDef, error) {
	var rec viewRecord
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("view record: %w", err)
	}
	if rec.Def == nil {
		return nil, fmt.Errorf("view record: empty definition")
	}
	return rec.Def, nil
}
