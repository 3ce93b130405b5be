package relstore

import (
	"bytes"
	"math"

	"repro/internal/xmltree"
)

// The heap is columnar. Each column of a table is one vector typed by the
// column's declared type, and no vector holds a pointer:
//
//   - INT cells are an []int64 and FLOAT cells an []float64;
//   - VARCHAR cells are one byte arena plus the end offset of every row's
//     bytes in it;
//   - every column has a validity byte per row: 0 is NULL (its typed slot
//     holds a zero that nothing reads).
//
// A validity byte is laid out as
//
//	bit 0      1: the cell is not NULL
//	bits 1–2   VARCHAR only: the cell's escape class (xmltree.EscapeClass),
//	           computed once at insert — whether its bytes need escaping as
//	           element text, as an attribute value, or in neither
//
// so an INT or FLOAT cell's byte is exactly 0 or 1, and a VARCHAR cell's
// is 0 or odd. Construction reads the class (TextClass) and copies a cell
// that needs no escaping with one append instead of scanning it per row.
// No reader is disturbed by the extra bits: every VARCHAR reader — the
// kernels' text and constant paths, index builds and probes, the joins,
// Fetch, Cell — tests the byte against 0, and the numeric kernels, which
// use it as the number 0 or 1 (selNum and the other branch-free loops in
// kernel.go, Filter.Mask), only ever read INT and FLOAT vectors.
//
// Validity is a byte, not a bit. Tables are append-only, and a pinned reader
// reads the rows below its pin while Insert appends above it: with a bitmap,
// the next row's bit would be written into a word the reader is still
// reading, which is a data race. With one byte per row an append writes only
// at or past the pinned length, exactly as it does for the typed slots and
// the arena (snapshot.go).
//
// Value — the boxed int64 / float64 / string — survives only at the edge:
// Insert and CoerceRow take it (and so do WAL records), predicates and bind
// parameters carry it as their constant, and Cell boxes one cell for
// Table.Value and for tests. Scans, kernels, construction (bytes and trees
// alike) and joins read the vectors.

// vec is one column's storage.
type vec struct {
	typ   ColType
	valid []byte    // valid[id] != 0: the cell of row id is not NULL (layout above)
	ints  []int64   // INT cells
	flts  []float64 // FLOAT cells
	ends  []int     // VARCHAR: row id's bytes end at text[ends[id]]
	text  []byte    // VARCHAR arena
}

// push appends one cell, already coerced to the column's type (or nil).
func (v *vec) push(x Value) {
	var ok byte
	if x != nil {
		ok = 1
	}
	switch v.typ {
	case IntCol:
		n, _ := x.(int64)
		v.ints = append(v.ints, n)
	case FloatCol:
		f, _ := x.(float64)
		v.flts = append(v.flts, f)
	default:
		s, _ := x.(string)
		if ok != 0 {
			ok |= xmltree.EscapeClass(s) << 1
		}
		v.text = append(v.text, s...)
		v.ends = append(v.ends, len(v.text))
	}
	v.valid = append(v.valid, ok)
}

// bytes returns row id's VARCHAR bytes where they sit in the arena.
func (v *vec) bytes(id int) []byte {
	start := 0
	if id > 0 {
		start = v.ends[id-1]
	}
	return v.text[start:v.ends[id]:v.ends[id]]
}

// num reads a numeric cell as float64 (an INT widened).
func (v *vec) num(id int) float64 {
	if v.typ == IntCol {
		return float64(v.ints[id])
	}
	return v.flts[id]
}

// cell boxes row id's cell.
func (v *vec) cell(id int) Value {
	if v.valid[id] == 0 {
		return nil
	}
	switch v.typ {
	case IntCol:
		return v.ints[id]
	case FloatCol:
		return v.flts[id]
	}
	return string(v.bytes(id))
}

// Cell returns the cell of row id in column ord as a Value (nil: NULL, a
// column the table does not have, or a row outside the snapshot). It boxes:
// it is for the API edge and for tests, never for a per-row path, which
// reads the typed readers below.
func (s *TableSnap) Cell(ord, id int) Value {
	if !s.has(ord, id) {
		return nil
	}
	return s.cols[ord].cell(id)
}

func (s *TableSnap) has(ord, id int) bool {
	return ord >= 0 && ord < len(s.cols) && id >= 0 && id < s.n
}

// Type returns the declared type of column ord.
func (s *TableSnap) Type(ord int) ColType { return s.cols[ord].typ }

// Int reads an INT cell: ok is false for NULL. ord must be an INT column
// of the table and id a row of the snapshot.
func (s *TableSnap) Int(ord, id int) (x int64, ok bool) {
	c := &s.cols[ord]
	return c.ints[id], c.valid[id] != 0
}

// Float reads a FLOAT cell: ok is false for NULL.
func (s *TableSnap) Float(ord, id int) (x float64, ok bool) {
	c := &s.cols[ord]
	return c.flts[id], c.valid[id] != 0
}

// Text reads a VARCHAR cell as a view of the arena: read-only, and valid for
// as long as the caller holds it (the arena below the pin never changes).
// ok is false for NULL.
func (s *TableSnap) Text(ord, id int) (b []byte, ok bool) {
	c := &s.cols[ord]
	if c.valid[id] == 0 {
		return nil, false
	}
	return c.bytes(id), true
}

// TextClass is Text with the cell's escape class (xmltree.EscapeClass),
// kept since its insert in its validity byte: a VARCHAR cell whose class
// does not name a context is copied into it as it stands.
func (s *TableSnap) TextClass(ord, id int) (b []byte, class uint8, ok bool) {
	c := &s.cols[ord]
	v := c.valid[id]
	if v == 0 {
		return nil, 0, false
	}
	return c.bytes(id), v >> 1, true
}

// Fetch loads the cells of rows ids in columns ords, a column at a time:
// every row's validity byte and typed slot, and for a VARCHAR column its end
// offset and the last byte of its text. It changes nothing. It exists for
// rows scattered over the heap: code that reads such rows one after another
// waits for each cache miss before it issues the next, while here each
// column is one loop whose loads do not depend on one another, so the
// processor keeps many misses in flight and the reads that follow hit the
// cache. The result is folded from every load. The caller must keep it
// (store it where the compiler cannot prove it dead): Go's compiler removes
// loads whose value nothing uses, and the fetch with them.
func (s *TableSnap) Fetch(ords, ids []int) uint64 {
	var acc uint64
	for _, ord := range ords {
		c := &s.cols[ord]
		valid := c.valid
		switch c.typ {
		case IntCol:
			ints := c.ints
			for _, id := range ids {
				acc += uint64(valid[id]) ^ uint64(ints[id])
			}
		case FloatCol:
			flts := c.flts
			for _, id := range ids {
				acc += uint64(valid[id]) ^ math.Float64bits(flts[id])
			}
		default:
			ends, text := c.ends, c.text
			for _, id := range ids {
				end := ends[id]
				acc += uint64(valid[id]) ^ uint64(end)
				if end > 0 {
					acc += uint64(text[end-1])
				}
			}
		}
	}
	return acc
}

// Num reads an INT or FLOAT cell as float64: ok is false for NULL.
func (s *TableSnap) Num(ord, id int) (x float64, ok bool) {
	c := &s.cols[ord]
	if c.valid[id] == 0 {
		return 0, false
	}
	return c.num(id), true
}

// Compare orders the cells of rows a and b in column ord as CompareValues
// orders them as Values — NULL first — without boxing either.
func (s *TableSnap) Compare(ord, a, b int) int {
	c := &s.cols[ord]
	if va, vb := c.valid[a] != 0, c.valid[b] != 0; !va || !vb {
		return boolCmp(va, vb)
	}
	switch c.typ {
	case IntCol:
		return cmpOrdered(c.ints[a], c.ints[b])
	case FloatCol:
		return compareFloats(c.flts[a], c.flts[b])
	}
	return bytes.Compare(c.bytes(a), c.bytes(b))
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}

// Filter is one predicate compiled, as a scan's kernel is, against its
// column's declared type and its constant's type, to test rows one at a
// time: a CASE WHEN of construction. The zero Filter matches nothing.
type Filter struct {
	k  kernel
	ok bool // compiled: the zero kernel reads column 0 as INT
}

// CompileFilter compiles "column ord (of type typ; ord < 0: a column the
// table does not have) op val".
func CompileFilter(typ ColType, ord int, op CmpOp, val Value) Filter {
	return Filter{k: compileKernel(typ, ord, op, val), ok: true}
}

// Matches reports whether row id of ts satisfies the predicate —
// Pred.Matches' answer, from the typed vector: a NULL cell, a nil constant
// and an unbound placeholder never match.
func (f *Filter) Matches(ts *TableSnap, id int) bool {
	return f.ok && ts.has(f.k.ord, id) && f.k.match(&ts.cols[f.k.ord], id)
}

// Mask tests rows ids of ts (at most 64, rows of the snapshot) at once: bit
// i of the result is Matches(ts, ids[i]). It is how construction evaluates
// a CASE WHEN for a chunk of XMLAgg members before it constructs them. An
// INT or FLOAT comparison runs as the scan kernels do, branch-free: every
// row's bit is its comparison & its validity byte (0 or 1 in a numeric
// vector), so the cost does not depend on which rows match. Any other
// predicate tests row by row.
func (f *Filter) Mask(ts *TableSnap, ids []int) uint64 {
	k := &f.k
	if !f.ok || k.never || k.ord >= len(ts.cols) {
		return 0
	}
	v := &ts.cols[k.ord]
	switch {
	case k.opd.mode == opdInt:
		return maskNum(v.ints, v.valid, k.opd.i, k.op, ids)
	case k.opd.mode == opdFloat && v.typ == IntCol:
		return maskNum(v.ints, v.valid, k.opd.f, k.op, ids)
	case k.opd.mode == opdFloat:
		return maskNum(v.flts, v.valid, k.opd.f, k.op, ids)
	}
	var m uint64
	for i, id := range ids {
		if k.match(v, id) {
			m |= 1 << i
		}
	}
	return m
}

// maskNum is Mask over a numeric vector xs compared, as U, with y.
func maskNum[T, U int64 | float64](xs []T, valid []byte, y U, op CmpOp, ids []int) (m uint64) {
	switch op {
	case CmpEq:
		for i, id := range ids {
			m |= uint64(eq(U(xs[id]), y)&int(valid[id])) << i
		}
	case CmpNe:
		for i, id := range ids {
			m |= uint64(ne(U(xs[id]), y)&int(valid[id])) << i
		}
	case CmpLt:
		for i, id := range ids {
			m |= uint64(lt(U(xs[id]), y)&int(valid[id])) << i
		}
	case CmpLe:
		for i, id := range ids {
			m |= uint64(le(U(xs[id]), y)&int(valid[id])) << i
		}
	case CmpGt:
		for i, id := range ids {
			m |= uint64(gt(U(xs[id]), y)&int(valid[id])) << i
		}
	case CmpGe:
		for i, id := range ids {
			m |= uint64(ge(U(xs[id]), y)&int(valid[id])) << i
		}
	}
	return m
}
