package relstore

// Filter kernels. A residual predicate "col op constant" is compiled, once
// per opened scan and after its placeholders are bound, against the
// column's declared type and the constant's type into a kernel: a typed loop
// over the column's vector that appends the qualifying row ids of a run of
// candidates to a selection vector. The first kernel of a conjunction
// selects from the candidates (a dense range of heap rows, or an index
// range's ids); every later one filters that selection vector in place. No
// cell is boxed and no comparison dispatches on a type per row.
//
// A kernel answers exactly what Pred.Matches answers over the boxed cell,
// and every cross-type rule is settled at compile time:
//
//   - INT vs INT compares as int64; INT vs FLOAT, FLOAT vs INT and FLOAT vs
//     FLOAT compare as float64 (an INT beyond 2^53 rounds, as CompareValues
//     rounds it);
//   - a NaN on either side of a numeric comparison is unordered, as in IEEE
//     754 and XPath 1.0 §3.4: it satisfies != and nothing else, so a NaN
//     constant is the native float comparison too;
//   - incomparable types (VARCHAR vs a number, or any other constant type)
//     order by type name, also one answer per non-NULL row;
//   - a NULL cell, a nil constant and an unbound placeholder never match.
//
// A numeric kernel's cost does not depend on where the constant falls. A
// loop that branches on each comparison mispredicts about every other row
// when the constant sits in the middle of the column's values, and costs
// some five times what it costs at a constant near either end. Over 200 000
// INT cells uniform in 0..999, in morsel-sized runs (BenchmarkKernel,
// 2-vCPU Xeon, medians of 8 runs, ms):
//
//	         branch per row     branch-free
//	         const 7  const 500  const 7  const 500
//	=        0.21     1.33       0.22     0.18
//	<        0.26     1.33       0.27     0.28
//
// So a kernel writes every candidate's id to the selection vector and
// advances the output index by the row's match & valid, 0 or 1 (b2i is a
// SETcc); a numeric cell's valid is only ever 0 or 1 (vec.push; a VARCHAR
// cell's also carries its escape class, column.go). Equality also tests
// selBlock rows at once and skips the block on one branch when none
// matches: an equality filter is usually selective, so that branch goes the
// same way nearly every time and a skipped block writes nothing. A range
// predicate may keep any share of the rows; at half of them every block
// passes the test, which then costs without saving, so the other operators
// do not skip.

// opdMode is how a compiled constant compares with a cell.
type opdMode uint8

const (
	opdInt   opdMode = iota // INT cell vs int64 constant
	opdFloat                // INT or FLOAT cell, as float64, vs float64 constant
	opdText                 // VARCHAR cell vs string constant
	opdConst                // one answer, c, for every non-NULL cell
)

// operand is a constant compiled against a column type: cmpAt computes
// the comparison of a cell with it that Pred.Matches makes, from the vector.
type operand struct {
	mode opdMode
	i    int64
	f    float64
	s    string
	c    int
}

// compileOperand compiles v (non-nil, no placeholder) against a column of
// type typ.
func compileOperand(typ ColType, v Value) operand {
	switch typ {
	case IntCol:
		switch x := v.(type) {
		case int64:
			return operand{mode: opdInt, i: x}
		case float64:
			return operand{mode: opdFloat, f: x}
		}
		return operand{mode: opdConst, c: CompareValues(int64(0), v)}
	case FloatCol:
		switch x := v.(type) {
		case float64:
			return operand{mode: opdFloat, f: x}
		case int64:
			return operand{mode: opdFloat, f: float64(x)}
		}
		return operand{mode: opdConst, c: CompareValues(float64(0), v)}
	}
	if x, ok := v.(string); ok {
		return operand{mode: opdText, s: x}
	}
	return operand{mode: opdConst, c: CompareValues("", v)}
}

// unordered is the comparison result of a NaN against a number: it
// satisfies != and nothing else.
const unordered = 2

// cmpAt compares the (non-NULL) cell of row id of v with the constant: -1,
// 0, 1, or unordered.
func (o *operand) cmpAt(v *vec, id int) int {
	switch o.mode {
	case opdInt:
		return cmpOrdered(v.ints[id], o.i)
	case opdFloat:
		return cmpNumbers(v.num(id), o.f)
	case opdText:
		return cmpText(v.bytes(id), o.s)
	}
	return o.c
}

// cmpNumbers compares two numbers as a predicate does.
func cmpNumbers(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	}
	return unordered
}

// cmpKey compares an index key of a tree over the operand's column type. A
// NaN key, which the tree sorts first, is below every bound: that keeps the
// comparison monotone in key order, and a range scan never visits the NaN
// key, which satisfies no bound. The planner never bounds an index by a NaN
// constant.
func cmpKey[K key](o *operand, k K) int {
	switch x := any(k).(type) {
	case int64:
		if o.mode == opdInt {
			return cmpOrdered(x, o.i)
		}
		if o.mode == opdFloat {
			return compareFloats(float64(x), o.f)
		}
	case float64:
		if x != x {
			return -1
		}
		if o.mode == opdFloat {
			return compareFloats(x, o.f)
		}
	case string:
		if o.mode == opdText {
			return cmpOrdered(x, o.s)
		}
	}
	return o.c
}

func cmpOrdered[T int64 | string](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func cmpText(b []byte, s string) int {
	switch {
	case string(b) == s:
		return 0
	case string(b) < s:
		return -1
	}
	return 1
}

// kernel is one predicate compiled against its column.
type kernel struct {
	ord   int
	op    CmpOp
	never bool // no row can match: NULL constant, placeholder, missing column
	opd   operand
	// accept[c+1] is whether a comparison result c satisfies op.
	accept [unordered + 2]bool
}

// compileKernel compiles "column ord (of type typ) op val"; ord < 0 is a
// column the table does not have.
func compileKernel(typ ColType, ord int, op CmpOp, val Value) kernel {
	k := kernel{ord: ord, op: op}
	if _, param := val.(ParamValue); ord < 0 || val == nil || param {
		k.never = true
		return k
	}
	k.opd = compileOperand(typ, val)
	for c := -1; c <= unordered; c++ {
		k.accept[c+1] = accepts(op, c)
	}
	if k.opd.mode == opdConst && !k.accept[k.opd.c+1] {
		k.never = true
	}
	return k
}

// accepts reports whether a comparison result c (-1, 0, 1 or unordered)
// satisfies op.
func accepts(op CmpOp, c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c == -1
	case CmpLe:
		return c == -1 || c == 0
	case CmpGt:
		return c == 1
	case CmpGe:
		return c == 0 || c == 1
	}
	return false
}

// match tests one row.
func (k *kernel) match(v *vec, id int) bool {
	return !k.never && v.valid[id] != 0 && k.accept[k.opd.cmpAt(v, id)+1]
}

// sel appends to dst the candidates of ts that satisfy k: the rows
// lo..hi-1 when ids is nil, else the rows ids (ascending). dst may be
// ids[:0], which filters ids in place.
func (k *kernel) sel(dst []int, ts *TableSnap, lo, hi int, ids []int) []int {
	if k.never {
		return dst
	}
	v := &ts.cols[k.ord]
	switch k.opd.mode {
	case opdInt:
		return selNum(dst, v.ints, v.valid, k.opd.i, k.op, lo, hi, ids)
	case opdFloat:
		if v.typ == IntCol {
			return selNum(dst, v.ints, v.valid, k.opd.f, k.op, lo, hi, ids)
		}
		return selNum(dst, v.flts, v.valid, k.opd.f, k.op, lo, hi, ids)
	case opdConst:
		// Every non-NULL row matches (never is set otherwise).
		if ids == nil {
			for id, ok := range v.valid[lo:hi] {
				if ok != 0 {
					dst = append(dst, lo+id)
				}
			}
			return dst
		}
		for _, id := range ids {
			if v.valid[id] != 0 {
				dst = append(dst, id)
			}
		}
		return dst
	}
	return k.selText(dst, v, lo, hi, ids)
}

// selText is sel over a VARCHAR vector: each row's bytes are compared where
// they sit in the arena. Equality tests (the common filter) compare once.
func (k *kernel) selText(dst []int, v *vec, lo, hi int, ids []int) []int {
	s, eq := k.opd.s, k.op == CmpEq
	test := func(b []byte) bool {
		if eq {
			return string(b) == s
		}
		return k.accept[cmpText(b, s)+1]
	}
	if ids != nil {
		for _, id := range ids {
			if v.valid[id] != 0 && test(v.bytes(id)) {
				dst = append(dst, id)
			}
		}
		return dst
	}
	start := 0
	if lo > 0 {
		start = v.ends[lo-1]
	}
	for id, end := range v.ends[lo:hi] {
		if b := v.text[start:end]; v.valid[lo+id] != 0 && test(b) {
			dst = append(dst, lo+id)
		}
		start = end
	}
	return dst
}

// selNum is sel over a numeric vector xs compared, as U, with y. It writes
// the candidates' ids straight into dst's spare capacity when every
// candidate fits there, and otherwise selects through a stack buffer and
// appends what qualifies, so dst grows only as an append of the selected
// ids would grow it.
func selNum[T, U int64 | float64](dst []int, xs []T, valid []byte, y U, op CmpOp, lo, hi int, ids []int) []int {
	n := hi - lo
	if ids != nil {
		n = len(ids)
	}
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+selInto(dst[len(dst):len(dst)+n], xs, valid, y, op, lo, hi, ids)]
	}
	var buf [selChunk]int
	for c := 0; c < n; c += selChunk {
		e := min(c+selChunk, n)
		var k int
		if ids != nil {
			k = selInto(buf[:], xs, valid, y, op, 0, 0, ids[c:e])
		} else {
			k = selInto(buf[:], xs, valid, y, op, lo+c, lo+e, nil)
		}
		dst = append(dst, buf[:k]...)
	}
	return dst
}

const (
	// selBlock is how many rows selEq tests before its one branch.
	selBlock = 8
	// selChunk is selNum's stack buffer, in ids: big enough that a morsel
	// whose selection vector has little spare capacity (the common case at
	// low selectivity) takes few trips through it.
	selChunk = 256
)

// selInto writes the qualifying candidates' ids to out[:k], which has room
// for every candidate, and returns k. out may be ids, which it then filters
// in place.
func selInto[T, U int64 | float64](out []int, xs []T, valid []byte, y U, op CmpOp, lo, hi int, ids []int) int {
	switch {
	case ids != nil:
		return selIDs(out, xs, valid, y, op, ids)
	case op == CmpEq:
		return selEq(out, xs[lo:hi], valid[lo:hi], y, lo)
	}
	return selRange(out, xs[lo:hi], valid[lo:hi], y, op, lo)
}

// selEq is selInto for = over the rows base..base+len(xs)-1. It skips a
// block of selBlock rows none of which equals y on one branch, which an
// equality filter, usually selective, rarely takes the other way.
func selEq[T, U int64 | float64](out []int, xs []T, valid []byte, y U, base int) (k int) {
	valid = valid[:len(xs)]
	i := 0
	for ; i+selBlock <= len(xs); i += selBlock {
		b := (*[selBlock]T)(xs[i:])
		if eq(U(b[0]), y)|eq(U(b[1]), y)|eq(U(b[2]), y)|eq(U(b[3]), y)|
			eq(U(b[4]), y)|eq(U(b[5]), y)|eq(U(b[6]), y)|eq(U(b[7]), y) == 0 {
			continue
		}
		for j, x := range b {
			out[k] = base + i + j
			k += eq(U(x), y) & int(valid[i+j])
		}
	}
	for ; i < len(xs); i++ {
		out[k] = base + i
		k += eq(U(xs[i]), y) & int(valid[i])
	}
	return k
}

// selRange is selInto for every other operator over the rows
// base..base+len(xs)-1.
func selRange[T, U int64 | float64](out []int, xs []T, valid []byte, y U, op CmpOp, base int) (k int) {
	valid = valid[:len(xs)]
	switch op {
	case CmpNe:
		for i, x := range xs {
			out[k] = base + i
			k += ne(U(x), y) & int(valid[i])
		}
	case CmpLt:
		for i, x := range xs {
			out[k] = base + i
			k += lt(U(x), y) & int(valid[i])
		}
	case CmpLe:
		for i, x := range xs {
			out[k] = base + i
			k += le(U(x), y) & int(valid[i])
		}
	case CmpGt:
		for i, x := range xs {
			out[k] = base + i
			k += gt(U(x), y) & int(valid[i])
		}
	case CmpGe:
		for i, x := range xs {
			out[k] = base + i
			k += ge(U(x), y) & int(valid[i])
		}
	}
	return k
}

// selIDs is selInto over the rows ids.
func selIDs[T, U int64 | float64](out []int, xs []T, valid []byte, y U, op CmpOp, ids []int) (k int) {
	switch op {
	case CmpEq:
		for _, id := range ids {
			out[k] = id
			k += eq(U(xs[id]), y) & int(valid[id])
		}
	case CmpNe:
		for _, id := range ids {
			out[k] = id
			k += ne(U(xs[id]), y) & int(valid[id])
		}
	case CmpLt:
		for _, id := range ids {
			out[k] = id
			k += lt(U(xs[id]), y) & int(valid[id])
		}
	case CmpLe:
		for _, id := range ids {
			out[k] = id
			k += le(U(xs[id]), y) & int(valid[id])
		}
	case CmpGt:
		for _, id := range ids {
			out[k] = id
			k += gt(U(xs[id]), y) & int(valid[id])
		}
	case CmpGe:
		for _, id := range ids {
			out[k] = id
			k += ge(U(xs[id]), y) & int(valid[id])
		}
	}
	return k
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The comparisons, 1 when x (a cell) op y (a constant) holds. A NaN on
// either side satisfies != and nothing else, as the native operators have
// it.
func eq[U int64 | float64](x, y U) int { return b2i(x == y) }
func ne[U int64 | float64](x, y U) int { return b2i(x != y) }
func lt[U int64 | float64](x, y U) int { return b2i(x < y) }
func le[U int64 | float64](x, y U) int { return b2i(x <= y) }
func gt[U int64 | float64](x, y U) int { return b2i(x > y) }
func ge[U int64 | float64](x, y U) int { return b2i(x >= y) }

// conjInline is how many kernels a conj holds without allocating. Every
// conjunction the benchmark workloads open has one or two predicates; a
// slice allocated per open instead costs, per operation, 3.0 allocations
// on lib_scan (45.4 → 48.5), 2.2 on paper_figs, 1.6 on mixed_rw, 1.0 on
// serve_miss and none on serve_hit (EXPERIMENTS.md "Columnar heap").
const conjInline = 2

// conj is a conjunction of predicates compiled to kernels against one
// pinned table. The first conjInline kernels live in the value itself, so
// a conj may be copied but the slice kernels returns must not outlive the
// call that took it: it may point into the value it came from.
type conj struct {
	preds []Pred // as given, for EXPLAIN and the filter counters
	buf   [conjInline]kernel
	more  []kernel // every kernel, when there are more than fit in buf
}

// compileConj compiles the bound conjunction preds against ts.
func compileConj(ts *TableSnap, preds []Pred) conj {
	c := conj{preds: preds}
	if len(preds) > conjInline {
		c.more = make([]kernel, len(preds))
	}
	ks := c.kernels()
	for i, p := range preds {
		ord := ts.ColIndex(p.Col)
		var typ ColType
		if ord >= 0 {
			typ = ts.cols[ord].typ
		}
		ks[i] = compileKernel(typ, ord, p.Op, p.Val)
	}
	return c
}

// kernels returns the compiled kernels, in predicate order.
func (c *conj) kernels() []kernel {
	if c.more != nil {
		return c.more
	}
	return c.buf[:len(c.preds)]
}

// sel appends to dst the candidates (rows lo..hi-1 when ids is nil, else
// ids) that satisfy every predicate, ascending.
func (c *conj) sel(dst []int, ts *TableSnap, lo, hi int, ids []int) []int {
	ks := c.kernels()
	if len(ks) == 0 {
		if ids != nil {
			return append(dst, ids...)
		}
		for id := lo; id < hi; id++ {
			dst = append(dst, id)
		}
		return dst
	}
	start := len(dst)
	dst = ks[0].sel(dst, ts, lo, hi, ids)
	for i := 1; i < len(ks) && len(dst) > start; i++ {
		dst = dst[:start+len(ks[i].sel(dst[start:start], ts, 0, 0, dst[start:]))]
	}
	return dst
}
