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
//   - a NaN on either side compares equal to everything, so a NaN constant
//     makes the comparison one constant answer for every non-NULL row;
//   - incomparable types (VARCHAR vs a number, or any other constant type)
//     order by type name, also one answer per non-NULL row;
//   - a NULL cell, a nil constant and an unbound placeholder never match.

// opdMode is how a compiled constant compares with a cell.
type opdMode uint8

const (
	opdInt   opdMode = iota // INT cell vs int64 constant
	opdFloat                // INT or FLOAT cell, as float64, vs float64 constant
	opdText                 // VARCHAR cell vs string constant
	opdConst                // one answer, c, for every non-NULL cell
)

// operand is a constant compiled against a column type: cmpAt computes
// CompareValues(cell, constant) from the vector.
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
			return floatOperand(x)
		}
		return operand{mode: opdConst, c: CompareValues(int64(0), v)}
	case FloatCol:
		switch x := v.(type) {
		case float64:
			return floatOperand(x)
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

func floatOperand(f float64) operand {
	if f != f {
		return operand{mode: opdConst} // NaN: equal to every number
	}
	return operand{mode: opdFloat, f: f}
}

// cmpAt compares the (non-NULL) cell of row id of v with the constant.
func (o *operand) cmpAt(v *vec, id int) int {
	switch o.mode {
	case opdInt:
		return cmpOrdered(v.ints[id], o.i)
	case opdFloat:
		return compareFloats(v.num(id), o.f)
	case opdText:
		return cmpText(v.bytes(id), o.s)
	}
	return o.c
}

// cmpKey compares an index key of a tree over the operand's column type. A
// NaN key, which the tree sorts first, is below every bound: that keeps the
// comparison monotone in key order, where compareFloats would make a NaN
// equal to every bound. (A range scan therefore never visits the NaN key;
// an index path looks it up on its own when its predicates accept it,
// AccessPlan.NaN. The planner never bounds an index by a NaN constant.)
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
	accept [3]bool
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
	for c := -1; c <= 1; c++ {
		var ok bool
		switch op {
		case CmpEq:
			ok = c == 0
		case CmpNe:
			ok = c != 0
		case CmpLt:
			ok = c < 0
		case CmpLe:
			ok = c <= 0
		case CmpGt:
			ok = c > 0
		case CmpGe:
			ok = c >= 0
		}
		k.accept[c+1] = ok
	}
	if k.opd.mode == opdConst && !k.accept[k.opd.c+1] {
		k.never = true
	}
	return k
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

// selNum is sel over a numeric vector xs compared, as U, with y. The
// comparisons are written so that a NaN cell compares equal to y, as
// compareFloats has it: x == y is !(x < y) && !(x > y).
func selNum[T, U int64 | float64](dst []int, xs []T, valid []byte, y U, op CmpOp, lo, hi int, ids []int) []int {
	if ids != nil {
		switch op {
		case CmpEq:
			for _, id := range ids {
				if x := U(xs[id]); !(x < y) && !(x > y) && valid[id] != 0 {
					dst = append(dst, id)
				}
			}
		case CmpNe:
			for _, id := range ids {
				if x := U(xs[id]); (x < y || x > y) && valid[id] != 0 {
					dst = append(dst, id)
				}
			}
		case CmpLt:
			for _, id := range ids {
				if U(xs[id]) < y && valid[id] != 0 {
					dst = append(dst, id)
				}
			}
		case CmpLe:
			for _, id := range ids {
				if !(U(xs[id]) > y) && valid[id] != 0 {
					dst = append(dst, id)
				}
			}
		case CmpGt:
			for _, id := range ids {
				if U(xs[id]) > y && valid[id] != 0 {
					dst = append(dst, id)
				}
			}
		case CmpGe:
			for _, id := range ids {
				if !(U(xs[id]) < y) && valid[id] != 0 {
					dst = append(dst, id)
				}
			}
		}
		return dst
	}
	xs, valid = xs[lo:hi], valid[lo:hi]
	valid = valid[:len(xs)]
	switch op {
	case CmpEq:
		for i, x := range xs {
			if x := U(x); !(x < y) && !(x > y) && valid[i] != 0 {
				dst = append(dst, lo+i)
			}
		}
	case CmpNe:
		for i, x := range xs {
			if x := U(x); (x < y || x > y) && valid[i] != 0 {
				dst = append(dst, lo+i)
			}
		}
	case CmpLt:
		for i, x := range xs {
			if U(x) < y && valid[i] != 0 {
				dst = append(dst, lo+i)
			}
		}
	case CmpLe:
		for i, x := range xs {
			if !(U(x) > y) && valid[i] != 0 {
				dst = append(dst, lo+i)
			}
		}
	case CmpGt:
		for i, x := range xs {
			if U(x) > y && valid[i] != 0 {
				dst = append(dst, lo+i)
			}
		}
	case CmpGe:
		for i, x := range xs {
			if !(U(x) < y) && valid[i] != 0 {
				dst = append(dst, lo+i)
			}
		}
	}
	return dst
}

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
