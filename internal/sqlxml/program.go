package sqlxml

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/relstore"
	"repro/internal/xmltree"
)

// This file is the byte half of construction (the paper's §4 idea applied
// to the constructor itself: specialize over the structure once, at compile
// time). A Query's body is compiled, beside the plan, into a flat program of
// ops that append serialized XML — byte for byte what Node.Serialize prints
// for the tree the walk in expr.go would build, without the tree. What the
// walk re-decides on every row is decided here once:
//
//   - static runs: tag names, attribute names and literal text are escaped
//     at compile time, and adjacent static bytes merge into one append, across
//     element boundaries;
//   - the deferred '>': a start tag stays open until its element receives
//     content, so an element with none closes as "/>". Where the content is
//     statically known — a child element, a non-empty literal — the compiler
//     writes '>' (or "/>", or the end tag) into the static run; only content
//     that may turn out empty (a NULL or empty column, an aggregate over no
//     rows, an untaken branch) leaves a run-time "start tag open" bit;
//   - columns as ordinals, typed: each column resolves against its table's
//     schema, which never changes (tables are created, never altered or
//     dropped), so an ordinal compiled once holds for every snapshot;
//   - attributes de-duplicated: a repeated name keeps the first position and
//     the last value, as Node.SetAttr does;
//   - conditions compiled to relstore filters on ordinals: once, with the
//     program, when a predicate compares with a constant; once per run, when
//     the run binds the bind variable it compares with — never per row.
//     Inside an XMLAgg body a condition is evaluated a chunk of members at
//     a time, into a 64-bit mask per CASE WHEN (members), and its op tests
//     one bit;
//   - superinstructions: the static run before a column's op is folded into
//     that op, so "literal, column, literal" is two dispatches, not three.
//     A folded op charges one governor tick per source op it stands for, so
//     the ticks a run charges are those of the unfolded program;
//   - copies, not escapes: a VARCHAR cell carries its escape class from
//     its insert (relstore's validity byte), so a cell with nothing to
//     escape in its context is one copy, and an INT is formatted in place
//     in the output (appendInt);
//   - stores, not copies: a literal of at most 16 bytes is kept padded in
//     its op and written with one 16-byte store, a clean VARCHAR cell of at
//     most 16 bytes is one 16-byte load from its pinned arena and one store
//     (TableSnap.TextWide), and an INT of up to eight digits is formatted in
//     a register and written with one 8-byte store (digits8). The bytes a
//     store writes past its value land in the buffer's spare capacity, and
//     a buffer without 16 bytes of room takes the plain append, so no store
//     ever grows a buffer.

// Program is a query body compiled for byte construction. It is immutable
// once compiled — every run of a plan, and every morsel worker of a run,
// shares it — but for two scratch caches, each taken and put back
// atomically by one run at a time: the driving pool (drive) and each Agg's
// split pool (subOp.scratch).
type Program struct {
	q    *Query
	code []op
	// params names the bind variables the body reads; a run fails unless it
	// binds every one.
	params []string
	// filters holds every CASE WHEN predicate, compiled against its table,
	// in the order opCond indexes them; bound lists those that compare with
	// a bind variable, which each run compiles again with its value.
	filters []relstore.Filter
	bound   []boundPred
	// drive is the morsel pool scratch a byte cursor last finished with,
	// kept for the next parallel scan of this program (takeDrive).
	drive atomic.Pointer[drivePool]
}

// boundPred is a CASE WHEN predicate that compares column ord (of type typ)
// with bind variable param: filters[i] once the run binds it.
type boundPred struct {
	i     int
	typ   relstore.ColType
	ord   int
	op    relstore.CmpOp
	param string
}

// compiles counts programs compiled by this process (ProgramsCompiled).
var compiles atomic.Int64

// ProgramsCompiled reports how many programs this process has compiled: a
// plan compiles one, and a cursor opened without one compiles one at its
// first byte pull.
func ProgramsCompiled() int64 { return compiles.Load() }

type opKind uint8

const (
	opStatic opKind = iota // append lit
	opClose                // content follows: close the open start tag
	opOpen                 // the start tag just written is open
	opEnd                  // end an element whose start tag may be open: "/>", else lit
	opInt                  // an INT column
	opFloat                // a FLOAT column
	opText                 // a VARCHAR column
	opAgg                  // XMLAgg: run sub.body once per row of the group
	opScalar               // a scalar aggregate over the group
	opCond                 // unless every predicate holds, skip jump ops
	opJump                 // skip jump ops
)

// op is one instruction. Value ops (opInt, opFloat, opText, opScalar) write
// character content, closing an open start tag first unless their value is
// empty, or — attr set — part of an attribute value, escaped for it.
//
// opInt, opFloat and opText are superinstructions: the static run the
// compiler had pending before one is folded into it as lit, its prefix,
// appended before the value whether the value is empty or not. Such an op
// stands for two source ops (fused is 1) and charges two governor ticks, so
// a run's ticks do not depend on the folding.
type op struct {
	kind  opKind
	attr  bool
	fused uint8 // static ops folded into lit: each charges one more tick
	lit   string
	// wide is lit padded with zeros, when lit is at most 16 bytes long: the
	// run writes it with one 16-byte store (appendLit).
	wide [16]byte
	// ord is a column's ordinal, or for an opCond in an XMLAgg body its
	// mask's slot in the member frame (subOp.conds).
	ord   int
	jump  int
	preds []int // opCond: its predicates, as indexes into the run's filters
	sub   *subOp
}

// subOp is the compiled part of an Agg or ScalarAgg: the subquery (which
// identifies its per-run plan), and the body run per inner row (Agg) or the
// aggregate and the ordinal it reads (ScalarAgg).
type subOp struct {
	q    *SubQuery
	body []op
	// cols are the inner columns whose cells the body reads, which the
	// member loop fetches a chunk of members ahead (members). Its CASE WHEN
	// predicates' columns are not among them unless a cell is read too:
	// conds reads those a chunk at a time.
	cols []int
	// conds holds the predicates of every CASE WHEN of the body, in the
	// order of their slots (op.ord): the member loop evaluates each over a
	// chunk of members into one mask word before it runs the body.
	conds [][]int
	fn    aggFn
	ord   int
	// split marks an Agg body whose members the morsel pool may construct
	// in parallel (split.go): one that ends with every start tag closed.
	split bool
	// scratch is a finished split's pool, worker contexts and buffers, kept
	// for the next run's split of this Agg.
	scratch atomic.Pointer[aggSplit]
}

type aggFn uint8

const (
	aggNone aggFn = iota // an unknown function: NULL
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

func aggOf(name string) aggFn {
	switch name {
	case "count":
		return aggCount
	case "sum":
		return aggSum
	case "avg":
		return aggAvg
	case "min":
		return aggMin
	case "max":
		return aggMax
	}
	return aggNone
}

// tagState is what the compiler knows about the innermost start tag at the
// current point of the program.
type tagState uint8

const (
	tagClosed tagState = iota // no start tag awaits its '>'
	tagOpen                   // the start tag written last still lacks its '>'
	tagDyn                    // unknown until run time: the run's open bit says
)

// The run-time open bit is exact wherever the compiler's state is tagDyn,
// and false wherever it is tagClosed or tagOpen — the ops that leave tagDyn
// clear it, and opOpen sets it on the way in.

// compiler builds a program.
type compiler struct {
	db      *relstore.DB
	params  []string
	filters []relstore.Filter
	bound   []boundPred
	code    []op
	run     []byte // static bytes not yet emitted as an opStatic
	tag     tagState
	// cols collects the columns the Agg body being compiled reads directly
	// (read); a nested Agg collects its own.
	cols []int
}

// Compile compiles q's body against db's schemas. A table the body reads
// that db does not have is an error.
func Compile(db *relstore.DB, q *Query) (*Program, error) {
	t := db.Table(q.Table)
	if t == nil {
		return nil, fmt.Errorf("sqlxml: query references unknown table %q", q.Table)
	}
	c := &compiler{db: db}
	code, _, err := c.block(q.Body, t, tagClosed)
	if err != nil {
		return nil, err
	}
	widen(code)
	compiles.Add(1)
	return &Program{q: q, code: code, params: c.params, filters: c.filters, bound: c.bound}, nil
}

// widen pads every literal of at most 16 bytes in code, and in the bodies
// of its XMLAggs, into its op's wide array.
func widen(code []op) {
	for i := range code {
		o := &code[i]
		if len(o.lit) <= len(o.wide) {
			copy(o.wide[:], o.lit)
		}
		if o.kind == opAgg {
			widen(o.sub.body)
		}
	}
}

// block compiles x (nil: nothing) over rows of t, starting in state in, into
// an op list of its own; it returns the list and the state it ends in.
func (c *compiler) block(x XMLExpr, t *relstore.Table, in tagState) ([]op, tagState, error) {
	code, run, tag := c.code, c.run, c.tag
	c.code, c.run, c.tag = nil, nil, in
	var err error
	if x != nil {
		err = c.expr(x, t)
	}
	c.flush()
	out, end := c.code, c.tag
	c.code, c.run, c.tag = code, run, tag
	return out, end, err
}

func (c *compiler) flush() {
	if len(c.run) > 0 {
		c.code = append(c.code, op{kind: opStatic, lit: string(c.run)})
		c.run = c.run[:0]
	}
}

func (c *compiler) emit(o op) {
	switch o.kind {
	case opInt, opFloat, opText:
		if len(c.run) > 0 {
			o.lit, o.fused = string(c.run), 1
			c.run = c.run[:0]
		}
	}
	c.flush()
	c.code = append(c.code, o)
}

// content is called before static content: the open start tag gets its '>'.
func (c *compiler) content() {
	switch c.tag {
	case tagOpen:
		c.run = append(c.run, '>')
	case tagDyn:
		c.emit(op{kind: opClose})
	}
	c.tag = tagClosed
}

// value emits a content op whose value may be empty.
func (c *compiler) value(o op) {
	if c.tag == tagOpen {
		c.emit(op{kind: opOpen})
		c.tag = tagDyn
	}
	c.emit(o)
}

func (c *compiler) expr(x XMLExpr, t *relstore.Table) error {
	switch e := x.(type) {
	case *Literal:
		if e.Text != "" {
			c.content()
			c.run = xmltree.AppendEscapeText(c.run, e.Text)
		}
	case *Column:
		if o, ok := column(t, e.Name); ok {
			c.read(o.ord)
			c.value(o)
		}
	case *Element:
		return c.element(e, t)
	case *Concat:
		for _, it := range e.Items {
			if err := c.expr(it, t); err != nil {
				return err
			}
		}
	case *Agg:
		return c.agg(e, t)
	case *ScalarAgg:
		sub, err := c.scalar(e)
		if err != nil {
			return err
		}
		if sub.fn == aggCount || sub.fn == aggSum {
			c.content() // never NULL: always content
			c.emit(op{kind: opScalar, sub: sub})
		} else {
			c.value(op{kind: opScalar, sub: sub})
		}
	case *Cond:
		return c.cond(e, t)
	default:
		return fmt.Errorf("sqlxml: unhandled expression %T", x)
	}
	return nil
}

// column compiles a column reference; a column t does not have always reads
// NULL, which constructs nothing, so it compiles to no op at all.
func column(t *relstore.Table, name string) (op, bool) {
	ord := t.ColIndex(name)
	if ord < 0 {
		return op{}, false
	}
	kind := opText
	switch t.Cols[ord].Type {
	case relstore.IntCol:
		kind = opInt
	case relstore.FloatCol:
		kind = opFloat
	}
	return op{kind: kind, ord: ord}, true
}

func (c *compiler) element(e *Element, t *relstore.Table) error {
	c.content()
	name := serialName(e.Name)
	c.run = append(c.run, '<')
	c.run = append(c.run, name...)
	for i, a := range e.Attrs {
		last := lastAttrNamed(e.Attrs, i)
		if last < 0 {
			continue
		}
		c.run = append(c.run, ' ')
		c.run = append(c.run, serialName(a.Name)...)
		c.run = append(c.run, '=', '"')
		if err := c.attrValue(e.Attrs[last].Value, t); err != nil {
			return err
		}
		c.run = append(c.run, '"')
	}
	c.tag = tagOpen
	for _, ch := range e.Children {
		if err := c.expr(ch, t); err != nil {
			return err
		}
	}
	switch c.tag {
	case tagOpen:
		c.run = append(c.run, '/', '>')
	case tagClosed:
		c.run = append(c.run, "</"+name+">"...)
	case tagDyn:
		c.emit(op{kind: opEnd, lit: "</" + name + ">"})
	}
	c.tag = tagClosed
	return nil
}

// attrValue compiles a scalar-producing expression (Column, Literal,
// ScalarAgg, or a Concat of those) into the attribute value being written.
func (c *compiler) attrValue(x XMLExpr, t *relstore.Table) error {
	switch e := x.(type) {
	case *Literal:
		c.run = xmltree.AppendEscapeAttr(c.run, e.Text)
	case *Column:
		if o, ok := column(t, e.Name); ok {
			o.attr = true
			c.read(o.ord)
			c.emit(o)
		}
	case *ScalarAgg:
		sub, err := c.scalar(e)
		if err != nil {
			return err
		}
		c.emit(op{kind: opScalar, attr: true, sub: sub})
	case *Concat:
		for _, it := range e.Items {
			if err := c.attrValue(it, t); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("sqlxml: attribute value must be scalar, got %T", x)
	}
	return nil
}

// inner resolves a subquery's table and registers the bind variables of its
// WHERE clause, which the run binds when it plans the subquery.
func (c *compiler) inner(sub *SubQuery) (*relstore.Table, error) {
	t := c.db.Table(sub.Table)
	if t == nil {
		return nil, fmt.Errorf("sqlxml: unknown table %q", sub.Table)
	}
	for _, p := range sub.Where {
		if name, ok := p.Val.(relstore.ParamValue); ok {
			c.param(string(name))
		}
	}
	return t, nil
}

func (c *compiler) scalar(e *ScalarAgg) (*subOp, error) {
	t, err := c.inner(e.Sub)
	if err != nil {
		return nil, err
	}
	return &subOp{q: e.Sub, fn: aggOf(e.Fn), ord: t.ColIndex(e.Col)}, nil
}

// agg compiles an XMLAgg. Its body runs zero or more times, so the body must
// start in a state every iteration agrees on: the state before the loop when
// one iteration ends where it began, else tagDyn — set up before the loop,
// kept exact by the body.
//
// A body that ends tagClosed may be split across the morsel pool. It starts
// tagClosed (no tag pending) or tagDyn (the open bit says), and every path
// through it closes — opClose, or a non-empty value's closeTag — before it
// writes a byte, and leaves the bit false. So every member after the first
// starts with the bit false, and the first writes the pending '>', if any,
// before anything else: that '>' written once, then every member's bytes
// built with the bit false, is the serial loop's output. A body that may end
// open stays serial.
func (c *compiler) agg(e *Agg, t *relstore.Table) error {
	if e.Sub.Body == nil {
		return fmt.Errorf("sqlxml: unhandled expression %T", e.Sub.Body)
	}
	inner, err := c.inner(e.Sub)
	if err != nil {
		return err
	}
	outer := c.cols
	defer func() { c.cols = outer }()
	c.cols = nil
	in := c.tag
	body, out, err := c.block(e.Sub.Body, inner, in)
	if err != nil {
		return err
	}
	if out != in {
		if in == tagOpen {
			c.emit(op{kind: opOpen})
		}
		in = tagDyn
		c.cols = nil
		if body, out, err = c.block(e.Sub.Body, inner, in); err != nil {
			return err
		}
		if out == tagOpen {
			body = append(body, op{kind: opOpen})
		}
	}
	var conds [][]int
	for i := range body {
		if body[i].kind == opCond {
			body[i].ord = len(conds)
			conds = append(conds, body[i].preds)
		}
	}
	c.emit(op{kind: opAgg, sub: &subOp{q: e.Sub, body: body, cols: c.cols, conds: conds, split: out == tagClosed}})
	c.tag = in
	return nil
}

// read records that the Agg body being compiled reads column ord of its
// inner table.
func (c *compiler) read(ord int) {
	if !slices.Contains(c.cols, ord) {
		c.cols = append(c.cols, ord)
	}
}

// cond compiles a CASE WHEN: the predicates, the THEN branch, and the ELSE
// branch jumped to when a predicate fails. Branches that end in different
// states join in tagDyn, each making the open bit exact on its way out.
func (c *compiler) cond(e *Cond, t *relstore.Table) error {
	preds := make([]int, len(e.Preds))
	for i, p := range e.Preds {
		ord := t.ColIndex(p.Col)
		var typ relstore.ColType
		if ord >= 0 {
			typ = t.Cols[ord].Type
		}
		preds[i] = len(c.filters)
		if name, ok := p.Val.(relstore.ParamValue); ok {
			c.param(string(name))
			c.bound = append(c.bound, boundPred{i: preds[i], typ: typ, ord: ord, op: p.Op, param: string(name)})
		}
		// A bind variable compiles here as a predicate that never holds,
		// until the run binds it.
		c.filters = append(c.filters, relstore.CompileFilter(typ, ord, p.Op, p.Val))
	}
	in := c.tag
	then, s1, err := c.block(e.Then, t, in)
	if err != nil {
		return err
	}
	els, s2, err := c.block(e.Else, t, in)
	if err != nil {
		return err
	}
	if s1 != s2 {
		if s1 == tagOpen {
			then = append(then, op{kind: opOpen})
		}
		if s2 == tagOpen {
			els = append(els, op{kind: opOpen})
		}
		s1 = tagDyn
	}
	if len(els) > 0 {
		then = append(then, op{kind: opJump, jump: len(els)})
	}
	c.emit(op{kind: opCond, preds: preds, jump: len(then)})
	c.code = append(c.code, then...)
	c.code = append(c.code, els...)
	c.tag = s1
	return nil
}

// param registers bind variable name, once.
func (c *compiler) param(name string) {
	if !slices.Contains(c.params, name) {
		c.params = append(c.params, name)
	}
}

// lastAttrNamed resolves attribute i of an element against repeated names:
// -1 when an earlier attribute already claimed the name (this one only
// overrides that one's value), otherwise the index of the last attribute
// with the same name — i itself in the usual, duplicate-free case.
func lastAttrNamed(attrs []Attr, i int) int {
	for j := 0; j < i; j++ {
		if sameName(attrs[j].Name, attrs[i].Name) {
			return -1
		}
	}
	last := i
	for j := i + 1; j < len(attrs); j++ {
		if sameName(attrs[j].Name, attrs[i].Name) {
			last = j
		}
	}
	return last
}

// sameName reports whether two qualified names denote the same (prefix,
// local) pair, which is how an xmltree element keys its attributes.
func sameName(a, b string) bool {
	if a == b {
		return true
	}
	pa, la := splitName(a)
	pb, lb := splitName(b)
	return pa == pb && la == lb
}

// splitName splits a qualified name at its first ':' as xmltree nodes do.
func splitName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// serialName is the name as the tree serializer prints it: a node stores
// (prefix, local) split at the first ':' and prints the prefix only when it
// is non-empty, so a leading ':' disappears.
func serialName(name string) string {
	if len(name) > 0 && name[0] == ':' {
		return name[1:]
	}
	return name
}

// bind returns the program's filters for one run, those on bind variables
// compiled with params' values: the program's own when it has none. An
// unbound bind variable is an error wrapping relstore.ErrUnboundParam.
func (p *Program) bind(params map[string]relstore.Value) ([]relstore.Filter, error) {
	for _, name := range p.params {
		if _, err := relstore.Param(params, name); err != nil {
			return nil, err
		}
	}
	if len(p.bound) == 0 {
		return p.filters, nil
	}
	fs := slices.Clone(p.filters)
	for _, b := range p.bound {
		fs[b.i] = relstore.CompileFilter(b.typ, b.ord, b.op, params[b.param])
	}
	return fs, nil
}

// runRow appends the program's bytes for the current row of the driving
// frame to dst and settles the row's governor charge.
func (ec *evalContext) runRow(p *Program, dst []byte) ([]byte, error) {
	ec.open = false
	pos := ec.driving.pos
	buf, err := ec.run(p.code, &ec.driving, pos, pos+1, dst)
	if err == nil {
		err = ec.flushTicks()
	}
	return buf, err
}

// run executes code for rows lo to hi-1 of f's list, one after another,
// appending to buf, and leaves f at the last. Every source op executed is
// one governor tick: a superinstruction charges one per op folded into it.
// The member loop hands it a whole chunk of members at once: the loop over
// them is here, not around a call per member, which would save and restore
// the loop's state for every one.
func (ec *evalContext) run(code []op, f *frame, lo, hi int, buf []byte) ([]byte, error) {
	for row := lo; row < hi; row++ {
		f.setPos(row)
		for pc := 0; pc < len(code); pc++ {
			o := &code[pc]
			if ec.ticks += 1 + int(o.fused); ec.ticks >= tickFlush {
				if err := ec.flushTicks(); err != nil {
					return buf, err
				}
			}
			switch o.kind {
			case opStatic:
				buf = appendLit(buf, o)
			case opClose:
				buf = ec.closeTag(buf)
			case opOpen:
				ec.open = true
			case opEnd:
				if ec.open {
					buf = append(buf, '/', '>')
					ec.open = false
				} else {
					buf = appendLit(buf, o)
				}
			case opInt:
				buf = appendLit(buf, o)
				if x, ok := f.ts.Int(o.ord, f.id); ok {
					buf = ec.contentOf(buf, o)
					// Up to eight digits are one 8-byte store (digits8), written
					// here and not in a call, which would spill the loop's state.
					if n := len(buf); uint64(x) < 1e8 && cap(buf)-n >= 8 {
						k := decimalLen(uint64(x))
						binary.LittleEndian.PutUint64(buf[n:n+8], digits8(uint64(x))>>(64-8*k))
						buf = buf[:n+k]
					} else {
						buf = appendInt(buf, x)
					}
				}
			case opFloat:
				buf = appendLit(buf, o)
				if x, ok := f.ts.Float(o.ord, f.id); ok {
					buf = appendFloat(ec.contentOf(buf, o), x)
				}
			case opText:
				buf = appendLit(buf, o)
				// The empty string is no content: it leaves an open tag open.
				// A short cell with nothing to escape is one 16-byte load and
				// store, as a literal is (appendLit).
				if b, wide, class := f.ts.TextWide(o.ord, f.id); len(b) > 0 {
					buf = ec.contentOf(buf, o)
					if n := len(buf); wide != nil && class&o.esc() == 0 && cap(buf)-n >= len(wide) {
						*(*[16]byte)(buf[n : n+16]) = *wide
						buf = buf[:n+len(b)]
					} else {
						buf = appendText(buf, b, class, o.attr)
					}
				}
			case opAgg:
				inner, ids, err := ec.group(o.sub.q, f)
				if err != nil {
					return buf, err
				}
				if o.sub.split && ec.workers > 1 && len(ids) >= relstore.MorselMinRows {
					if buf, err = ec.split(o.sub, inner, ids, buf); err != nil {
						return buf, err
					}
					continue
				}
				// The group becomes the row list one level down, so the
				// subqueries of the body join against all of it at once.
				if buf, err = ec.members(o.sub, ec.nest(f, inner, ids), buf); err != nil {
					return buf, err
				}
			case opScalar:
				inner, ids, err := ec.group(o.sub.q, f)
				if err != nil {
					return buf, err
				}
				if num, best, isNum := aggregate(o.sub.fn, inner, o.sub.ord, ids); isNum {
					buf = appendFloat(ec.contentOf(buf, o), num)
				} else if best >= 0 {
					buf = ec.cellAt(buf, o, inner, o.sub.ord, best)
				}
			case opCond:
				// Inside the member loop's chunk the Cond's mask has the answer.
				var holds bool
				if len(f.masks) > 0 {
					holds = f.masks[o.ord]>>(uint(f.pos)%memberChunk)&1 != 0
				} else {
					holds = ec.holds(o.preds, f)
				}
				if !holds {
					pc += o.jump
				}
			case opJump:
				pc += o.jump
			}
		}
	}
	return buf, nil
}

// memberChunk is how many members the member loop fetches ahead of the body.
// It bounds the lines a fetch brings in to what the cache keeps until the
// body reads them — 64 members of a few columns is a few hundred lines — so
// that a group of thousands of members does not evict its first members'
// lines while it fetches its last. It is also the width of a CASE WHEN's
// mask word: a chunk starts at a multiple of it, so member i's bit is
// i % memberChunk.
const memberChunk = 64

// members is the member loop of an Agg: it runs sub's body over every row of
// f's list (the group, or a split's morsel of it), in order, a chunk of
// memberChunk members at a time. Before the body runs over a chunk, the
// chunk's cells of the columns the body reads are fetched
// (TableSnap.Fetch), so that the cache misses of members scattered over the
// heap overlap instead of stalling the body one at a time. The fetch only
// reads rows below the snapshot's pin, which never change: it charges no
// tick, counts nothing and cannot race a writer.
//
// Each CASE WHEN of the body is evaluated for the whole chunk too, into one
// word per Cond on the frame (Filter.Mask: for a numeric comparison, a
// branch-free loop over the chunk), and the body's opCond tests its
// member's bit. A Cond answers the same whether or not a member reaches it
// — the snapshot and the run's filters are fixed — so a mask computed for
// members that take another branch changes nothing but the time. The masks
// are dropped when the loop ends, however it ends: anything else run over
// the frame (a driving row, a split morsel's next member loop) evaluates
// its Conds afresh.
func (ec *evalContext) members(sub *subOp, f *frame, buf []byte) (_ []byte, err error) {
	masks := slices.Grow(f.masks[:0], len(sub.conds))[:len(sub.conds)]
	if len(masks) > 0 {
		defer func() { f.masks = masks[:0] }()
	}
	for lo := 0; lo < len(f.ids); lo += memberChunk {
		hi := min(lo+memberChunk, len(f.ids))
		chunk := f.ids[lo:hi]
		ec.fetched += f.ts.Fetch(sub.cols, chunk)
		for j, preds := range sub.conds {
			masks[j] = ec.mask(preds, f.ts, chunk)
		}
		f.masks = masks
		if buf, err = ec.run(sub.body, f, lo, hi, buf); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// mask evaluates the conjunction preds over rows ids of ts (at most
// memberChunk): bit i is whether ids[i] satisfies every predicate.
func (ec *evalContext) mask(preds []int, ts *relstore.TableSnap, ids []int) uint64 {
	m := ^uint64(0)
	for _, i := range preds {
		if m == 0 {
			break
		}
		m &= ec.filters[i].Mask(ts, ids)
	}
	return m
}

func (ec *evalContext) closeTag(buf []byte) []byte {
	if ec.open {
		ec.open = false
		return append(buf, '>')
	}
	return buf
}

// contentOf prepares buf for a non-empty value of o.
func (ec *evalContext) contentOf(buf []byte, o *op) []byte {
	if o.attr {
		return buf
	}
	return ec.closeTag(buf)
}

// cellAt appends the cell of row id in column ord of ts for o, as the op of
// its type would: NULL and the empty string are no content.
func (ec *evalContext) cellAt(buf []byte, o *op, ts *relstore.TableSnap, ord, id int) []byte {
	switch ts.Type(ord) {
	case relstore.IntCol:
		if x, ok := ts.Int(ord, id); ok {
			return appendInt(ec.contentOf(buf, o), x)
		}
	case relstore.FloatCol:
		if x, ok := ts.Float(ord, id); ok {
			return appendFloat(ec.contentOf(buf, o), x)
		}
	default:
		if b, _, class := ts.TextWide(ord, id); len(b) > 0 {
			return appendText(ec.contentOf(buf, o), b, class, o.attr)
		}
	}
	return buf
}

// holds reports whether every predicate matches the current row of f, read
// from its typed vector.
func (ec *evalContext) holds(preds []int, f *frame) bool {
	for _, i := range preds {
		if !ec.filters[i].Matches(f.ts, f.id) {
			return false
		}
	}
	return true
}

// appendLit appends o.lit. A literal of at most 16 bytes is one 16-byte
// store of o.wide when buf has room for all 16 bytes: the store writes past
// the literal into buf's spare capacity, which the next append overwrites.
// Without that room it is a plain append, so the store never grows buf.
func appendLit(buf []byte, o *op) []byte {
	if n := len(buf); len(o.lit) <= len(o.wide) && cap(buf)-n >= len(o.wide) {
		*(*[16]byte)(buf[n : n+16]) = o.wide
		return buf[:n+len(o.lit)]
	}
	return append(buf, o.lit...)
}

// esc is the escape class bit (xmltree.EscapeClass) of o's context: a
// VARCHAR cell whose class has it set is escaped, not copied.
func (o *op) esc() uint8 {
	if o.attr {
		return xmltree.AttrNeedsEscape
	}
	return xmltree.TextNeedsEscape
}

// appendText appends VARCHAR bytes of escape class class
// (xmltree.EscapeClass) escaped for their context (attr: an attribute
// value), from where they sit: bytes with nothing to escape in the context
// are one copy.
func appendText(dst, b []byte, class uint8, attr bool) []byte {
	if attr {
		if class&xmltree.AttrNeedsEscape == 0 {
			return append(dst, b...)
		}
		return xmltree.AppendEscapeAttr(dst, b)
	}
	if class&xmltree.TextNeedsEscape == 0 {
		return append(dst, b...)
	}
	return xmltree.AppendEscapeText(dst, b)
}

// appendFloat formats f the way the SQL layer prints numbers: an integral
// value as an integer, anything else in the shortest %g form.
func appendFloat(dst []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return appendInt(dst, int64(f))
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendInt appends x in decimal, as strconv.AppendInt(dst, x, 10) does,
// but in place: the digits are written into dst's room two at a time from
// the right, where AppendInt formats into a temporary and copies it. Only a
// dst without room for them grows, once, to its final length. (opInt writes
// a non-negative INT of up to eight digits itself, with digits8.)
func appendInt(dst []byte, x int64) []byte {
	u := uint64(x)
	if x < 0 {
		u = -u // MinInt64 too: its magnitude, 1<<63, fits a uint64
	}
	n := decimalLen(u)
	if x < 0 {
		n++
	}
	if cap(dst)-len(dst) < n {
		dst = slices.Grow(dst, n)
	}
	i := len(dst) + n
	dst = dst[:i]
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		dst[i], dst[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		i -= 2
		dst[i], dst[i+1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		i--
		dst[i] = byte('0' + u)
	}
	if x < 0 {
		dst[i-1] = '-'
	}
	return dst
}

// digits8 formats u (< 10^8) as eight ASCII digits, leading zeros included,
// in one word whose lowest byte is the most significant digit — the digits
// in order once stored little-endian, so that the k digits of a k-digit u
// are the word shifted right by 64-8k bits, and the bytes stored past them
// are zeros that land in a buffer's spare capacity. It splits lanes of one
// word, never looping: u into two four-digit lanes, each of those into two
// two-digit lanes (x*10486>>20 is x/100 for x < 10^4), and each of those
// into two digits (x*103>>10 is x/10 for x < 100); no lane's product
// reaches into the bits its mask keeps of the next.
func digits8(u uint64) uint64 {
	v := u/10000 | u%10000<<32
	q := v * 10486 >> 20 & 0x0000007f_0000007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f000f_000f000f
	v = q | (v-q*10)<<8
	return v | 0x30303030_30303030
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds 10^k for every k a uint64 has room for.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen is how many decimal digits u has (0 has one): log10 from the
// bit length (1233/4096 ≈ log10 2), corrected by one comparison. u|1 has
// the digits of u and is never 0.
func decimalLen(u uint64) int {
	u |= 1
	t := bits.Len64(u) * 1233 >> 12
	if u < pow10[t] {
		return t
	}
	return t + 1
}

// aggregate computes a SQL aggregate over the rows ids of inner, reading
// column ord (-1: none) from its vector: a number (count, sum, avg), the row
// whose cell is the answer (min, max; best) or NULL — neither, best < 0. An
// aggregate over no (non-NULL) values is NULL, except count and sum, which
// are 0. A VARCHAR cell sums as the number it spells (0 when none).
//
// An INT or FLOAT column is read in a loop of its own type: the sum adds
// float64(x) in id order, as a cell-at-a-time sum would, and min and max
// keep the first row of the least or greatest cell as TableSnap.Compare
// orders them — INTs exactly, a NaN equal to every number.
func aggregate(fn aggFn, inner *relstore.TableSnap, ord int, ids []int) (num float64, best int, isNum bool) {
	if fn == aggCount {
		return float64(len(ids)), -1, true
	}
	var total float64
	var count int
	best = -1
	switch {
	case ord < 0: // a column the table does not have: every value is NULL
	case inner.Type(ord) == relstore.IntCol:
		var bestX int64 // the cell of best
		for _, id := range ids {
			x, ok := inner.Int(ord, id)
			if !ok {
				continue
			}
			count++
			total += float64(x)
			if best < 0 || fn == aggMin && x < bestX || fn == aggMax && x > bestX {
				best, bestX = id, x
			}
		}
	case inner.Type(ord) == relstore.FloatCol:
		var bestX float64
		for _, id := range ids {
			x, ok := inner.Float(ord, id)
			if !ok {
				continue
			}
			count++
			total += x
			if best < 0 || fn == aggMin && x < bestX || fn == aggMax && x > bestX {
				best, bestX = id, x
			}
		}
	default:
		for _, id := range ids {
			b, ok := inner.Text(ord, id)
			if !ok {
				continue
			}
			x, _ := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
			count++
			total += x
			if best < 0 ||
				(fn == aggMin && inner.Compare(ord, id, best) < 0) ||
				(fn == aggMax && inner.Compare(ord, id, best) > 0) {
				best = id
			}
		}
	}
	switch fn {
	case aggSum:
		return total, -1, true
	case aggAvg:
		if count > 0 {
			return total / float64(count), -1, true
		}
	case aggMin, aggMax:
		return 0, best, false
	}
	return 0, -1, false
}
