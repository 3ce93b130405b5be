// Package relstore is the relational substrate: typed in-memory tables,
// B-tree secondary indexes, and Volcano-style (iterator-based pull mode,
// Graefe [10]) physical operators with index-vs-scan access-path selection.
//
// The paper's evaluation hinges on the rewritten SQL/XML query using "the
// B-tree index to compute the predicate" while the functional XSLT path
// materializes documents and walks them; this package provides exactly that
// machinery.
//
// A B-tree (this file) is a B+-tree over unique (key, row id) pairs whose
// nodes hold no pointers. Its nodes change in place on Insert, so a reader
// never keeps a reference into one: it descends under the table's read lock
// and copies the ids below its snapshot's pinned length into memory of its
// own before releasing the lock (snapshot.go).
package relstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"
)

// Value is a column value: int64, float64 or string. The zero Value (nil)
// is SQL NULL.
type Value any

// CompareValues orders two values of the same column type. NULL sorts
// before everything. Cross-type comparisons coerce numerics.
func CompareValues(a, b Value) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		case float64:
			return compareFloats(float64(x), y)
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return compareFloats(x, y)
		case int64:
			return compareFloats(x, float64(y))
		}
	case string:
		if y, ok := b.(string); ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	}
	// Incomparable types order by type name for determinism.
	ta, tb := fmt.Sprintf("%T", a), fmt.Sprintf("%T", b)
	switch {
	case ta < tb:
		return -1
	case ta > tb:
		return 1
	}
	return 0
}

func compareFloats(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// key is the Go type of a B-tree's keys: the cells of the column it indexes,
// int64 for INT, float64 for FLOAT and string for VARCHAR.
type key interface{ int64 | float64 | string }

// colTypeOf is the column type whose cells are K.
func colTypeOf[K key]() ColType {
	var k K
	switch any(k).(type) {
	case int64:
		return IntCol
	case float64:
		return FloatCol
	}
	return StringCol
}

// nodeCap is how many keys a node holds: 64 keys of a numeric tree span
// eight cache lines of lineKeys keys, and a tree of 200 000 keys loaded by
// CreateIndex is three nodes deep.
const (
	nodeCap  = 64
	lineKeys = 8
)

// probeBatch is how many keys seek descends together.
const probeBatch = 16

// BTree is a B+-tree over the (key, row id) pairs of one column, typed by
// the column: its keys are stored unboxed and a descent compares them
// natively. Pairs are ordered by key, as cmp.Compare orders keys (a NaN
// FLOAT key first), then by id; a key that several rows hold is a run of
// adjacent pairs, which may straddle nodes. A table assigns ids in
// ascending order, so a new pair is always the last of its key's run.
//
// The nodes live in one slice and name each other by index, so a numeric
// tree holds no pointer for the collector to trace. Node 0 is the leftmost
// leaf: a split keeps the left half where it was, and a new root is
// appended.
type BTree[K key] struct {
	nodes  []btNode[K]
	root   int32
	height int // internal levels above the leaves
}

// btNode is a leaf or an internal node. A leaf holds its keys in one array
// and their row ids in another. An internal node holds separators and
// children only: child i holds the keys from keys[i-1] to keys[i], both
// included, since a run may end in one child and go on in the next.
type btNode[K key] struct {
	n    int32 // keys in use
	next int32 // a leaf's right sibling; -1 for the last leaf
	keys [nodeCap]K
	// vals holds a leaf's row ids (n of them) or an internal node's
	// children (n+1).
	vals [nodeCap + 1]int
}

// NewBTree returns an empty tree.
func NewBTree[K key]() *BTree[K] {
	t := &BTree[K]{}
	t.root = t.newNode()
	return t
}

// newNode appends an empty node. It may move every node: a caller takes no
// pointer into the tree across it.
func (t *BTree[K]) newNode() int32 {
	t.nodes = append(t.nodes, btNode[K]{next: -1})
	return int32(len(t.nodes) - 1)
}

// index is a B-tree as a table holds it, whatever its key type. The table
// lock guards every call: Insert rewrites nodes in place.
type index interface {
	// add indexes row id, whose cell in v (the indexed column) is not NULL.
	add(v *vec, id int)
	// appendIDs appends the ids below n of the pairs in [lo, hi] and, with
	// nan, of a FLOAT tree's NaN key: in key order, not yet in id order.
	appendIDs(dst []int, lo, hi Bound, nan bool, n int) []int
	// appendRuns is the index join's probe. For each outer row ids[i] whose
	// key in outer (a column of any type) is neither NULL nor NaN, it
	// appends to gr.arena the ids below n of the pairs whose key equals it,
	// ascending, and points gr.Runs[i] at them. A FLOAT tree's NaN rows
	// equal every number: they join every numeric key.
	appendRuns(outer *vec, ids []int, n int, gr *Groups)
}

// buildIndex returns a tree over the non-NULL cells among the first n rows
// of v, loaded in one pass from its (key, id) pairs sorted once.
func buildIndex(v *vec, n int) index {
	switch v.typ {
	case IntCol:
		return loadBTree[int64](v, n)
	case FloatCol:
		return loadBTree[float64](v, n)
	}
	return loadBTree[string](v, n)
}

func loadBTree[K key](v *vec, n int) *BTree[K] {
	pairs := make([]btPair[K], 0, n)
	for id, ok := range v.valid[:n] {
		if ok != 0 {
			pairs = append(pairs, btPair[K]{cellKey[K](v, id), id})
		}
	}
	sortPairs(pairs)
	t := &BTree[K]{}
	t.load(pairs)
	return t
}

// sortPairs orders pairs, which come in id order, by key as cmp.Compare
// orders keys, and keeps equal keys in id order. Numeric keys go through an
// LSD radix sort on their order bits, a byte at a time, skipping the bytes
// every key shares: a few passes over the pairs where a comparison sort
// makes log n of them, each comparison a call. VARCHAR keys are compared.
func sortPairs[K key](pairs []btPair[K]) {
	if _, text := any(pairs).([]btPair[string]); text || len(pairs) < 2 {
		slices.SortStableFunc(pairs, func(a, b btPair[K]) int { return cmp.Compare(a.key, b.key) })
		return
	}
	in, out := pairs, make([]btPair[K], len(pairs))
	for shift := 0; shift < 64; shift += 8 {
		var at [257]int // at[b+1] counts byte b; then at[b] is where b's pairs go
		for _, p := range in {
			at[orderBits(p.key)>>shift&0xff+1]++
		}
		if at[orderBits(in[0].key)>>shift&0xff+1] == len(in) {
			continue // every key has this byte
		}
		for b := 1; b < len(at); b++ {
			at[b] += at[b-1]
		}
		for _, p := range in {
			b := orderBits(p.key) >> shift & 0xff
			out[at[b]] = p
			at[b]++
		}
		in, out = out, in
	}
	copy(pairs, in)
}

// orderBits maps a numeric key to a uint64 whose order is the key's
// cmp.Compare order: a NaN lowest, -0 equal to 0.
func orderBits[K key](k K) uint64 {
	switch x := any(k).(type) {
	case int64:
		return uint64(x) ^ 1<<63
	case float64:
		switch b := math.Float64bits(x); {
		case x != x:
			return 0
		case x == 0:
			return 1 << 63
		case b>>63 != 0:
			return ^b
		default:
			return b | 1<<63
		}
	}
	return 0
}

// load builds the tree bottom-up from sorted pairs: full leaves, in order
// from node 0, then each level of internal nodes over the one below it,
// until one node is left, the root.
func (t *BTree[K]) load(pairs []btPair[K]) {
	leaves := max(1, (len(pairs)+nodeCap-1)/nodeCap)
	t.nodes = make([]btNode[K], leaves, leaves+leaves/nodeCap+2)
	mins := make([]K, leaves) // the least key under each node of a level
	for l := range leaves {
		nd := &t.nodes[l]
		lo, hi := l*len(pairs)/leaves, (l+1)*len(pairs)/leaves
		for j, p := range pairs[lo:hi] {
			nd.keys[j], nd.vals[j] = p.key, p.id
		}
		nd.n, nd.next, mins[l] = int32(hi-lo), int32(l+1), nd.keys[0]
	}
	t.nodes[leaves-1].next = -1
	first, count := 0, leaves // the level below: nodes first..first+count-1
	for count > 1 {
		parents := (count + nodeCap) / (nodeCap + 1)
		start := len(t.nodes)
		for p := range parents {
			lo, hi := p*count/parents, (p+1)*count/parents
			nd := btNode[K]{n: int32(hi - lo - 1), next: -1}
			for c := lo; c < hi; c++ {
				nd.vals[c-lo] = first + c
				if c > lo {
					nd.keys[c-lo-1] = mins[c]
				}
			}
			t.nodes = append(t.nodes, nd)
			mins[p] = mins[lo]
		}
		first, count = start, parents
		t.height++
	}
	t.root = int32(first)
}

// btPair is one (key, row id) pair, as CreateIndex sorts them.
type btPair[K key] struct {
	key K
	id  int
}

// upper is the number of the node's keys at or below key.
func (nd *btNode[K]) upper(key K) int32 {
	lo, hi := int32(0), nd.n
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if cmp.Less(key, nd.keys[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Insert adds the pair (key, id). id must be above every id the tree holds
// under key, as a table's next row id is: the pair is appended to its key's
// run. Full nodes are split on the way down, so the leaf has room.
func (t *BTree[K]) Insert(key K, id int) {
	if t.nodes[t.root].n == nodeCap {
		old := t.root
		t.root = t.newNode()
		t.nodes[t.root].vals[0] = int(old)
		t.split(t.root, 0, t.height == 0)
		t.height++
	}
	at := t.root
	for level := t.height; level > 0; level-- {
		i := t.nodes[at].upper(key)
		if t.nodes[t.nodes[at].vals[i]].n == nodeCap {
			t.split(at, i, level == 1)
			if !cmp.Less(key, t.nodes[at].keys[i]) {
				i++
			}
		}
		at = int32(t.nodes[at].vals[i])
	}
	nd := &t.nodes[at]
	i := nd.upper(key)
	copy(nd.keys[i+1:nd.n+1], nd.keys[i:nd.n])
	copy(nd.vals[i+1:nd.n+1], nd.vals[i:nd.n])
	nd.keys[i], nd.vals[i] = key, id
	nd.n++
}

// split splits the full child i of the internal node parent (a leaf, when
// leaf is set) and enters its right half as child i+1. A leaf's right half
// keeps its first key, which becomes the separator; an internal node's
// middle key moves up.
func (t *BTree[K]) split(parent, i int32, leaf bool) {
	r := t.newNode()
	p := &t.nodes[parent]
	c, right := &t.nodes[p.vals[i]], &t.nodes[r]
	h := int32(nodeCap / 2)
	var sep K
	if leaf {
		copy(right.keys[:], c.keys[h:c.n])
		copy(right.vals[:], c.vals[h:c.n])
		right.n, right.next, c.next = c.n-h, c.next, r
		sep = right.keys[0]
	} else {
		copy(right.keys[:], c.keys[h+1:c.n])
		copy(right.vals[:], c.vals[h+1:c.n+1])
		right.n = c.n - h - 1
		sep = c.keys[h]
	}
	c.n = h
	clear(c.keys[h:]) // the strings of a VARCHAR tree's moved keys
	copy(p.keys[i+1:p.n+1], p.keys[i:p.n])
	copy(p.vals[i+2:p.n+2], p.vals[i+1:p.n+1])
	p.keys[i], p.vals[i+1] = sep, int(r)
	p.n++
}

// seek finds, for each of keys, the first pair whose key is not below it in
// cmp.Less order: in leaf leaf[i] at pos[i], which may be the leaf's length
// (the pair is then the next leaf's first, if there is one). The keys
// descend together, level by level, and a node is searched in two steps,
// each taken for every key in turn. The first compares the key with every
// lineKeys-th key of the node, the heads of its cache lines: those loads do
// not depend on one another, so the node's lines are fetched at once rather
// than one per halving of a binary search, and the misses of the batch's
// other keys overlap with them. How many heads are below the key says which
// line holds the answer; the second step counts the keys below it there.
func (t *BTree[K]) seek(keys []K, leaf, pos []int32) {
	m := len(keys)
	for i := range m {
		leaf[i] = t.root
	}
	for level := t.height; ; level-- {
		for i := range m {
			nd, c := &t.nodes[leaf[i]], int32(0)
			for j := int32(0); j < nodeCap; j += lineKeys {
				if j < nd.n && cmp.Less(nd.keys[j], keys[i]) {
					c++
				}
			}
			pos[i] = c
		}
		for i := range m {
			if pos[i] == 0 {
				continue
			}
			nd := &t.nodes[leaf[i]]
			p := (pos[i]-1)*lineKeys + 1
			for j, end := p, min(pos[i]*lineKeys, nd.n); j < end; j++ {
				if cmp.Less(nd.keys[j], keys[i]) {
					p++
				}
			}
			pos[i] = p
		}
		if level == 0 {
			return
		}
		for i := range m {
			leaf[i] = int32(t.nodes[leaf[i]].vals[pos[i]])
		}
	}
}

// appendRun appends the ids below n of key's run, which starts where seek
// left it, at (leaf, pos). The run is ascending, so they are a prefix of it.
func (t *BTree[K]) appendRun(dst []int, leaf, pos int32, key K, n int) []int {
	for leaf >= 0 {
		nd := &t.nodes[leaf]
		for ; pos < nd.n; pos++ {
			if cmp.Less(key, nd.keys[pos]) || nd.vals[pos] >= n {
				return dst
			}
			dst = append(dst, nd.vals[pos])
		}
		leaf, pos = nd.next, 0
	}
	return dst
}

// walk calls fn for every pair from (leaf, pos) on, in order, until fn
// returns false.
func (t *BTree[K]) walk(leaf, pos int32, fn func(key K, id int) bool) {
	for leaf >= 0 {
		nd := &t.nodes[leaf]
		for ; pos < nd.n; pos++ {
			if !fn(nd.keys[pos], nd.vals[pos]) {
				return
			}
		}
		leaf, pos = nd.next, 0
	}
}

func (t *BTree[K]) add(v *vec, id int) { t.Insert(cellKey[K](v, id), id) }

// cellKey reads row id's non-NULL cell of v, a column of the tree's type.
func cellKey[K key](v *vec, id int) K {
	var k K
	switch p := any(&k).(type) {
	case *int64:
		*p = v.ints[id]
	case *float64:
		*p = v.flts[id]
	case *string:
		*p = string(v.bytes(id))
	}
	return k
}

// probeKey reads row id's cell of outer, a column of any type, as a key of
// the tree's type: ok is false when the cell is NULL or NaN (equal to every
// number, the caller's to answer), or when no key can equal it. A VARCHAR
// key is a string over the outer arena's bytes, not a copy: a probe only
// compares it.
func probeKey[K key](outer *vec, id int) (k K, ok bool) {
	if outer.valid[id] == 0 {
		return k, false
	}
	switch p := any(&k).(type) {
	case *int64:
		switch outer.typ {
		case IntCol:
			*p = outer.ints[id]
		case FloatCol:
			// An INT key equals a FLOAT cell when the cell is integral (and
			// not NaN, which Trunc leaves unequal to itself).
			f := outer.flts[id]
			if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
				return k, false
			}
			*p = int64(f)
		default:
			return k, false
		}
	case *float64:
		switch outer.typ {
		case IntCol:
			*p = float64(outer.ints[id])
		case FloatCol:
			if *p = outer.flts[id]; *p != *p {
				return k, false
			}
		default:
			return k, false
		}
	case *string:
		if outer.typ != StringCol {
			return k, false
		}
		b := outer.bytes(id)
		*p = unsafe.String(unsafe.SliceData(b), len(b))
	}
	return k, true
}

func (t *BTree[K]) appendRuns(outer *vec, ids []int, n int, gr *Groups) {
	var keys [probeBatch]K
	var at [probeBatch]int // the outer position of each key
	var leaf, pos [probeBatch]int32
	nanK, isFloat := nanKey[K]()
	nans := isFloat && outer.typ != StringCol
	for i := 0; i < len(ids); {
		m := 0
		for ; i < len(ids) && m < probeBatch; i++ {
			if k, ok := probeKey[K](outer, ids[i]); ok {
				keys[m], at[m] = k, i
				m++
			}
		}
		t.seek(keys[:m], leaf[:m], pos[:m])
		for j := range m {
			start := len(gr.arena)
			gr.arena = t.appendRun(gr.arena, leaf[j], pos[j], keys[j], n)
			if nans {
				// The NaN pairs come first: node 0 starts with them.
				mid := len(gr.arena)
				gr.arena = t.appendRun(gr.arena, 0, 0, nanK, n)
				if len(gr.arena) > mid {
					slices.Sort(gr.arena[start:])
				}
			}
			gr.Runs[at[j]] = gr.arena[start:len(gr.arena):len(gr.arena)]
		}
	}
}

// Bound is one end of a range scan.
type Bound struct {
	Value     Value
	Inclusive bool
	// Unbounded marks an open end.
	Unbounded bool
}

// Unbounded is the open bound.
var UnboundedBound = Bound{Unbounded: true}

// interval is [lo, hi] with each bound compiled against the key type: a key
// k is in it when CompareValues(k, lo) and CompareValues(k, hi) say so.
type interval struct {
	lo, hi Bound
	l, h   operand
}

func newInterval(typ ColType, lo, hi Bound) interval {
	iv := interval{lo: lo, hi: hi}
	if !lo.Unbounded {
		iv.l = compileOperand(typ, lo.Value)
	}
	if !hi.Unbounded {
		iv.h = compileOperand(typ, hi.Value)
	}
	return iv
}

// Range calls fn for each pair with lo <= key <= hi (subject to
// inclusivity, and comparing as CompareValues does, so a bound of another
// type is allowed) in order; fn returning false stops the scan. A NaN key,
// equal to every number and ordered against none, is in no interval.
func (t *BTree[K]) Range(lo, hi Bound, fn func(key K, id int) bool) {
	iv := newInterval(colTypeOf[K](), lo, hi)
	// Descend to the first key in the interval: a key is past the low bound
	// from the first separator on that is.
	at := t.root
	for level := t.height; ; level-- {
		nd := &t.nodes[at]
		i := 0
		if !iv.lo.Unbounded {
			i = sort.Search(int(nd.n), func(j int) bool {
				c := cmpKey(&iv.l, nd.keys[j])
				return c > 0 || c == 0 && iv.lo.Inclusive
			})
		}
		if level == 0 {
			t.walk(at, int32(i), func(k K, id int) bool {
				if k != k {
					return true // NaN: in no interval
				}
				if !iv.hi.Unbounded {
					if c := cmpKey(&iv.h, k); c > 0 || c == 0 && !iv.hi.Inclusive {
						return false
					}
				}
				return fn(k, id)
			})
			return
		}
		at = int32(nd.vals[i])
	}
}

// AscendAll visits every pair in order, those of a NaN key first.
func (t *BTree[K]) AscendAll(fn func(key K, id int) bool) { t.walk(0, 0, fn) }

func (t *BTree[K]) appendIDs(dst []int, lo, hi Bound, nan bool, n int) []int {
	// Count, then copy into one allocation.
	total := 0
	t.committedIDs(lo, hi, nan, n, func(int) { total++ })
	if total > cap(dst)-len(dst) {
		dst = append(make([]int, 0, len(dst)+total), dst...)
	}
	t.committedIDs(lo, hi, nan, n, func(id int) { dst = append(dst, id) })
	return dst
}

// committedIDs calls fn with the id of every pair below n in [lo, hi], after
// those of the NaN key with nan.
func (t *BTree[K]) committedIDs(lo, hi Bound, nan bool, n int, fn func(id int)) {
	if _, isFloat := nanKey[K](); nan && isFloat {
		t.AscendAll(func(k K, id int) bool {
			if id < n && k != k {
				fn(id)
			}
			return k != k
		})
	}
	t.Range(lo, hi, func(_ K, id int) bool {
		if id < n {
			fn(id)
		}
		return true
	})
}

// nanKey is the NaN key of a FLOAT tree; ok is false for other key types.
func nanKey[K key]() (k K, ok bool) {
	if p, isFloat := any(&k).(*float64); isFloat {
		*p = math.NaN()
		return k, true
	}
	return k, false
}
