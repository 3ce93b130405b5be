// Package relstore is the relational substrate: typed in-memory tables,
// B-tree secondary indexes, and Volcano-style (iterator-based pull mode,
// Graefe [10]) physical operators with index-vs-scan access-path selection.
//
// The paper's evaluation hinges on the rewritten SQL/XML query using "the
// B-tree index to compute the predicate" while the functional XSLT path
// materializes documents and walks them; this package provides exactly that
// machinery.
package relstore

import (
	"cmp"
	"fmt"
	"math"
	"sort"
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

// btree degree: max keys per node. 64 keeps nodes cache-friendly while
// exercising real splits in tests.
const btreeMaxKeys = 64

// BTree is a B-tree mapping one column's cells to posting lists of row ids,
// typed by the column: its keys are stored unboxed and a descent compares
// them natively. Duplicate keys accumulate row ids on one entry. Keys order
// as cmp.Compare orders them (a NaN FLOAT key sorts first).
type BTree[K key] struct {
	root *btNode[K]
	size int // distinct keys
}

type btEntry[K key] struct {
	key  K
	rows []int
}

type btNode[K key] struct {
	entries  []btEntry[K]
	children []*btNode[K] // nil for leaves; else len(entries)+1
}

// NewBTree returns an empty tree.
func NewBTree[K key]() *BTree[K] {
	return &BTree[K]{root: &btNode[K]{}}
}

// newIndex returns an empty tree over a column of type typ.
func newIndex(typ ColType) index {
	switch typ {
	case IntCol:
		return NewBTree[int64]()
	case FloatCol:
		return NewBTree[float64]()
	}
	return NewBTree[string]()
}

// index is a B-tree as a table holds it, whatever its key type.
type index interface {
	// add indexes row id, whose cell in v (the indexed column) is not NULL.
	add(v *vec, id int)
	// committedIDs collects IndexIDs' answer, unsorted: the ids of the
	// posting lists in [lo, hi] (and of the NaN key, with nan), each bounded
	// to the first n rows, and how many lists contributed.
	committedIDs(lo, hi Bound, nan bool, n int) (ids []int, lists int)
	// probe returns the posting list of the key equal to row id's non-NULL
	// cell in v, a column of any type: nil when there is none, or when the
	// cell's type can never equal a key.
	probe(v *vec, id int) []int
}

// Len returns the number of distinct keys.
func (t *BTree[K]) Len() int { return t.size }

func (n *btNode[K]) isLeaf() bool { return n.children == nil }

// search locates, among the node's entries, the first key c reports at or
// above the key sought (c compares a key with it, monotone in key order):
// the index and whether c reports it equal.
func (n *btNode[K]) search(c func(K) int) (int, bool) {
	i := sort.Search(len(n.entries), func(i int) bool { return c(n.entries[i].key) >= 0 })
	return i, i < len(n.entries) && c(n.entries[i].key) == 0
}

// Insert adds rowID under key.
func (t *BTree[K]) Insert(key K, rowID int) {
	if len(t.root.entries) == btreeMaxKeys {
		old := t.root
		t.root = &btNode[K]{children: []*btNode[K]{old}}
		t.root.splitChild(0)
	}
	if t.root.insertNonFull(key, rowID) {
		t.size++
	}
}

// insertNonFull inserts into a node known to have room, returning whether a
// new distinct key was created.
func (n *btNode[K]) insertNonFull(key K, rowID int) bool {
	i, found := n.search(func(k K) int { return cmp.Compare(k, key) })
	if found {
		n.entries[i].rows = append(n.entries[i].rows, rowID)
		return false
	}
	if n.isLeaf() {
		n.entries = append(n.entries, btEntry[K]{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = btEntry[K]{key: key, rows: []int{rowID}}
		return true
	}
	if len(n.children[i].entries) == btreeMaxKeys {
		n.splitChild(i)
		c := cmp.Compare(key, n.entries[i].key)
		if c == 0 {
			n.entries[i].rows = append(n.entries[i].rows, rowID)
			return false
		}
		if c > 0 {
			i++
		}
	}
	return n.children[i].insertNonFull(key, rowID)
}

// splitChild splits the full child at index i, hoisting its median entry.
func (n *btNode[K]) splitChild(i int) {
	child := n.children[i]
	mid := btreeMaxKeys / 2
	median := child.entries[mid]

	right := &btNode[K]{entries: append([]btEntry[K]{}, child.entries[mid+1:]...)}
	if !child.isLeaf() {
		right.children = append([]*btNode[K]{}, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.entries = child.entries[:mid]

	n.entries = append(n.entries, btEntry[K]{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Lookup returns the row ids stored under key (nil when absent).
func (t *BTree[K]) Lookup(key K) []int {
	return t.find(func(k K) int { return cmp.Compare(k, key) })
}

// find descends to the entry c reports equal and returns its rows (nil when
// there is none).
func (t *BTree[K]) find(c func(K) int) []int {
	n := t.root
	for {
		i, found := n.search(c)
		if found {
			return n.entries[i].rows
		}
		if n.isLeaf() {
			return nil
		}
		n = n.children[i]
	}
}

func (t *BTree[K]) add(v *vec, id int) {
	var k K
	switch p := any(&k).(type) {
	case *int64:
		*p = v.ints[id]
	case *float64:
		*p = v.flts[id]
	case *string:
		*p = string(v.bytes(id))
	}
	t.Insert(k, id)
}

func (t *BTree[K]) probe(v *vec, id int) []int {
	var k K
	switch p := any(&k).(type) {
	case *int64:
		switch v.typ {
		case IntCol:
			*p = v.ints[id]
		case FloatCol:
			// An INT key equals a FLOAT cell when the cell is integral (and
			// not NaN, which Trunc leaves unequal to itself).
			f := v.flts[id]
			if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
				return nil
			}
			*p = int64(f)
		default:
			return nil
		}
	case *float64:
		switch v.typ {
		case IntCol:
			*p = float64(v.ints[id])
		case FloatCol:
			*p = v.flts[id]
		default:
			return nil
		}
	case *string:
		if v.typ != StringCol {
			return nil
		}
		b := v.bytes(id)
		return t.find(func(k K) int { return -cmpText(b, any(k).(string)) })
	}
	return t.Lookup(k)
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

// Range calls fn for each (key, rows) pair with lo <= key <= hi (subject to
// inclusivity, and comparing as CompareValues does, so a bound of another
// type is allowed) in ascending key order; fn returning false stops the
// scan. A NaN key, equal to every number and ordered against none, is in no
// interval: Lookup finds it.
func (t *BTree[K]) Range(lo, hi Bound, fn func(key K, rows []int) bool) {
	iv := newInterval(colTypeOf[K](), lo, hi)
	t.root.rangeScan(&iv, fn)
}

// AscendAll visits every key in order, a NaN key first.
func (t *BTree[K]) AscendAll(fn func(key K, rows []int) bool) {
	if k, ok := nanKey[K](); ok {
		if rows := t.Lookup(k); rows != nil && !fn(k, rows) {
			return
		}
	}
	t.Range(UnboundedBound, UnboundedBound, fn)
}

// nanKey is the NaN key of a FLOAT tree; ok is false for other key types.
func nanKey[K key]() (k K, ok bool) {
	if p, isFloat := any(&k).(*float64); isFloat {
		*p = math.NaN()
		return k, true
	}
	return k, false
}

func (n *btNode[K]) rangeScan(iv *interval, fn func(K, []int) bool) bool {
	start := 0
	if !iv.lo.Unbounded {
		start = sort.Search(len(n.entries), func(i int) bool {
			c := cmpKey(&iv.l, n.entries[i].key)
			if iv.lo.Inclusive {
				return c >= 0
			}
			return c > 0
		})
	}
	for i := start; i <= len(n.entries); i++ {
		if !n.isLeaf() {
			if !n.children[i].rangeScan(iv, fn) {
				return false
			}
		}
		if i == len(n.entries) {
			break
		}
		e := &n.entries[i]
		if e.key != e.key {
			continue // NaN: in no interval
		}
		if !iv.hi.Unbounded {
			c := cmpKey(&iv.h, e.key)
			if c > 0 || (c == 0 && !iv.hi.Inclusive) {
				return false
			}
		}
		if !fn(e.key, e.rows) {
			return false
		}
	}
	return true
}
