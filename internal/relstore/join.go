package relstore

import (
	"bytes"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/faultpoint"
	"repro/internal/governor"
)

// This file is the relational layer's one join: an index group-join. The
// SQL/XML plan nests an XMLAgg subquery under every outer row
// (inner.col = outer.col plus constant predicates); instead of planning,
// locking and opening the inner table once per outer row, the executor hands
// this operator a BATCH of outer keys and gets back, for each of them, the
// run of matching inner row ids. The fault point, the table lock and the
// governor charge are paid once per batch, and the batch's keys descend the
// B-tree together, so their cache misses overlap. Keys are never boxed: a
// batch names them as one column of the outer snapshot at a list of row ids
// (Keys), the index join reads each typed and descends the typed B-tree
// with it, copying each run's committed ids into an arena under the table
// lock (snapshot.go), and the constant predicates are filter kernels over
// those copies.
//
// Which variant runs is decided by what the table has, never by a caller:
// an index on the correlation column gives the index join (one descent per
// non-NULL outer key); without one the scan join makes ONE pass over the
// inner access path per batch and routes each row to the outer keys it
// equals, where a nested loop would make one pass per outer row.

// GroupJoin is a planned group-join against one pinned inner table. Plan it
// once per run with PlanGroupJoin; Join may then be called any number of
// times, from one goroutine per Groups. The zero value is not usable.
type GroupJoin struct {
	inner *TableSnap
	// col is the inner correlation column; "" joins without a correlation
	// (every outer row's group is every qualifying inner row).
	col string
	ord int // ordinal of col in the inner table, -1 when absent
	// indexed selects the index variant: col has a B-tree.
	indexed bool
	// access is the inner pass of the scan variant, planned over the
	// constant predicates (so an indexed constant predicate still drives a
	// range scan). Unused by the index variant.
	access AccessPlan
	// filter holds the constant predicates the index variant applies to
	// each run.
	filter conj
}

// Keys is a batch of outer keys, named rather than read: the cells of column
// Ord of the rows IDs of the pinned outer table Table. Ord < 0 makes every
// key NULL.
type Keys struct {
	Table *TableSnap
	Ord   int
	IDs   []int
}

// PlanGroupJoin plans the join of inner.col = <outer key> AND preds against
// the pinned inner table. preds must be bound (no ParamValue placeholders)
// before Join runs.
func PlanGroupJoin(inner *TableSnap, col string, preds []Pred) GroupJoin {
	j := GroupJoin{inner: inner, col: col, ord: -1}
	if col != "" {
		j.ord = inner.ColIndex(col)
		j.indexed = inner.HasIndex(col)
	}
	if j.indexed {
		j.filter = compileConj(inner, preds)
	} else {
		j.access = PlanAccessAt(inner, preds)
	}
	return j
}

// Inner returns the pinned inner table the join reads.
func (j *GroupJoin) Inner() *TableSnap { return j.inner }

// Explain describes the planned operator; outerCol names the outer side of
// the correlation.
func (j *GroupJoin) Explain(outerCol string) string {
	if j.col == "" {
		return j.access.Explain(j.inner.tab)
	}
	on := j.inner.Name() + "(" + j.col + ") = outer." + outerCol
	switch {
	case j.indexed && len(j.filter.preds) == 0:
		return "INDEX JOIN " + on
	case j.indexed:
		return "INDEX JOIN " + on + " FILTER " + predsString(j.filter.preds)
	case j.access.Kind != PathFullScan:
		return "SCAN JOIN " + on + " OVER " + j.access.Explain(j.inner.tab)
	case len(j.access.Residual) == 0:
		return "SCAN JOIN " + on
	default:
		return "SCAN JOIN " + on + " FILTER " + predsString(j.access.Residual)
	}
}

// Groups is the result of one Join and the scratch the next one reuses.
type Groups struct {
	// Runs[i] holds the inner row ids matching outer key i, ascending.
	// READ-ONLY, and valid until the next Join into this Groups: outer keys
	// may share one.
	Runs [][]int

	// arena backs the runs. A run sliced off before the arena grew keeps
	// pointing at the old array, which still holds exactly its ids. cands is
	// the index join's runs laid end to end, before its filter.
	arena []int
	cands []int
	// Scan-variant scratch: the batch's distinct non-NULL keys but NaN in
	// CompareValues order, the outer positions sorted the same way, the slot
	// (index into distinct) of each outer key, the slot the NaN keys share
	// (len(distinct); -1 when there is none), and the matched (slot, inner
	// id) pairs before they are bucketed.
	distinct []joinKey
	order    []int32
	slotOf   []int32
	nan      int32
	pairs    []slotID
	ends     []int
}

type slotID struct {
	slot int32
	id   int
}

func (gr *Groups) reset(n int) {
	if cap(gr.Runs) < n {
		gr.Runs = make([][]int, n)
	}
	gr.Runs = gr.Runs[:n]
	clear(gr.Runs)
	gr.arena = gr.arena[:0]
}

// Release empties the result and drops every reference into table data the
// scratch holds (the scan variant's key values), keeping its capacity: what
// an owner calls before parking a Groups in a pool for a later run.
func (gr *Groups) Release() {
	clear(gr.Runs)
	gr.Runs = gr.Runs[:0]
	clear(gr.distinct)
	gr.distinct = gr.distinct[:0]
}

// Join computes, for every outer key in keys (in the caller's outer order),
// the run of inner row ids with the correlation column equal to it and every constant
// predicate satisfied. Equality is CompareValues equality (an INT 7 equals a
// FLOAT 7, and a NaN equals every number), and a NULL key or cell equals
// nothing. A non-nil error — the fault point "relstore.join.batch", a fault
// in the inner scan, the governor's verdict — means out holds no usable
// group: a run is never silently truncated. stats and g may be nil.
func (j *GroupJoin) Join(keys Keys, out *Groups, stats *Stats, g *governor.G) error {
	if err := faultpoint.Hit("relstore.join.batch"); err != nil {
		return err
	}
	out.reset(len(keys.IDs))
	if j.indexed {
		return j.indexJoin(keys, out, stats, g)
	}
	return j.scanJoin(keys, out, stats, g)
}

// indexJoin descends once per non-NULL key, the batch's keys together
// under one lock acquisition, and copies each run's committed ids into the
// arena; the constant predicates' kernels then filter the copies lock-free
// (rows below the pinned length are immutable), all runs in one pass, into
// the arena after them.
//
// A NaN equals every number but sits in the tree at one place, so the tree's
// order cannot find its equals: a numeric key's run also takes the rows of a
// FLOAT tree's NaN key (BTree.appendRuns), and a NaN key's run is every row
// whose cell is a number (every non-NULL row of a numeric column, once per
// batch however many NaN keys it holds).
func (j *GroupJoin) indexJoin(keys Keys, out *Groups, stats *Stats, g *governor.G) error {
	var descents, visited int
	if keys.Ord >= 0 {
		outer := &keys.Table.cols[keys.Ord]
		t := j.inner.tab
		t.mu.RLock()
		t.indexes[j.col].appendRuns(outer, keys.IDs, j.inner.n, out)
		t.mu.RUnlock()
		var numbers []int
		for i, id := range keys.IDs {
			if outer.valid[id] == 0 {
				continue
			}
			descents++
			if outer.typ == FloatCol && math.IsNaN(outer.flts[id]) {
				if numbers == nil {
					numbers = j.numbers(out)
				}
				out.Runs[i] = numbers
			}
			visited += len(out.Runs[i])
		}
	}

	emitted, charged := visited, 0
	if len(j.filter.preds) > 0 {
		// One kernel pass filters every run, so the inner cells' cache
		// misses overlap instead of waiting on one call per run (a run often
		// holds one id). An id passes or fails wherever it occurs, so each
		// run then takes back, in order, the passing ids equal to its own.
		all := out.cands[:0]
		for _, run := range out.Runs {
			all = append(all, run...)
		}
		out.cands = all
		start := len(out.arena)
		for lo := 0; lo < len(all); lo += scanChunkRows {
			hi := min(lo+scanChunkRows, len(all))
			out.arena = j.filter.sel(out.arena, j.inner, 0, 0, all[lo:hi])
			// Filtering is the only part of the join whose cost grows with
			// the inner table; keep cancellation latency bounded like a scan.
			if hi < len(all) {
				if err := g.TickN(hi - lo); err != nil {
					return err
				}
				charged = hi
			}
		}
		emitted = len(out.arena) - start
		// After the passing ids, a -1 no id equals: the split compares
		// without a bound check and without a branch on the data.
		out.arena = append(out.arena, -1)
		passed := out.arena[start:]
		k := 0
		for i, run := range out.Runs {
			from := k
			for _, id := range run {
				k += b2i(passed[k] == id)
			}
			out.Runs[i] = passed[from:k:k]
		}
	}
	if stats != nil {
		atomic.AddInt64(&stats.RangeScans, 1)
		atomic.AddInt64(&stats.IndexProbes, int64(descents))
		atomic.AddInt64(&stats.RowsFiltered, int64(visited-emitted))
		atomic.AddInt64(&stats.RowsEmitted, int64(emitted))
		atomic.AddInt64(&stats.Batches, 1)
	}
	return g.TickN(visited - charged)
}

// numbers appends to the arena every row whose correlation cell is a number
// — what a NaN key equals — and returns them: none on a VARCHAR column.
func (j *GroupJoin) numbers(out *Groups) []int {
	c := &j.inner.cols[j.ord]
	start := len(out.arena)
	if c.typ != StringCol {
		for id, ok := range c.valid[:j.inner.n] {
			if ok != 0 {
				out.arena = append(out.arena, id)
			}
		}
	}
	return out.arena[start:len(out.arena):len(out.arena)]
}

// scanJoin makes one pass over the inner access path and routes every
// qualifying row to the outer keys its correlation cell equals. The pass is
// an ordinary batch scan: its fault points, stats and governor charges are
// the scan's own. A NaN cell equals every key (a number); a row joins a NaN
// key when its cell is a number at all.
func (j *GroupJoin) scanJoin(keys Keys, out *Groups, stats *Stats, g *governor.G) error {
	correlated := j.col != ""
	var dom keyDomain
	if correlated {
		if j.ord < 0 || keys.Ord < 0 {
			return nil // every key or cell is NULL: every group is empty
		}
		dom = domainOf(keys.Table.cols[keys.Ord].typ, j.inner.cols[j.ord].typ)
		if !out.assignSlots(keys, dom) {
			return nil // no key can match: every group is empty, no scan needed
		}
	}
	it := j.access.OpenBatchAt(j.inner, stats, g, BatchOpts{Workers: 1})
	batch := GetBatch(0)
	defer PutBatch(batch)
	out.pairs = out.pairs[:0]
	for {
		if _, ok := it.NextBatch(batch); !ok {
			break
		}
		if !correlated {
			out.arena = append(out.arena, batch.IDs...)
			continue
		}
		inner := &j.inner.cols[j.ord]
		for _, id := range batch.IDs {
			if inner.valid[id] == 0 {
				continue
			}
			cell := dom.key(inner, id)
			s, end := 0, len(out.distinct)
			if !dom.isNaN(cell) {
				// Distinct keys equal to one cell are adjacent in key order.
				s, _ = slices.BinarySearchFunc(out.distinct, cell, dom.cmp)
				end = s
				for end < len(out.distinct) && dom.cmp(out.distinct[end], cell) == 0 {
					end++
				}
			}
			for ; s < end; s++ {
				out.pairs = append(out.pairs, slotID{int32(s), id})
			}
			if out.nan >= 0 {
				out.pairs = append(out.pairs, slotID{out.nan, id})
			}
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if !correlated {
		all := out.arena[:len(out.arena):len(out.arena)]
		for i := range out.Runs {
			out.Runs[i] = all
		}
		return nil
	}
	out.bucketPairs()
	return nil
}

// joinKey is one outer key or inner cell of the scan join, read into the
// domain both sides compare in.
type joinKey struct {
	i int64
	f float64
	b []byte // a view of an arena
}

// keyDomain is what an outer and an inner column compare as, by
// CompareValues: INT with INT as int64, any other pair of numbers as
// float64, VARCHAR with VARCHAR as bytes. A number never equals a VARCHAR.
type keyDomain uint8

const (
	domInt keyDomain = iota
	domFloat
	domText
	domNone
)

func domainOf(outer, inner ColType) keyDomain {
	switch {
	case outer == StringCol && inner == StringCol:
		return domText
	case outer == StringCol || inner == StringCol:
		return domNone
	case outer == IntCol && inner == IntCol:
		return domInt
	}
	return domFloat
}

// key reads the non-NULL cell of row id of v into the domain.
func (d keyDomain) key(v *vec, id int) joinKey {
	switch d {
	case domInt:
		return joinKey{i: v.ints[id]}
	case domFloat:
		return joinKey{f: v.num(id)}
	}
	return joinKey{b: v.bytes(id)}
}

// isNaN reports whether k is a NaN, which equals every number and so has no
// place in the key order.
func (d keyDomain) isNaN(k joinKey) bool { return d == domFloat && k.f != k.f }

func (d keyDomain) cmp(a, b joinKey) int {
	switch d {
	case domInt:
		return cmpOrdered(a.i, b.i)
	case domFloat:
		return compareFloats(a.f, b.f)
	}
	return bytes.Compare(a.b, b.b)
}

// assignSlots sorts the batch's non-NULL keys, numbers the distinct ones
// (slots) and records each outer position's slot (-1 for NULL). NaN keys,
// which have no place in that order, share one slot after the others
// (Groups.nan). It reports whether any key can match at all.
func (gr *Groups) assignSlots(keys Keys, dom keyDomain) bool {
	gr.order = gr.order[:0]
	gr.nan = -1
	if cap(gr.slotOf) < len(keys.IDs) {
		gr.slotOf = make([]int32, len(keys.IDs))
	}
	gr.slotOf = gr.slotOf[:len(keys.IDs)]
	for i := range gr.slotOf {
		gr.slotOf[i] = -1
	}
	clear(gr.distinct) // drop the previous batch's arena views
	gr.distinct = gr.distinct[:0]
	outer := &keys.Table.cols[keys.Ord]
	key := func(pos int32) joinKey { return dom.key(outer, keys.IDs[pos]) }
	nans := false
	if dom != domNone {
		for i, id := range keys.IDs {
			switch {
			case outer.valid[id] == 0:
			case dom.isNaN(key(int32(i))):
				gr.slotOf[i] = nanPending
				nans = true
			default:
				gr.order = append(gr.order, int32(i))
			}
		}
	}
	slices.SortFunc(gr.order, func(a, b int32) int { return dom.cmp(key(a), key(b)) })
	for _, pos := range gr.order {
		k := key(pos)
		if n := len(gr.distinct); n == 0 || dom.cmp(gr.distinct[n-1], k) != 0 {
			gr.distinct = append(gr.distinct, k)
		}
		gr.slotOf[pos] = int32(len(gr.distinct) - 1)
	}
	if nans {
		gr.nan = int32(len(gr.distinct))
		for i, s := range gr.slotOf {
			if s == nanPending {
				gr.slotOf[i] = gr.nan
			}
		}
	}
	return len(gr.distinct) > 0 || nans
}

// nanPending marks a NaN key's position until its slot is known.
const nanPending = -2

// bucketPairs turns the matched (slot, id) pairs into one run per slot — a
// counting sort, stable, so ids stay in the ascending order the scan
// produced them — and points every outer position at its slot's run.
func (gr *Groups) bucketPairs() {
	slots := len(gr.distinct)
	if gr.nan >= 0 {
		slots++
	}
	if cap(gr.ends) < slots {
		gr.ends = make([]int, slots)
	}
	gr.ends = gr.ends[:slots]
	clear(gr.ends)
	for _, p := range gr.pairs {
		gr.ends[p.slot]++
	}
	total := 0
	for s, n := range gr.ends {
		gr.ends[s] = total // start of slot s, advanced to its end while filling
		total += n
	}
	if cap(gr.arena) < total {
		gr.arena = make([]int, total)
	}
	gr.arena = gr.arena[:total]
	for _, p := range gr.pairs {
		gr.arena[gr.ends[p.slot]] = p.id
		gr.ends[p.slot]++
	}
	for i, s := range gr.slotOf {
		if s < 0 {
			continue
		}
		start := 0
		if s > 0 {
			start = gr.ends[s-1]
		}
		gr.Runs[i] = gr.arena[start:gr.ends[s]:gr.ends[s]]
	}
}
