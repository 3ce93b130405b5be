package sqlxml

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/relstore"
)

// This file decorrelates the SQL/XML plan. A nested XMLAgg / scalar
// aggregate is written as a subquery correlated to ONE outer row, but it is
// executed as a group-join (relstore.GroupJoin) against the whole LIST of
// outer rows construction is working through: the driving batch, or — one
// level down — the group an enclosing Agg is iterating, so dept → emp →
// project composes the same call at every level. The first outer row of a
// list to reach a subquery triggers the join for the entire list; every
// later row of that list reads its group from the plan's scratch. A
// subquery no row reaches (a Cond branch never taken) is never joined.

// frame is one level of the row nest being constructed: a list of rows of
// one table and the position construction has reached in it. It holds row
// ids, never cells: readers go to the snapshot's typed vectors.
type frame struct {
	ts  *relstore.TableSnap
	ids []int
	// list identifies this (ts, ids) list among all the lists the context
	// has installed, so a subquery plan knows which one its groups are for.
	list uint64
	pos  int
	id   int // ids[pos], the current row
	// inner is the frame one level down, created when an Agg first needs it.
	inner *frame
	// masks is, while the member loop runs a chunk of this list, one word
	// per CASE WHEN of the Agg body it runs: bit pos%memberChunk is whether
	// the current member satisfies the Cond (members). It is empty
	// otherwise; its array is kept for the frame's next member loop.
	masks []uint64
}

// setList installs ids (rows of ts) as f's row list; position it with
// setPos.
func (ec *evalContext) setList(f *frame, ts *relstore.TableSnap, ids []int) {
	ec.lists++
	f.ts, f.ids, f.list = ts, ids, ec.lists
}

// setRows installs the driving rows the next rows are constructed from;
// position with setPos.
func (ec *evalContext) setRows(ts *relstore.TableSnap, ids []int) {
	ec.setList(&ec.driving, ts, ids)
}

// setPos moves the driving frame to row i of its list.
func (ec *evalContext) setPos(i int) { ec.driving.setPos(i) }

// nest installs ids (rows of ts) as the row list one level below f.
func (ec *evalContext) nest(f *frame, ts *relstore.TableSnap, ids []int) *frame {
	if f.inner == nil {
		f.inner = new(frame)
	}
	ec.setList(f.inner, ts, ids)
	return f.inner
}

func (f *frame) setPos(i int) { f.pos, f.id = i, f.ids[i] }

// subPlan is the per-run plan of one SubQuery: everything that does not
// depend on the outer row is resolved once — the pinned inner table, the
// join variant and its constant-predicate ordinals (relstore.PlanGroupJoin),
// the outer key and ORDER BY ordinals — next to the scratch its groups live
// in. The scratch outlives the run: subPlans are pooled, so a warmed-up
// process joins without allocating (release).
type subPlan struct {
	sub      *SubQuery
	outer    *relstore.TableSnap
	join     relstore.GroupJoin
	outerOrd int // ordinal of CorrOuter in outer; -1: uncorrelated or absent
	orderOrd int // ordinal of OrderBy in the inner table; -1: unordered

	// groups holds the join's result for the outer list numbered list
	// (0: not joined yet). An uncorrelated subquery selects the same rows
	// for every outer row of the run: it is joined once, as a single group.
	groups relstore.Groups
	list   uint64
	sorted []int           // the current group in ORDER BY order
	where  []relstore.Pred // the run's binding of sub.Where, when it has placeholders
}

var subPlanPool = sync.Pool{New: func() any { return new(subPlan) }}

// planSub plans sub as it appears under rows of outer, against snap, with
// the placeholders of its WHERE clause bound from params (nil: left as
// placeholders, which EXPLAIN renders as :name). The plan comes from a pool:
// release it when the run (or the EXPLAIN) is over.
func planSub(snap *relstore.Snapshot, sub *SubQuery, outer *relstore.TableSnap, params map[string]relstore.Value) (*subPlan, error) {
	inner := snap.Table(sub.Table)
	if inner == nil {
		return nil, fmt.Errorf("sqlxml: unknown table %q", sub.Table)
	}
	p := subPlanPool.Get().(*subPlan)
	where := sub.Where
	if params != nil && relstore.HasParams(where) {
		var err error
		if p.where, err = relstore.AppendBound(p.where[:0], where, params); err != nil {
			subPlanPool.Put(p)
			return nil, err
		}
		where = p.where
	}
	p.sub, p.outer, p.outerOrd, p.orderOrd, p.list = sub, outer, -1, -1, 0
	p.join = relstore.PlanGroupJoin(inner, sub.CorrInner, where)
	if sub.CorrInner != "" {
		p.outerOrd = outer.ColIndex(sub.CorrOuter)
	}
	if sub.OrderBy != "" {
		p.orderOrd = inner.ColIndex(sub.OrderBy)
	}
	return p, nil
}

// release parks the plan's scratch for a later run, dropping everything
// that points into this run's snapshot.
func (p *subPlan) release() {
	p.sub, p.outer, p.join = nil, nil, relstore.GroupJoin{}
	p.groups.Release()
	clear(p.where)
	p.where = p.where[:0]
	subPlanPool.Put(p)
}

// release returns the context's subquery plans to their pool. The context
// stays usable (a later row would plan afresh), so calling it at every end
// of stream — EOF, error, both — is safe; nothing obtained from group may
// be read afterwards.
func (ec *evalContext) release() {
	for i, p := range ec.subs {
		p.release()
		ec.subs[i] = nil
	}
	ec.subs = ec.subs[:0]
}

// plan returns the run's plan for sub under rows of outer, planning it on
// first use.
func (ec *evalContext) plan(sub *SubQuery, outer *relstore.TableSnap) (*subPlan, error) {
	for _, p := range ec.subs {
		if p.sub == sub && p.outer == outer {
			return p, nil
		}
	}
	p, err := planSub(ec.snap, sub, outer, ec.params)
	if err != nil {
		return nil, err
	}
	if ec.subs == nil {
		ec.subs = ec.subBuf[:0]
	}
	ec.subs = append(ec.subs, p)
	return p, nil
}

// group returns the pinned inner table of sub and the inner row ids it
// selects for the current row of f, in output order. The ids are read-only
// and valid until the next group call for the same subquery.
func (ec *evalContext) group(sub *SubQuery, f *frame) (*relstore.TableSnap, []int, error) {
	p, err := ec.plan(sub, f.ts)
	if err != nil {
		return nil, nil, err
	}
	at := 0
	switch {
	case sub.CorrInner == "":
		if p.list == 0 {
			if err := p.join.Join(oneKey, &p.groups, ec.stats, ec.gov); err != nil {
				return nil, nil, err
			}
			p.list = f.list
		}
	default:
		if p.list != f.list {
			if err := ec.joinList(p, f); err != nil {
				return nil, nil, err
			}
			p.list = f.list
		}
		at = f.pos
	}
	ids := p.groups.Runs[at]
	if p.orderOrd >= 0 && len(ids) > 1 {
		p.sorted = append(p.sorted[:0], ids...)
		ids = p.sorted
		sortByOrdinal(p.join.Inner(), ids, p.orderOrd, sub.Descending)
	}
	return p.join.Inner(), ids, nil
}

// oneKey is the single NULL key an uncorrelated subquery is joined with.
var oneKey = relstore.Keys{Ord: -1, IDs: []int{0}}

// joinList runs p's group-join for every row of f's list: the keys are the
// list's cells of the outer column, which the join reads typed.
func (ec *evalContext) joinList(p *subPlan, f *frame) error {
	return p.join.Join(relstore.Keys{Table: f.ts, Ord: p.outerOrd, IDs: f.ids}, &p.groups, ec.stats, ec.gov)
}

// sortByOrdinal orders ids by one column of t, stably: rows with equal keys
// keep their heap order in both directions.
func sortByOrdinal(t *relstore.TableSnap, ids []int, ord int, desc bool) {
	slices.SortStableFunc(ids, func(a, b int) int {
		c := t.Compare(ord, a, b)
		if desc {
			return -c
		}
		return c
	})
}
