package sqlxml

import (
	"slices"

	"repro/internal/relstore"
)

// This file splits one large XMLAgg group across the morsel pool: the
// relational engine's own parallelism applied to a constructor, where a
// single driving row's document (a whole table aggregated under one
// element) would otherwise be built on one core. The group's members are
// cut into morsels, each constructed by the Agg's compiled body on a worker
// with an evalContext of its own, and the consumer appends the morsels'
// bytes in member order. Only a body the compiler marked (subOp.split, see
// compiler.agg) splits, only from a context that is not itself a morsel
// worker, and only at MorselMinRows members or more.

// splitSite is the fault point the split hits once per morsel it pulls.
const splitSite = "sqlxml.agg.split"

// aggSplit is the scratch of one Agg's split: the pool, a context per
// worker, and through the pool's slots one byte buffer per in-flight
// morsel. A subOp keeps the last one (subOp.scratch), so a warmed-up plan
// splits without allocating.
type aggSplit struct {
	m     relstore.Morsels[[]byte]
	ecs   []*evalContext
	body  []op
	inner *relstore.TableSnap
	// perMember is the bytes per member the last split built: a slot's
	// buffer is sized for its morsel up front.
	perMember int
}

// split constructs the members ids (rows of inner) of sub's group into buf,
// a morsel per worker at a time, and appends the bytes in member order.
func (ec *evalContext) split(sub *subOp, inner *relstore.TableSnap, ids []int, buf []byte) ([]byte, error) {
	s := sub.scratch.Swap(nil)
	if s == nil {
		s = &aggSplit{body: sub.body}
	}
	s.inner = inner
	for len(s.ecs) < int(ec.workers) {
		s.ecs = append(s.ecs, new(evalContext))
	}
	for _, w := range s.ecs {
		w.bindRun(ec)
	}
	m := relstore.OpenGroupMorsels(&s.m, ids, splitSite, ec.stats, ec.gov, int(ec.workers), s)
	// The pending '>' the first member would have written (compiler.agg).
	buf = ec.closeTag(buf)
	start := len(buf)
	for {
		r, ok := m.Next()
		if !ok {
			break
		}
		buf = append(buf, *r.Out...)
	}
	err := m.Err()
	s.perMember = (len(buf) - start) / len(ids)
	s.inner = nil
	for _, w := range s.ecs {
		w.unbindRun()
	}
	sub.scratch.CompareAndSwap(nil, s)
	return buf, err
}

// RunMorsel is the split's morsel job: worker w builds members ids into
// out, one after another, with the open bit false at every member boundary.
func (s *aggSplit) RunMorsel(w int, ids []int, out *[]byte) error {
	ec := s.ecs[w]
	buf := slices.Grow((*out)[:0], s.perMember*len(ids))
	// The morsel is the row list the body's own subqueries group-join.
	ec.setRows(s.inner, ids)
	ec.open = false // a morsel that failed may have left it set
	var err error
	for i := range ids {
		ec.setPos(i)
		if buf, err = ec.run(s.body, &ec.driving, buf); err != nil {
			break
		}
	}
	*out = buf
	if ferr := ec.flushTicks(); err == nil {
		err = ferr
	}
	return err
}

// bindRun readies a worker's context to construct for run, the consumer's
// context: the same snapshot, counters, governor, parameters and bound
// filters.
func (ec *evalContext) bindRun(run *evalContext) {
	ec.snap, ec.stats, ec.gov, ec.params, ec.filters = run.snap, run.stats, run.gov, run.params, run.filters
}

// unbindRun drops everything a worker's context holds of the run it worked
// for — its snapshot, governor, parameters, subquery plans and row lists —
// so a kept context pins nothing.
func (ec *evalContext) unbindRun() {
	ec.release()
	ec.snap, ec.stats, ec.gov, ec.params, ec.filters = nil, nil, nil, nil, nil
	ec.ticks = 0
	for f := &ec.driving; f != nil; f = f.inner {
		f.ts, f.ids = nil, nil
	}
}
