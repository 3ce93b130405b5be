package xsltdb

// EXPLAIN and EXPLAIN ANALYZE share one renderer: writeExplainHeader prints
// the compiled strategy and plan-cache status, then the static form appends
// the physical access paths while the analyzing form runs the plan under a
// trace and appends the operator tree with actual rows and timings.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/obs"
)

// writeExplainHeader renders the lines shared by ExplainPlan and
// ExplainAnalyze: the chosen strategy (with the fallback reason when a
// stronger one was unavailable) and the plan cache's view of this
// compilation.
func (ct *CompiledTransform) writeExplainHeader(sb *strings.Builder, st *planState) {
	fmt.Fprintf(sb, "strategy: %s", st.strategy)
	if st.fallback != "" {
		fmt.Fprintf(sb, " (fallback: %s)", st.fallback)
	}
	sb.WriteByte('\n')
	cached := ct.db.plans.contains(newPlanKey(ct.viewName, st.viewVersion, ct.source, ct.opts))
	cs := ct.db.PlanCacheStats()
	fmt.Fprintf(sb, "plan cache: cached=%t entries=%d hits=%d misses=%d\n",
		cached, cs.Entries, cs.CacheHits, cs.CacheMisses)
}

// ExplainPlan describes the compiled plan without running it: the strategy
// and plan-cache header, then the physical access path — for the SQL
// strategy the full plan including correlated subqueries, for the fallback
// strategies the driving access path their view materialization would use.
//
// Run options refine the explanation: WithWhere predicates join the plan,
// WithParam values substitute into bind variables (unbound parameters
// render as :name — the plan's shape does not depend on the value), and
// WithoutPushdown shows the full-scan baseline plan.
func (ct *CompiledTransform) ExplainPlan(opts ...RunOption) string {
	st := ct.snapshot()
	var sb strings.Builder
	ct.writeExplainHeader(&sb, st)
	spec, err := ct.db.runSpec(st, buildRunOptions(opts), true)
	if err != nil {
		sb.WriteString("explain: " + err.Error())
		return sb.String()
	}
	if st.plan != nil {
		sb.WriteString(ct.db.exec.ExplainQuerySpec(st.plan, spec))
	} else {
		sb.WriteString(ct.db.exec.ExplainViewSpec(st.view, st.drivingWhere(), spec))
	}
	return sb.String()
}

// ExplainAnalyze runs the transformation and renders the operator tree with
// the chosen access path and the actual per-operator wall times, invocation
// counts and row counts — the EXPLAIN ANALYZE of the XSLT pipeline. The same
// header as ExplainPlan precedes the tree, followed by the run's ExecStats
// line.
//
// The run is a real execution with real side effects on statistics and
// metrics. On failure the rendered tree is still returned — error-tagged
// spans show where the run stopped — together with the error.
func (ct *CompiledTransform) ExplainAnalyze(ctx context.Context, opts ...RunOption) (string, error) {
	tr := obs.New()
	defer tr.Release()
	all := make([]RunOption, 0, len(opts)+1)
	all = append(all, opts...)
	all = append(all, WithTrace(tr))
	res, err := ct.Run(ctx, all...)
	st := ct.snapshot()
	var sb strings.Builder
	ct.writeExplainHeader(&sb, st)
	if res != nil {
		sb.WriteString("actual: " + res.Stats.String() + "\n")
	}
	sb.WriteString(tr.Tree())
	return sb.String(), err
}

// ExplainAnalyze runs the whole pipeline — the view-backed first stage plus
// every chained stage — and renders both operator trees: the first stage's
// "run" tree (scan / construct with actuals) and the "chain"
// tree with one span per chained stage. The header is the FIRST stage's
// (the only stage with a physical plan); a chain summary line names the
// stages that follow it.
//
// Like the single-stage form this is a real execution with real side
// effects; on failure the rendered trees still show where the run stopped.
func (c *ChainedTransform) ExplainAnalyze(ctx context.Context, opts ...RunOption) (string, error) {
	tr := obs.New()
	defer tr.Release()
	all := make([]RunOption, 0, len(opts)+1)
	all = append(all, opts...)
	all = append(all, WithTrace(tr))
	res, err := c.Run(ctx, all...)
	st := c.first.snapshot()
	var sb strings.Builder
	c.first.writeExplainHeader(&sb, st)
	rewritten, interpreted := c.Stages()
	fmt.Fprintf(&sb, "chain: %d stage(s) after the view stage (%d rewritten, %d interpreted)\n",
		rewritten+interpreted, rewritten, interpreted)
	if res != nil {
		sb.WriteString("actual: " + res.Stats.String() + "\n")
	}
	sb.WriteString(tr.Tree())
	return sb.String(), err
}
