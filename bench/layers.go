package main

// layers.go is the only file of the benchmark that imports repro/internal.
// It is the adapter the traced pass uses to call a layer at its own public
// entry point, so that a layer is timed from outside and nothing is added to
// the program. It keeps to the forms the roadmap keeps: the Spec-taking
// executor entry points, the snapshot (At) access functions, wal.Open and
// Append, core.Rewrite, xq2sql.Translate and xslt.ParseStylesheet.
// Everything else in the benchmark goes through packages repro and
// repro/serve.

import (
	"context"
	"fmt"
	"strings"
	"time"

	xsltdb "repro"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/wal"
	"repro/internal/xmltree"
	"repro/internal/xq2sql"
	"repro/internal/xschema"
	"repro/internal/xslt"
	"repro/internal/xsltmark"
)

// paperStylesheet is the stylesheet of the paper's Table 5.
func paperStylesheet() string { return xslt.PaperStylesheet }

// markCase is one XSLTMark stylesheet with the shape of input it reads.
type markCase struct {
	Name, Stylesheet string
	Shape            string // "sales", "words" or "nested": which view it compiles against
	compact          string // the suite's own structural schema, for the inline count
}

// markCases lists the forty XSLTMark stylesheets. Only the stylesheets and
// their schemas are taken from the suite; the data comes from gen.go.
func markCases() []markCase {
	var out []markCase
	for _, c := range xsltmark.All() {
		shape := "sales"
		switch c.Schema {
		case xsltmark.WordsSchema:
			shape = "words"
		case xsltmark.NestedSchema:
			shape = "nested"
		}
		out = append(out, markCase{Name: c.Name, Stylesheet: c.Stylesheet, Shape: shape, compact: c.Schema})
	}
	return out
}

// inlinesFully reports whether the paper-style rewrite fully inlines the
// case over the suite's own schema (the paper's "23 out of 40").
func (c markCase) inlinesFully() (bool, error) {
	sheet, err := xslt.ParseStylesheet(c.Stylesheet)
	if err != nil {
		return false, err
	}
	schema, err := xschema.ParseCompact(c.compact)
	if err != nil {
		return false, err
	}
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		return false, err
	}
	return res.Inlined, nil
}

// engine is what lies below the facade of one database: the relational
// store and a SQL/XML executor over it.
type engine struct {
	rel  *relstore.DB
	exec *sqlxml.Executor
}

func newEngine(db *xsltdb.Database) *engine {
	return &engine{rel: db.Rel(), exec: sqlxml.NewExecutor(db.Rel())}
}

// plan is a stylesheet compiled stage by stage outside the facade, with the
// time each stage of the compile pipeline took.
type plan struct {
	view  *sqlxml.ViewDef
	query *sqlxml.Query // nil when the stylesheet did not lower to SQL/XML

	parse     time.Duration // xslt.ParseStylesheet
	rewrite   time.Duration // schema derivation + core.Rewrite (pe and the xsltvm sample run included)
	translate time.Duration // xq2sql.Translate; 0 when query is nil
}

// compile runs the stages of Database.CompileTransform one by one.
func (e *engine) compile(view *xsltdb.ViewDef, stylesheet string) (*plan, error) {
	p := &plan{view: view}
	t0 := time.Now()
	sheet, err := xslt.ParseStylesheet(stylesheet)
	p.parse = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	schema, err := e.exec.DeriveSchema(view)
	if err != nil {
		return nil, err
	}
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	p.rewrite = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	if q, err := xq2sql.Translate(res.Module, view); err == nil {
		p.query = q
		p.translate = time.Since(t0)
	}
	return p, nil
}

// spec builds the executor's RunSpec the way Database.runSpec does: the
// where expression lowered to driving predicates, the parameters bound, one
// snapshot pinned for the whole run.
func (e *engine) spec(p *plan, a runArgs) (*sqlxml.RunSpec, error) {
	s := &sqlxml.RunSpec{Snap: e.rel.Snapshot()}
	if a.Where != "" {
		preds, err := xq2sql.ExtractWhere(p.view, a.Where)
		if err != nil {
			return nil, err
		}
		s.Extra = preds
	}
	if len(a.Params) > 0 {
		s.Params = make(map[string]relstore.Value, len(a.Params))
		for k, v := range a.Params {
			s.Params[k] = v
		}
	}
	return s, nil
}

// docSet is the executor's output: one constructed tree per driving row.
type docSet []*xmltree.Node

// execute replays the SQL strategy below the facade: the same executor call
// runStrategy makes, without the serialization that follows it.
func (e *engine) execute(p *plan, a runArgs) (docSet, error) {
	s, err := e.spec(p, a)
	if err != nil {
		return nil, err
	}
	var sink relstore.Stats
	return e.exec.ExecQueryParallelSpec(p.query, 0, &sink, governor.New(context.Background()), s)
}

// drain replays only the driving access path of execute — plan the access
// on a pinned snapshot, open the batch iterator, pull every batch — and
// returns the number of driving rows.
func (e *engine) drain(p *plan, a runArgs) (int, error) {
	s, err := e.spec(p, a)
	if err != nil {
		return 0, err
	}
	where := append(append([]relstore.Pred{}, p.query.Where...), s.Extra...)
	bound, err := relstore.BindPreds(where, s.Params)
	if err != nil {
		return 0, err
	}
	ts := s.Snap.Table(p.query.Table)
	return drainBatches(relstore.PlanAccessAt(ts, bound), ts)
}

func drainBatches(ap relstore.AccessPlan, ts *relstore.TableSnap) (int, error) {
	var sink relstore.Stats
	it := ap.OpenBatchAt(ts, &sink, governor.New(context.Background()), relstore.BatchOpts{})
	batch := relstore.GetBatch(relstore.BatchOpts{}.Size())
	defer relstore.PutBatch(batch)
	rows := 0
	for {
		n, ok := it.NextBatch(batch)
		if !ok {
			break
		}
		rows += n
	}
	return rows, it.Err()
}

// materialize builds the view rows an operation selects, as the functional
// strategies do before they interpret or evaluate them.
func (e *engine) materialize(p *plan, a runArgs) (int, error) {
	s, err := e.spec(p, a)
	if err != nil {
		return 0, err
	}
	var where []relstore.Pred
	if p.query != nil {
		where = p.query.Where
	}
	var sink relstore.Stats
	docs, err := e.exec.MaterializeViewSpec(p.view, where, &sink, governor.New(context.Background()), s)
	return len(docs), err
}

// probe looks one key up through the index on table.col.
func (e *engine) probe(table, col string, key int64) (int, error) {
	ts := e.rel.Snapshot().Table(table)
	if ts == nil {
		return 0, fmt.Errorf("no table %q", table)
	}
	ap := relstore.PlanAccessAt(ts, []relstore.Pred{{Col: col, Op: relstore.CmpEq, Val: key}})
	if ap.Kind != relstore.PathIndexProbe {
		return 0, fmt.Errorf("%s.%s: planner chose %v, want an index probe", table, col, ap.Kind)
	}
	return drainBatches(ap, ts)
}

// fullScan reads every row of a table through the batch scan.
func (e *engine) fullScan(table string) (int, error) {
	ts := e.rel.Snapshot().Table(table)
	if ts == nil {
		return 0, fmt.Errorf("no table %q", table)
	}
	return drainBatches(relstore.PlanAccessAt(ts, nil), ts)
}

// snapshot pins and drops one MVCC snapshot.
func (e *engine) snapshot() { _ = e.rel.Snapshot() }

// serializeDocs renders trees to text exactly as the facade's SQL strategy
// does, and returns the bytes produced.
func serializeDocs(docs docSet) int {
	n := 0
	for _, d := range docs {
		var sb strings.Builder
		d.Serialize(&sb, xmltree.SerializeOptions{OmitDecl: true})
		n += sb.Len()
	}
	return n
}

// parseRows parses serialized rows back into trees, the first step of the
// functional path over stored XML.
func parseRows(rows []string) error {
	for _, r := range rows {
		if _, err := xmltree.Parse(r); err != nil {
			return err
		}
	}
	return nil
}

// withEngineTrace returns the run option that makes a Run record the
// program's own spans, and the function that releases them.
func withEngineTrace() (xsltdb.RunOption, func()) {
	t := obs.New()
	return xsltdb.WithTrace(t), t.Release
}

// walProbe appends n records of the given payload to a fresh log in dir and
// returns the time of each Append. With sync set the log fsyncs every
// append and the time of each fsync is returned as well.
func walProbe(dir string, payload []byte, n int, sync bool) (appendNs, fsyncNs []float64, err error) {
	opts := wal.Options{Policy: wal.SyncNever}
	if sync {
		opts.Policy = wal.SyncAlways
		opts.OnFsync = func(d time.Duration) { fsyncNs = append(fsyncNs, float64(d.Nanoseconds())) }
	}
	lg, _, err := wal.Open(dir, opts, func(byte, []byte) error { return nil })
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := lg.Append(1, payload); err != nil {
			_ = lg.Close()
			return nil, nil, err
		}
		appendNs = append(appendNs, float64(time.Since(t0).Nanoseconds()))
	}
	return appendNs, fsyncNs, lg.Close()
}
