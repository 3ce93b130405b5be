package xsltmark

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xmltree"
	"repro/internal/xq2sql"
	"repro/internal/xquery"
	"repro/internal/xschema"
	"repro/internal/xslt"
	"repro/internal/xtest"
)

func nows(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	return strings.ReplaceAll(s, "> <", "><")
}

func TestFortyCases(t *testing.T) {
	cases := All()
	if len(cases) != 40 {
		t.Fatalf("suite has %d cases, want 40", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.Name] {
			t.Errorf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
	}
	for _, name := range []string{"dbonerow", "avts", "chart", "metric", "total"} {
		if !seen[name] {
			t.Errorf("paper-cited case %q missing", name)
		}
	}
}

// TestAllCasesRewriteEquivalence runs every case through the functional
// interpreter AND the paper-style rewrite (ModeAuto), demanding identical
// output. This is the suite-wide correctness gate.
func TestAllCasesRewriteEquivalence(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			input := c.Gen(20)
			doc, err := xmltree.Parse(input)
			if err != nil {
				t.Fatalf("generated input does not parse: %v", err)
			}
			sheet, err := xslt.ParseStylesheet(c.Stylesheet)
			if err != nil {
				t.Fatalf("stylesheet: %v", err)
			}
			want, err := xslt.New(sheet).TransformToString(doc)
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}

			schema, err := xschema.ParseCompact(c.Schema)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			res, err := core.Rewrite(sheet, schema, core.ModeAuto)
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			out, err := xquery.EvalModule(res.Module, xquery.NewEnv(xquery.Item(doc)))
			if err != nil {
				t.Fatalf("generated query failed: %v\n%s", err, res.Module.String())
			}
			got := xquery.SerializeSeq(out)
			if nows(got) != nows(want) {
				t.Fatalf("rewrite diverges:\n got:  %s\n want: %s\nquery:\n%s",
					nows(got), nows(want), res.Module.String())
			}
		})
	}
}

// TestInlineCoverage reproduces the paper's §5 statistic: 23 of the 40
// cases rewrite to fully inlined XQuery (no function calls).
func TestInlineCoverage(t *testing.T) {
	inlined := 0
	for _, c := range All() {
		sheet := xtest.Sheet(t, c.Stylesheet)
		schema := xtest.Schema(t, c.Schema)
		res, err := core.Rewrite(sheet, schema, core.ModeAuto)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if res.Inlined != c.ExpectInline {
			t.Errorf("%s: inlined=%v, expected %v (mode %v: %s)",
				c.Name, res.Inlined, c.ExpectInline, res.Mode, recursionReason(res))
		}
		if res.Inlined {
			inlined++
		}
	}
	if inlined != 23 {
		t.Fatalf("inline coverage = %d/40, want the paper's 23/40", inlined)
	}
}

func recursionReason(res *core.Result) string {
	if res.PE != nil {
		return res.PE.RecursionReason
	}
	return ""
}

// TestRelationalBackingMatchesDocuments: for cases with a relational
// backing, the view materializes to the same document as the generator.
func TestRelationalBackingMatchesDocuments(t *testing.T) {
	for _, c := range All() {
		if c.Rel == nil {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			const n = 25
			db := relstore.NewDB()
			if err := c.Rel.Setup(db, n); err != nil {
				t.Fatal(err)
			}
			ex := sqlxml.NewExecutor(db)
			docs, err := ex.MaterializeViewSpec(c.Rel.View(), nil, &ex.Stats, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(docs) != 1 {
				t.Fatalf("view rows = %d, want 1", len(docs))
			}
			got := strings.TrimPrefix(docs[0].String(), `<?xml version="1.0"?>`)
			want := c.Gen(n)
			if got != want {
				t.Fatalf("view and generator disagree:\n view: %.200s\n gen:  %.200s", got, want)
			}
		})
	}
}

// TestFigureCasesLowerToSQL: the five paper-cited cases must survive the
// FULL pipeline — XSLT → XQuery → SQL/XML — and produce the same result as
// the functional path over the materialized view.
func TestFigureCasesLowerToSQL(t *testing.T) {
	for _, name := range []string{"dbonerow", "avts", "chart", "metric", "total", "dbaccess", "dbtail"} {
		c := ByName(name)
		if c == nil || c.Rel == nil {
			t.Fatalf("case %q missing relational backing", name)
		}
		t.Run(name, func(t *testing.T) {
			const n = 50
			db := relstore.NewDB()
			if err := c.Rel.Setup(db, n); err != nil {
				t.Fatal(err)
			}
			for table, cols := range c.Rel.IndexCols {
				for _, col := range cols {
					if err := db.Table(table).CreateIndex(col); err != nil {
						t.Fatal(err)
					}
				}
			}
			ex := sqlxml.NewExecutor(db)
			view := c.Rel.View()
			schema, err := ex.DeriveSchema(view)
			if err != nil {
				t.Fatal(err)
			}
			sheet := xtest.Sheet(t, c.Stylesheet)
			res, err := core.Rewrite(sheet, schema, core.ModeAuto)
			if err != nil {
				t.Fatal(err)
			}
			q, err := xq2sql.Translate(res.Module, view)
			if err != nil {
				t.Fatalf("lowering failed: %v\n%s", err, res.Module.String())
			}
			docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(docs) != 1 {
				t.Fatalf("rows = %d", len(docs))
			}
			var sb strings.Builder
			docs[0].Serialize(&sb, xmltree.SerializeOptions{OmitDecl: true})

			// Functional reference: materialize + interpret.
			views, err := ex.MaterializeViewSpec(view, nil, &ex.Stats, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := xslt.New(sheet).TransformToString(views[0])
			if err != nil {
				t.Fatal(err)
			}
			if nows(sb.String()) != nows(want) {
				t.Fatalf("SQL path diverges:\n got:  %s\n want: %s\nsql:\n%s",
					nows(sb.String()), nows(want), q.SQL())
			}
		})
	}
}

// TestDbonerowUsesIndex confirms the Figure 2 mechanism: with the id index,
// the lowered dbonerow plan probes the B-tree instead of scanning.
func TestDbonerowUsesIndex(t *testing.T) {
	c := ByName("dbonerow")
	db := relstore.NewDB()
	if err := c.Rel.Setup(db, 1000); err != nil {
		t.Fatal(err)
	}
	_ = db.Table("sales").CreateIndex("id")
	ex := sqlxml.NewExecutor(db)
	view := c.Rel.View()
	schema, _ := ex.DeriveSchema(view)
	res, err := core.Rewrite(xtest.Sheet(t, c.Stylesheet), schema, core.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xq2sql.Translate(res.Module, view)
	if err != nil {
		t.Fatal(err)
	}
	explain := ex.ExplainQuerySpec(q, nil)
	if !strings.Contains(explain, "INDEX PROBE sales(id)") {
		t.Fatalf("dbonerow should probe the id index:\n%s", explain)
	}
	before := ex.Stats
	if _, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil); err != nil {
		t.Fatal(err)
	}
	scanned := ex.Stats.RowsScanned - before.RowsScanned
	if scanned > 10 {
		t.Fatalf("index path scanned %d heap rows; should be near zero", scanned)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	if GenSalesDoc(10) != GenSalesDoc(10) {
		t.Fatal("sales generator not deterministic")
	}
	if GenNestedDoc(10) != GenNestedDoc(10) {
		t.Fatal("nested generator not deterministic")
	}
	if GenWordsDoc(10) != GenWordsDoc(10) {
		t.Fatal("words generator not deterministic")
	}
	// Size scales roughly linearly.
	if len(GenSalesDoc(100)) < 4*len(GenSalesDoc(10)) {
		t.Fatal("sales generator does not scale")
	}
}

func TestSchemasMatchGenerators(t *testing.T) {
	for _, c := range All() {
		schema := xtest.Schema(t, c.Schema)
		doc, err := xmltree.Parse(c.Gen(8))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if doc.DocumentElement().Name != schema.Root.Name {
			t.Errorf("%s: document root %q != schema root %q", c.Name, doc.DocumentElement().Name, schema.Root.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("dbonerow") == nil {
		t.Fatal("dbonerow missing")
	}
	if ByName("zzz") != nil {
		t.Fatal("unknown case should be nil")
	}
}
