package sqlxml

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/xschema"
)

func setup(t *testing.T) (*relstore.DB, *Executor) {
	t.Helper()
	db := relstore.NewDB()
	if err := SetupDeptEmp(db); err != nil {
		t.Fatal(err)
	}
	return db, NewExecutor(db)
}

func nows(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	return strings.ReplaceAll(s, "> <", "><")
}

// TestDeptEmpView reproduces paper Table 4: the two XMLType instances the
// dept_emp view generates.
func TestDeptEmpView(t *testing.T) {
	_, ex := setup(t)
	docs, err := ex.MaterializeViewSpec(DeptEmpView(), nil, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("rows = %d", len(docs))
	}
	want1 := `<dept><dname>ACCOUNTING</dname><loc>NEW YORK</loc><employees>` +
		`<emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>` +
		`<emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>` +
		`</employees></dept>`
	got1 := nows(docs[0].String())
	got1 = strings.TrimPrefix(got1, `<?xml version="1.0"?>`)
	if got1 != want1 {
		t.Fatalf("row 1:\ngot:  %s\nwant: %s", got1, want1)
	}
	want2 := `<dept><dname>OPERATIONS</dname><loc>BOSTON</loc><employees>` +
		`<emp><empno>7954</empno><ename>SMITH</ename><sal>4900</sal></emp>` +
		`</employees></dept>`
	got2 := strings.TrimPrefix(nows(docs[1].String()), `<?xml version="1.0"?>`)
	if got2 != want2 {
		t.Fatalf("row 2:\ngot:  %s\nwant: %s", got2, want2)
	}
}

func TestViewSQLRendering(t *testing.T) {
	sql := DeptEmpView().SQL()
	for _, frag := range []string{
		"CREATE VIEW dept_emp",
		`XMLElement("dept"`,
		`XMLElement("dname", DNAME)`,
		"SELECT XMLAgg(",
		"FROM EMP",
		"DEPTNO = OUTER.DEPTNO",
	} {
		if !strings.Contains(sql, frag) {
			t.Errorf("view SQL missing %q:\n%s", frag, sql)
		}
	}
}

// TestExample1FinalQuery executes the paper's Table 7 plan — the fully
// rewritten SQL/XML query — and checks it produces the Table 6 content.
func TestExample1FinalQuery(t *testing.T) {
	db, ex := setup(t)
	if err := db.Table("emp").CreateIndex("sal"); err != nil {
		t.Fatal(err)
	}
	q := &Query{
		Table: "dept",
		Body: &Concat{Items: []XMLExpr{
			&Element{Name: "H1", Children: []XMLExpr{&Literal{Text: "HIGHLY PAID DEPT EMPLOYEES"}}},
			&Element{Name: "H2", Children: []XMLExpr{&Literal{Text: "Department name: "}, &Column{Name: "dname"}}},
			&Element{Name: "H2", Children: []XMLExpr{&Literal{Text: "Department location: "}, &Column{Name: "loc"}}},
			&Element{Name: "H2", Children: []XMLExpr{&Literal{Text: "Employees Table"}}},
			&Element{Name: "table",
				Attrs: []Attr{{Name: "border", Value: &Literal{Text: "2"}}},
				Children: []XMLExpr{
					&Element{Name: "td", Children: []XMLExpr{&Element{Name: "b", Children: []XMLExpr{&Literal{Text: "EmpNo"}}}}},
					&Element{Name: "td", Children: []XMLExpr{&Element{Name: "b", Children: []XMLExpr{&Literal{Text: "Name"}}}}},
					&Element{Name: "td", Children: []XMLExpr{&Element{Name: "b", Children: []XMLExpr{&Literal{Text: "Weekly Salary"}}}}},
					&Agg{Sub: &SubQuery{
						Table:     "emp",
						CorrInner: "deptno",
						CorrOuter: "deptno",
						Where:     []relstore.Pred{{Col: "sal", Op: relstore.CmpGt, Val: int64(2000)}},
						Body: &Element{Name: "tr", Children: []XMLExpr{
							&Element{Name: "td", Children: []XMLExpr{&Column{Name: "empno"}}},
							&Element{Name: "td", Children: []XMLExpr{&Column{Name: "ename"}}},
							&Element{Name: "td", Children: []XMLExpr{&Column{Name: "sal"}}},
						}},
					}},
				}},
		}},
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("result rows = %d", len(docs))
	}
	got := nows(docs[0].String())
	if !strings.Contains(got, "<tr><td>7782</td><td>CLARK</td><td>2450</td></tr>") {
		t.Fatalf("CLARK row missing: %s", got)
	}
	if strings.Contains(got, "MILLER") {
		t.Fatal("MILLER (1300) must be filtered by sal > 2000")
	}
	if !strings.Contains(nows(docs[1].String()), "<tr><td>7954</td><td>SMITH</td><td>4900</td></tr>") {
		t.Fatal("SMITH row missing")
	}
	// The generated SQL should look like Table 7.
	sql := q.SQL()
	for _, frag := range []string{"XMLConcat(", `XMLElement("H1"`, "SAL > 2000"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("query SQL missing %q", frag)
		}
	}
}

func TestExplainShowsIndexUse(t *testing.T) {
	db, ex := setup(t)
	q := &Query{
		Table: "dept",
		Body: &Agg{Sub: &SubQuery{
			Table: "emp", CorrInner: "deptno", CorrOuter: "deptno",
			Where: []relstore.Pred{{Col: "sal", Op: relstore.CmpGt, Val: int64(2000)}},
			Body:  &Element{Name: "e", Children: []XMLExpr{&Column{Name: "ename"}}},
		}},
	}
	// The subquery line is the group-join the executor runs, and which
	// variant it is follows from the indexes alone.
	for _, step := range []struct{ index, want string }{
		{"", "-> SCAN JOIN emp(deptno) = outer.deptno FILTER sal > 2000"},
		{"sal", "-> SCAN JOIN emp(deptno) = outer.deptno OVER INDEX RANGE SCAN emp(sal) sal > 2000"},
		{"deptno", "-> INDEX JOIN emp(deptno) = outer.deptno FILTER sal > 2000"},
	} {
		if step.index != "" {
			if err := db.Table("emp").CreateIndex(step.index); err != nil {
				t.Fatal(err)
			}
		}
		if plan := ex.ExplainQuerySpec(q, nil); !strings.Contains(plan, step.want) {
			t.Fatalf("after indexing %q want %q in:\n%s", step.index, step.want, plan)
		}
	}
}

func TestScalarAggregates(t *testing.T) {
	_, ex := setup(t)
	q := &Query{
		Table: "dept",
		Body: &Element{Name: "stats", Children: []XMLExpr{
			&Element{Name: "n", Children: []XMLExpr{
				&ScalarAgg{Fn: "count", Sub: &SubQuery{Table: "emp", CorrInner: "deptno", CorrOuter: "deptno"}},
			}},
			&Element{Name: "total", Children: []XMLExpr{
				&ScalarAgg{Fn: "sum", Col: "sal", Sub: &SubQuery{Table: "emp", CorrInner: "deptno", CorrOuter: "deptno"}},
			}},
			&Element{Name: "top", Children: []XMLExpr{
				&ScalarAgg{Fn: "max", Col: "sal", Sub: &SubQuery{Table: "emp", CorrInner: "deptno", CorrOuter: "deptno"}},
			}},
			&Element{Name: "mean", Children: []XMLExpr{
				&ScalarAgg{Fn: "avg", Col: "sal", Sub: &SubQuery{Table: "emp", CorrInner: "deptno", CorrOuter: "deptno"}},
			}},
		}},
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := nows(docs[0].String())
	want := `<stats><n>2</n><total>3750</total><top>2450</top><mean>1875</mean></stats>`
	if !strings.Contains(got, want) {
		t.Fatalf("aggregates:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestOrderBySubquery(t *testing.T) {
	_, ex := setup(t)
	q := &Query{
		Table: "dept",
		Where: []relstore.Pred{{Col: "deptno", Op: relstore.CmpEq, Val: int64(10)}},
		Body: &Agg{Sub: &SubQuery{
			Table: "emp", CorrInner: "deptno", CorrOuter: "deptno",
			OrderBy: "sal", Descending: true,
			Body: &Element{Name: "e", Children: []XMLExpr{&Column{Name: "ename"}}},
		}},
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := nows(docs[0].String())
	if !strings.Contains(got, "<e>CLARK</e><e>MILLER</e>") {
		t.Fatalf("order by desc wrong: %s", got)
	}
}

// TestSubqueriesJoinPerList: a subquery is joined when the first row of an
// outer list reaches it, for the whole list — so a correlated one scans the
// unindexed inner table once for both departments, an uncorrelated one once
// per run, and one under a branch no row takes not at all.
func TestSubqueriesJoinPerList(t *testing.T) {
	_, ex := setup(t)
	emps := func(sub *SubQuery) XMLExpr {
		sub.Table = "emp"
		sub.Body = &Element{Name: "e", Children: []XMLExpr{&Column{Name: "ename"}}}
		return &Agg{Sub: sub}
	}
	never := []relstore.Pred{{Col: "loc", Op: relstore.CmpEq, Val: "NOWHERE"}}
	for _, c := range []struct {
		name      string
		body      XMLExpr
		empScans  int64
		firstDept string
	}{
		{"correlated", emps(&SubQuery{CorrInner: "deptno", CorrOuter: "deptno"}), 1, "<e>CLARK</e><e>MILLER</e>"},
		{"uncorrelated", emps(&SubQuery{}), 1, "<e>CLARK</e><e>MILLER</e><e>SMITH</e>"},
		{"branch never taken", &Cond{Preds: never, Then: emps(&SubQuery{CorrInner: "deptno", CorrOuter: "deptno"})}, 0, ""},
	} {
		var stats relstore.Stats
		docs, err := ex.ExecQueryParallelSpec(&Query{Table: "dept", Body: c.body}, 0, &stats, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := strings.TrimPrefix(nows(docs[0].String()), `<?xml version="1.0"?>`); len(docs) != 2 || got != c.firstDept {
			t.Fatalf("%s: %d docs, first = %q, want %q", c.name, len(docs), got, c.firstDept)
		}
		if scans := stats.FullScans - 1; scans != c.empScans { // minus the driving scan of dept
			t.Fatalf("%s: emp scanned %d times, want %d", c.name, scans, c.empScans)
		}
	}
}

// TestDeriveSchema checks §3.2: structural information derived from the
// relational view definition.
func TestDeriveSchema(t *testing.T) {
	_, ex := setup(t)
	s, err := ex.DeriveSchema(DeptEmpView())
	if err != nil {
		t.Fatal(err)
	}
	if s.Root.Name != "dept" {
		t.Fatalf("root = %q", s.Root.Name)
	}
	dept := s.Lookup("dept")
	if dept.Group != xschema.GroupSeq || len(dept.Children) != 3 {
		t.Fatalf("dept decl wrong: %v %d", dept.Group, len(dept.Children))
	}
	// dname appears exactly once.
	dname := dept.Particle("dname")
	if dname == nil || dname.Repeating() {
		t.Fatal("dname cardinality wrong")
	}
	// emp repeats (XMLAgg).
	emp := s.Lookup("employees").Particle("emp")
	if emp == nil || !emp.Repeating() || !emp.Optional() {
		t.Fatal("emp should be 0..unbounded")
	}
	// Column types flow into leaf types.
	if s.Lookup("sal").Type != xschema.TypeInt {
		t.Fatal("sal should be int")
	}
	if s.Lookup("ename").Type != xschema.TypeString {
		t.Fatal("ename should be string")
	}
	// Schema is non-recursive, so the sample generator works.
	if s.IsRecursive() {
		t.Fatal("view schema cannot be recursive")
	}
	if _, err := s.GenerateSample(xschema.SampleOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSchemaWithAttrsAndAggregates(t *testing.T) {
	db := relstore.NewDB()
	tbl, _ := db.CreateTable("t",
		relstore.Column{Name: "id", Type: relstore.IntCol},
		relstore.Column{Name: "name", Type: relstore.StringCol})
	_, _ = tbl.Insert(int64(1), "x")
	ex := NewExecutor(db)
	v := &ViewDef{Name: "v", Table: "t", Body: &Element{
		Name:  "item",
		Attrs: []Attr{{Name: "id", Value: &Column{Name: "id"}}},
		Children: []XMLExpr{
			&Element{Name: "n", Children: []XMLExpr{
				&ScalarAgg{Fn: "count", Sub: &SubQuery{Table: "t"}},
			}},
		},
	}}
	s, err := ex.DeriveSchema(v)
	if err != nil {
		t.Fatal(err)
	}
	item := s.Lookup("item")
	if item.Attr("id") == nil || item.Attr("id").Type != xschema.TypeInt {
		t.Fatal("attribute type wrong")
	}
	if s.Lookup("n").Type != xschema.TypeInt {
		t.Fatal("count leaf should be int")
	}
}

func TestStatsAccumulate(t *testing.T) {
	db, ex := setup(t)
	_ = db.Table("emp").CreateIndex("deptno")
	if _, err := ex.MaterializeViewSpec(DeptEmpView(), nil, &ex.Stats, nil, nil); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.IndexProbes == 0 {
		t.Fatal("correlated subquery should probe the deptno index")
	}
	if ex.Stats.RowsScanned == 0 {
		t.Fatal("driving table scan should count rows")
	}
}

func TestErrorPaths(t *testing.T) {
	_, ex := setup(t)
	if _, err := ex.MaterializeViewSpec(&ViewDef{Name: "v", Table: "missing", Body: &Literal{}}, nil, &ex.Stats, nil, nil); err == nil {
		t.Fatal("unknown driving table should error")
	}
	if _, err := ex.ExecQueryParallelSpec(&Query{Table: "missing", Body: &Literal{}}, 0, &ex.Stats, nil, nil); err == nil {
		t.Fatal("unknown query table should error")
	}
	bad := &ViewDef{Name: "v", Table: "dept", Body: &Element{Name: "x", Children: []XMLExpr{
		&Agg{Sub: &SubQuery{Table: "missing", Body: &Element{Name: "y"}}},
	}}}
	if _, err := ex.MaterializeViewSpec(bad, nil, &ex.Stats, nil, nil); err == nil {
		t.Fatal("unknown subquery table should error")
	}
	// Attribute values must be scalar.
	bad2 := &ViewDef{Name: "v", Table: "dept", Body: &Element{Name: "x",
		Attrs: []Attr{{Name: "a", Value: &Element{Name: "nested"}}}}}
	if _, err := ex.MaterializeViewSpec(bad2, nil, &ex.Stats, nil, nil); err == nil {
		t.Fatal("element-valued attribute should error")
	}
}

// TestExecQueryParallelMatchesSerial: with more driving rows than
// relstore.MorselMinRows the workers group-join and construct the trees the
// serial route builds — the walk's — through a full scan and through an
// index range.
func TestExecQueryParallelMatchesSerial(t *testing.T) {
	db, ex := setup(t)
	for d := 100; d < 100+relstore.MorselMinRows; d++ {
		if _, err := db.Table("dept").Insert(int64(d), "D", "L"); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < d%3; e++ {
			if _, err := db.Table("emp").Insert(int64(d*10+e), "N", "J", int64(1000+e), int64(d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Table("emp").CreateIndex("deptno"); err != nil {
		t.Fatal(err)
	}
	q := &Query{
		Table: "dept",
		Where: []relstore.Pred{{Col: "deptno", Op: relstore.CmpGe, Val: int64(0)}},
		Body: &Element{Name: "d", Children: []XMLExpr{
			&Agg{Sub: &SubQuery{Table: "emp", CorrInner: "deptno", CorrOuter: "deptno",
				Body: &Element{Name: "e", Children: []XMLExpr{&Column{Name: "empno"}}}}},
		}},
	}
	for _, path := range []string{"TABLE SCAN", "INDEX RANGE SCAN"} {
		if path == "INDEX RANGE SCAN" {
			if err := db.Table("dept").CreateIndex("deptno"); err != nil {
				t.Fatal(err)
			}
		}
		if plan := ex.ExplainQuerySpec(q, nil); !strings.HasPrefix(plan, path) {
			t.Fatalf("plan %q, want a %s", plan, path)
		}
		var serialStats, parallelStats relstore.Stats
		serial, err := ex.ExecQueryParallelSpec(q, 1, &serialStats, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := ex.ExecQueryParallelSpec(q, 8, &parallelStats, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) != len(parallel) || len(serial) < relstore.MorselMinRows {
			t.Fatalf("%s: row counts %d vs %d", path, len(serial), len(parallel))
		}
		walked := walkDocs(t, db, q, nil, nil)
		assertSameDocs(t, path+" serial", serial, walked, q)
		assertSameDocs(t, path+" parallel", parallel, walked, q)
		if serialStats.Morsels != 0 || parallelStats.Morsels == 0 {
			t.Fatalf("%s: morsels serial=%d parallel=%d", path, serialStats.Morsels, parallelStats.Morsels)
		}
	}
}

func TestDeriveSchemaRejectsMixedContent(t *testing.T) {
	db := relstore.NewDB()
	tbl, _ := db.CreateTable("t", relstore.Column{Name: "v", Type: relstore.StringCol})
	_, _ = tbl.Insert("x")
	ex := NewExecutor(db)
	v := &ViewDef{Name: "v", Table: "t", Body: &Element{Name: "p", Children: []XMLExpr{
		&Literal{Text: "prefix "},
		&Element{Name: "b", Children: []XMLExpr{&Column{Name: "v"}}},
	}}}
	if _, err := ex.DeriveSchema(v); err == nil {
		t.Fatal("mixed content must be rejected (fallback to functional evaluation)")
	}
	// The view still materializes fine — only the rewrite refuses.
	docs, err := ex.MaterializeViewSpec(v, nil, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nows(docs[0].String()) != `<?xml version="1.0"?><p>prefix <b>x</b></p>` {
		t.Fatalf("materialize = %s", docs[0].String())
	}
}

// TestExecutorSurface pins the executor's method set: one Spec-taking entry
// point per operation. A new method is a reviewed change to this list, so the
// nil-forwarding ...With/...Governed ladder cannot grow back unnoticed.
func TestExecutorSurface(t *testing.T) {
	want := []string{
		"AddStats", "DeriveSchema", "ExecQueryParallelSpec", "ExplainQuerySpec",
		"ExplainViewSpec", "MaterializeViewSpec", "OpenProgramCursorSpec", "OpenQueryCursorSpec",
	}
	typ := reflect.TypeOf(&Executor{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("*Executor exports %v, want exactly %v", got, want)
	}
}
