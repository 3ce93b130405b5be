package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"

	xsltdb "repro"
	"repro/serve"
)

// fixture.go builds what a workload runs against, through the public facade
// only: tables, indexes, the XMLType view, the compiled transforms and an
// xsltd server on a loopback listener. Building a fixture is what setup_s
// times.

// transform is one (view, stylesheet) pair, compiled with the default
// strategy (the rewrite under test) and with the forced no-rewrite strategy
// (the functional baseline, which is also the correctness oracle).
type transform struct {
	Name, View, Sheet string
	ct, baseline      *xsltdb.CompiledTransform
}

// resultCacheEntries is the size of the server's result cache on every
// workload; serve_hit's key set fits in it, serve_miss's is 23 times larger.
const resultCacheEntries = 256

type fixture struct {
	db         *xsltdb.Database
	srv        *serve.Server
	ts         *httptest.Server
	client     *http.Client
	transforms map[string]*transform
	dir        string // "" for an in-memory database
}

// close stops the server and closes the database. It is safe on a nil
// fixture, on one whose build failed half way, and when called twice.
func (f *fixture) close() {
	if f == nil {
		return
	}
	if f.ts != nil {
		f.client.CloseIdleConnections()
		f.ts.Close()
		f.ts = nil
	}
	if f.srv != nil {
		f.srv.Close()
		f.srv = nil
	}
	if f.db != nil {
		_ = f.db.Close()
		f.db = nil
	}
}

// openDB opens an in-memory database, or a durable one when dir is set.
// The sync policy is fixed at SyncNever: fsync in this sandbox measures the
// host's page cache, not the program.
func openDB(dir string) (*xsltdb.Database, error) {
	if dir == "" {
		return xsltdb.Open()
	}
	return xsltdb.Open(xsltdb.WithDir(dir), xsltdb.WithSyncPolicy(xsltdb.SyncNever))
}

// serveTransforms compiles the named stylesheets and starts the server.
func (f *fixture) serveTransforms(clients int, defs ...transform) error {
	f.transforms = map[string]*transform{}
	srv, err := serve.New(serve.Config{DB: f.db, CacheCapacity: resultCacheEntries})
	if err != nil {
		return err
	}
	f.srv = srv
	for i := range defs {
		t := &defs[i]
		if t.ct, err = f.db.CompileTransform(t.View, t.Sheet); err != nil {
			return fmt.Errorf("compile %s: %w", t.Name, err)
		}
		if t.baseline, err = f.db.CompileTransform(t.View, t.Sheet, xsltdb.WithForcedStrategy(xsltdb.StrategyNoRewrite)); err != nil {
			return fmt.Errorf("compile %s baseline: %w", t.Name, err)
		}
		if err := srv.RegisterTransform(t.Name, t.View, t.Sheet); err != nil {
			return err
		}
		f.transforms[t.Name] = t
	}
	srv.MarkReady()
	f.ts = httptest.NewServer(srv.Handler())
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
		DisableCompression: true,
	}}
	return nil
}

func elem(name string, children ...xsltdb.XMLExpr) *xsltdb.XMLElement {
	return &xsltdb.XMLElement{Name: name, Children: children}
}

func leaf(name string) *xsltdb.XMLElement { return elem(name, &xsltdb.XMLColumn{Name: name}) }

// deptEmpView is the paper's Table 3 view.
func deptEmpView() *xsltdb.ViewDef {
	return &xsltdb.ViewDef{Name: "dept_emp", Table: "dept", Body: elem("dept",
		leaf("dname"), leaf("loc"),
		elem("employees", &xsltdb.XMLAgg{Sub: &xsltdb.SubQuery{
			Table: "emp", CorrInner: "deptno", CorrOuter: "deptno",
			Body: elem("emp", leaf("empno"), leaf("ename"), leaf("sal")),
		}}),
	)}
}

func intCol(name string) xsltdb.TableColumn {
	return xsltdb.TableColumn{Name: name, Type: xsltdb.IntCol}
}
func strCol(name string) xsltdb.TableColumn {
	return xsltdb.TableColumn{Name: name, Type: xsltdb.StringCol}
}

func createEmp(db *xsltdb.Database) error {
	return db.CreateTable("emp", intCol("empno"), strCol("ename"), strCol("job"), intCol("sal"), intCol("deptno"))
}

func insertEmp(db *xsltdb.Database, e empRow) error {
	return db.Insert("emp", e.Empno, e.Ename, e.Job, e.Sal, e.Deptno)
}

// newDeptEmpFixture loads dept/emp, indexes dept.deptno and emp.deptno (the
// filter column val, when present, stays unindexed), defines the view,
// compiles PaperStylesheet and starts the server.
func newDeptEmpFixture(data *deptEmp, withVal bool, dir string, clients int) (*fixture, error) {
	db, err := openDB(dir)
	if err != nil {
		return nil, err
	}
	f := &fixture{db: db, dir: dir}
	deptCols := []xsltdb.TableColumn{intCol("deptno"), strCol("dname"), strCol("loc")}
	if withVal {
		deptCols = append(deptCols, intCol("val"))
	}
	if err := db.CreateTable("dept", deptCols...); err != nil {
		return f, err
	}
	if err := createEmp(db); err != nil {
		return f, err
	}
	for _, d := range data.Depts {
		if withVal {
			err = db.Insert("dept", d.Deptno, d.Dname, d.Loc, d.Val)
		} else {
			err = db.Insert("dept", d.Deptno, d.Dname, d.Loc)
		}
		if err != nil {
			return f, err
		}
	}
	for _, e := range data.Emps {
		if err := insertEmp(db, e); err != nil {
			return f, err
		}
	}
	for _, table := range []string{"dept", "emp"} {
		if err := db.CreateIndex(table, "deptno"); err != nil {
			return f, err
		}
	}
	if err := db.CreateXMLView(deptEmpView()); err != nil {
		return f, err
	}
	return f, f.serveTransforms(clients, transform{Name: "paper", View: "dept_emp", Sheet: paperStylesheet()})
}

// figureCases are the cases of the paper's evaluation: Fig. 2 (dbonerow)
// and Fig. 3 (avts, chart, metric, total).
var figureCases = []string{"dbonerow", "avts", "chart", "metric", "total"}

// markViews names the view each input shape of the XSLTMark stylesheets
// compiles against.
var markViews = map[string]string{"sales": "sales_doc", "words": "words_doc", "nested": "nested_doc"}

// newMarkFixture loads the XSLTMark data: the sales rows behind a one-row
// document table (indexed on sales.id only, which is Fig. 2's access path;
// the Fig. 3 cases have no value index), a word list, and a three-level
// section tree standing in for the suite's recursive document, since a
// SQL/XML view cannot recurse. It compiles and serves the five figure cases.
func newMarkFixture(sales []salesRow, words []string, clients int) (*fixture, error) {
	db, err := openDB("")
	if err != nil {
		return nil, err
	}
	f := &fixture{db: db}
	if err := db.CreateTable("docs", intCol("docid")); err != nil {
		return f, err
	}
	if err := db.Insert("docs", int64(1)); err != nil {
		return f, err
	}
	if err := db.CreateTable("sales", intCol("id"), strCol("name"), strCol("region"), intCol("price"), intCol("qty")); err != nil {
		return f, err
	}
	for _, s := range sales {
		if err := db.Insert("sales", s.ID, s.Name, s.Region, s.Price, s.Qty); err != nil {
			return f, err
		}
	}
	if err := db.CreateIndex("sales", "id"); err != nil {
		return f, err
	}
	if err := db.CreateTable("words", strCol("w")); err != nil {
		return f, err
	}
	// No view reads emp here; it is the table the writer inserts into.
	if err := createEmp(db); err != nil {
		return f, err
	}
	for _, w := range words {
		if err := db.Insert("words", w); err != nil {
			return f, err
		}
	}
	// sec1..sec3: a section has a title and child sections one level down.
	for level := 1; level <= 3; level++ {
		table := "sec" + strconv.Itoa(level)
		if err := db.CreateTable(table, intCol("id"), intCol("parent"), strCol("title")); err != nil {
			return f, err
		}
		for i := 1; i <= 1<<level; i++ {
			if err := db.Insert(table, int64(i), int64((i+1)/2), fmt.Sprintf("S%d.%d", level, i)); err != nil {
				return f, err
			}
		}
		if err := db.CreateIndex(table, "parent"); err != nil {
			return f, err
		}
	}
	section := func(level int, inner xsltdb.XMLExpr) xsltdb.XMLExpr {
		sub := &xsltdb.SubQuery{Table: "sec" + strconv.Itoa(level), Body: elem("section", leaf("title"))}
		if level > 1 {
			sub.CorrInner, sub.CorrOuter = "parent", "id"
		}
		if inner != nil {
			sub.Body = elem("section", leaf("title"), inner)
		}
		return &xsltdb.XMLAgg{Sub: sub}
	}
	views := []*xsltdb.ViewDef{
		{Name: "sales_doc", Table: "docs", Body: elem("table", &xsltdb.XMLAgg{Sub: &xsltdb.SubQuery{
			Table: "sales", Body: elem("row", leaf("id"), leaf("name"), leaf("region"), leaf("price"), leaf("qty")),
		}})},
		{Name: "words_doc", Table: "docs", Body: elem("words", &xsltdb.XMLAgg{Sub: &xsltdb.SubQuery{
			Table: "words", Body: elem("w", &xsltdb.XMLColumn{Name: "w"}),
		}})},
		{Name: "nested_doc", Table: "docs", Body: elem("doc", section(1, section(2, section(3, nil))))},
	}
	for _, v := range views {
		if err := db.CreateXMLView(v); err != nil {
			return f, err
		}
	}
	var defs []transform
	for _, c := range markCases() {
		for _, name := range figureCases {
			if c.Name == name {
				defs = append(defs, transform{Name: c.Name, View: markViews[c.Shape], Sheet: c.Stylesheet})
			}
		}
	}
	return f, f.serveTransforms(clients, defs...)
}

// runArgs are the run options of one operation, in the form both the facade
// (WithWhere / WithParam) and the HTTP layer (where= / p.x=) accept.
type runArgs struct {
	Where  string
	Params map[string]int64
}

func (a runArgs) options() []xsltdb.RunOption {
	var out []xsltdb.RunOption
	if a.Where != "" {
		out = append(out, xsltdb.WithWhere(a.Where))
	}
	for k, v := range a.Params {
		out = append(out, xsltdb.WithParam(k, v))
	}
	return out
}

// path is the request path and query of one operation over HTTP.
func (a runArgs) path(transform string) string {
	q := url.Values{}
	if a.Where != "" {
		q.Set("where", a.Where)
	}
	for k, v := range a.Params {
		q.Set("p."+k, strconv.FormatInt(v, 10))
	}
	p := "/v1/transform/" + transform
	if len(q) > 0 {
		p += "?" + q.Encode()
	}
	return p
}
