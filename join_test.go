package xsltdb

// Tests of the decorrelated SQL/XML plan at the facade: nested XMLAgg
// subqueries run as group-joins (internal/relstore/join.go) against whole
// batches of outer rows, and none of that may be visible in the bytes.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/relstore"
	"repro/internal/xslt"
)

// nestedViewDef is dept → emp → project: two levels of XMLAgg, so the inner
// join runs against the group of the outer one.
func nestedViewDef() *ViewDef {
	leaf := func(name string) *XMLElement {
		return &XMLElement{Name: name, Children: []XMLExpr{&XMLColumn{Name: name}}}
	}
	return &ViewDef{Name: "org", Table: "dept", Body: &XMLElement{Name: "dept", Children: []XMLExpr{
		leaf("dname"), leaf("loc"),
		&XMLElement{Name: "employees", Children: []XMLExpr{&XMLAgg{Sub: &SubQuery{
			Table: "emp", CorrInner: "deptno", CorrOuter: "deptno",
			Body: &XMLElement{Name: "emp", Children: []XMLExpr{
				leaf("ename"), leaf("sal"),
				&XMLElement{Name: "projects", Children: []XMLExpr{&XMLAgg{Sub: &SubQuery{
					Table: "project", CorrInner: "empno", CorrOuter: "empno",
					Body: &XMLElement{Name: "project", Children: []XMLExpr{leaf("pname")}},
				}}}},
			}},
		}}}},
	}}}
}

// nestedSheet reaches the projects through a condition on the department and
// a predicate on the employee: Agg under Cond, Agg under Agg.
const nestedSheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept">
  <d>
    <n><xsl:value-of select="dname"/></n>
    <xsl:if test="loc = 'EAST'">
      <xsl:for-each select="employees/emp[sal > 1000]">
        <e>
          <en><xsl:value-of select="ename"/></en>
          <xsl:for-each select="projects/project">
            <p><xsl:value-of select="pname"/></p>
          </xsl:for-each>
        </e>
      </xsl:for-each>
    </xsl:if>
  </d>
</xsl:template>
</xsl:stylesheet>`

// newNestedDB loads depts departments over 60 deptno values (every fifth
// sharing its predecessor's deptno, every seventh with a NULL one),
// employees in heap order unrelated to department order (some with a NULL
// deptno, some deptno values with none) and projects likewise. No index is
// created.
func newNestedDB(t *testing.T, depts int) *Database {
	t.Helper()
	d := NewDatabase()
	tables := []struct {
		name string
		cols []TableColumn
	}{
		{"dept", []TableColumn{{Name: "deptno", Type: IntCol}, {Name: "dname", Type: StringCol}, {Name: "loc", Type: StringCol}}},
		{"emp", []TableColumn{{Name: "empno", Type: IntCol}, {Name: "ename", Type: StringCol}, {Name: "sal", Type: IntCol}, {Name: "deptno", Type: IntCol}}},
		{"project", []TableColumn{{Name: "pno", Type: IntCol}, {Name: "pname", Type: StringCol}, {Name: "empno", Type: IntCol}}},
	}
	for _, tab := range tables {
		if err := d.CreateTable(tab.name, tab.cols...); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(table string, values ...relstore.Value) {
		t.Helper()
		if err := d.Insert(table, values...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < depts; i++ {
		var deptno relstore.Value = int64(100 + (i*37)%60) // department order ≠ key order
		switch {
		case i%7 == 6:
			deptno = nil
		case i%5 == 4:
			deptno = int64(100 + ((i-1)*37)%60)
		}
		insert("dept", deptno, fmt.Sprintf("D%02d", i), []string{"EAST", "WEST"}[i%3%2])
	}
	for e := 0; e < 400; e++ {
		var deptno relstore.Value = int64(100 + (e*13)%70) // 10 keys no department has
		if e%11 == 0 {
			deptno = nil
		}
		insert("emp", int64(e), fmt.Sprintf("E%03d", e), int64(500+(e*397)%2000), deptno)
	}
	for p := 0; p < 900; p++ {
		var empno relstore.Value = int64((p * 7) % 450)
		if p%13 == 0 {
			empno = nil
		}
		insert("project", int64(p), fmt.Sprintf("P%03d", p), empno)
	}
	if err := d.CreateXMLView(nestedViewDef()); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNestedJoinByteIdentity: the three-level plan emits the functional
// baseline's bytes under every batch size and access path — first with no
// index (scan joins), then with both correlation columns indexed (index
// joins). Over more departments than relstore.MorselMinRows, two and four
// workers take the parallel route and emit the serial run's bytes, over the
// full scan and over an index range.
func TestNestedJoinByteIdentity(t *testing.T) {
	d := newNestedDB(t, 60)
	wide := newNestedDB(t, 10_000) // the 6 in 7 with a deptno still outnumber MorselMinRows
	compile := func(d *Database, opts ...Option) *CompiledTransform {
		t.Helper()
		ct, err := d.CompileTransform("org", nestedSheet, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	ct, wideCT := compile(d), compile(wide)
	if ct.Strategy() != StrategySQL {
		t.Fatalf("strategy = %v (%s)", ct.Strategy(), ct.FallbackReason())
	}
	baseline := compile(d, WithForcedStrategy(StrategyNoRewrite))
	want := runRows(t, baseline).Rows
	if len(want) != 60 || !strings.Contains(strings.Join(want, ""), "<p>") {
		t.Fatalf("baseline: %d rows, projects reached: %t", len(want), strings.Contains(strings.Join(want, ""), "<p>"))
	}
	matrix := func(label string) {
		t.Helper()
		for _, batch := range []int{1, 7, 1024} {
			opts := []RunOption{WithWorkers(1), WithBatchSize(batch)}
			assertSameRows(t, fmt.Sprintf("%s batch=%d", label, batch), want, runRows(t, ct, opts...).Rows)
			assertSameRows(t, fmt.Sprintf("%s batch=%d no-pushdown", label, batch), want,
				runRows(t, ct, append(opts, WithoutPushdown())...).Rows)
		}
		assertSameRows(t, label+" no-rewrite batch=7", want, runRows(t, baseline, WithBatchSize(7)).Rows)
	}
	// parallel holds the wide database's runs at each {workers, batch size}
	// to its serial run's bytes.
	parallel := func(label string, runs ...[2]int) {
		t.Helper()
		serial := runRows(t, wideCT, WithWorkers(1)).Rows
		for _, run := range runs {
			res := runRows(t, wideCT, WithWorkers(run[0]), WithBatchSize(run[1]))
			assertSameRows(t, fmt.Sprintf("%s workers=%d batch=%d", label, run[0], run[1]), serial, res.Rows)
			if res.Stats.MorselsExecuted == 0 {
				t.Fatalf("%s workers=%d batch=%d did not take the parallel route", label, run[0], run[1])
			}
		}
	}
	if plan := ct.ExplainPlan(); !strings.Contains(plan, "-> SCAN JOIN emp(deptno) = outer.deptno") ||
		!strings.Contains(plan, "    -> SCAN JOIN project(empno) = outer.empno") {
		t.Fatalf("unindexed plan:\n%s", plan)
	}
	matrix("scan-join")
	parallel("scan-join", [2]int{4, 1024}) // a scan join per department's employees: the costly shape

	for _, db := range []*Database{d, wide} {
		for table, col := range map[string]string{"emp": "deptno", "project": "empno", "dept": "deptno"} {
			if err := db.CreateIndex(table, col); err != nil {
				t.Fatal(err)
			}
		}
	}
	if plan := ct.ExplainPlan(); !strings.Contains(plan, "-> INDEX JOIN emp(deptno) = outer.deptno FILTER sal > 1000") ||
		!strings.Contains(plan, "    -> INDEX JOIN project(empno) = outer.empno") {
		t.Fatalf("indexed plan:\n%s", plan)
	}
	matrix("index-join")
	parallel("index-join", [2]int{2, 64}, [2]int{4, 1024})
	for _, path := range drivingPaths("deptno >= 100") {
		res := runRows(t, wideCT, path.with(WithWorkers(4), WithBatchSize(7))...)
		assertSameRows(t, path.name, runRows(t, wideCT, path.with(WithWorkers(1))...).Rows, res.Rows)
		assertParallel(t, path.name, path, res.Stats)
	}
	opts := []RunOption{WithWhere("deptno >= $lo and deptno < $hi"), WithParam("lo", 110), WithParam("hi", 140)}
	assertSameRows(t, "window", runRows(t, baseline, opts...).Rows, runRows(t, ct, append(opts, WithBatchSize(3))...).Rows)
}

// TestWindowPlanIsOneInterval: the serve_miss request shape plans as ONE
// two-sided range on the driving index and an index join beneath it, and the
// run's filter count is the employees the sal predicate rejected — nothing
// is walked and thrown away on the deptno side.
func TestWindowPlanIsOneInterval(t *testing.T) {
	ct, opts := deptWindow(t)
	plan := ct.ExplainPlan(opts...)
	for _, want := range []string{
		"INDEX RANGE SCAN dept(deptno) deptno >= 1030 AND deptno < 1055\n",
		"  -> INDEX JOIN emp(deptno) = outer.deptno FILTER sal > 2000",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan lacks %q:\n%s", want, plan)
		}
	}
	if strings.Contains(strings.SplitN(plan, "->", 2)[0], "FILTER") {
		t.Fatalf("driving scan keeps a residual:\n%s", plan)
	}
	if unbound := ct.ExplainPlan(opts[0]); !strings.Contains(unbound, "deptno >= :lo AND deptno < :hi") {
		t.Fatalf("placeholders should still fold into one interval:\n%s", unbound)
	}
	res := runRows(t, ct, opts...)
	// newBenchDeptDB: 20 employees per department, sal = 500 + (e*397)%4500.
	var rejected int64
	for e := 0; e < 20; e++ {
		if 500+(e*397)%4500 <= 2000 {
			rejected++
		}
	}
	st := res.Stats
	if st.RowsFiltered != 25*rejected || st.IndexProbes != 1+25 || st.RangeScans != 2 || st.FullScans != 0 {
		t.Fatalf("stats = %s; want filtered=%d (sal only), probes=26 (1 range + 25 keys), range-scans=2", st.String(), 25*rejected)
	}
	if st.AccessPath != "INDEX RANGE SCAN dept(deptno) deptno >= 1030 AND deptno < 1055" {
		t.Fatalf("access path = %q", st.AccessPath)
	}
}

// TestPostingViewsPinnedUnderInserts: a cursor's index joins read live
// B-tree leaves. Inserts into those very leaves while the cursor streams
// (run under -race) must not change one byte of what its snapshot selects.
func TestPostingViewsPinnedUnderInserts(t *testing.T) {
	d := newBenchDeptDB(t, 40)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	want := runRows(t, ct).Rows

	// A small batch size makes the cursor join again every few rows, each
	// time against leaves the writer has grown since.
	cur, err := ct.OpenCursor(context.Background(), WithBatchSize(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			dn := 1000 + i%40 // every department the cursor has yet to join
			if err := d.Insert("emp", int64(900000+i), "LATE", "STAFF", int64(4000), int64(dn)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var got []string
	for {
		row, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row)
		runtime.Gosched()
	}
	wg.Wait()
	assertSameRows(t, "pinned cursor", want, got)
	if after := runRows(t, ct).Rows; !strings.Contains(strings.Join(after, ""), "LATE") {
		t.Fatal("a run started after the inserts should see them")
	}
}

// TestJoinFaultFailsTheAttempt: a fault at the group-join's site, after rows
// were already emitted, fails the SQL attempt as a whole: the run degrades
// down its chain (every strategy joins, so with the site still armed each
// fails in turn) and returns the fault with no rows — never a result with a
// group cut short. Disarmed, the same run is complete again.
func TestJoinFaultFailsTheAttempt(t *testing.T) {
	d := newBenchDeptDB(t, 30)
	ct, err := d.CompileTransform("dept_emp", xslt.PaperStylesheet)
	if err != nil {
		t.Fatal(err)
	}
	want := runRows(t, ct).Rows

	defer faultpoint.Reset()
	// Batch size 8 over 32 departments is four joins: the third one fails.
	faultpoint.EnableAfter("relstore.join.batch", 2, errBoom)
	res, err := ct.Run(context.Background(), WithBatchSize(8))
	if !errors.Is(err, errBoom) || res.Rows != nil {
		t.Fatalf("err = %v, rows = %d; want the injected fault and no rows", err, len(res.Rows))
	}
	if res.Stats.Degradations != 2 {
		t.Fatalf("degradations = %d, want SQL → XQuery → no-rewrite", res.Stats.Degradations)
	}
	faultpoint.Reset()
	assertSameRows(t, "after disarm", want, runRows(t, ct, WithBatchSize(8)).Rows)
}

// TestOneRowAggCancelPrompt: a one-row document whose XMLAgg constructs
// half a million inner rows ticks the governor from inside construction —
// locally counted, flushed every 64 nodes — so cancelling mid-construction
// still returns within 100ms.
func TestOneRowAggCancelPrompt(t *testing.T) {
	const items = 500_000
	d := NewDatabase()
	if err := d.CreateTable("doc", TableColumn{Name: "id", Type: IntCol}); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("item", TableColumn{Name: "n", Type: IntCol}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("doc", int64(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items; i++ {
		if err := d.Insert("item", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	view := &ViewDef{Name: "onedoc", Table: "doc", Body: &XMLElement{Name: "doc", Children: []XMLExpr{
		&XMLAgg{Sub: &SubQuery{Table: "item", Body: &XMLElement{Name: "item", Children: []XMLExpr{
			&XMLElement{Name: "n", Children: []XMLExpr{&XMLColumn{Name: "n"}}},
		}}}},
	}}}
	if err := d.CreateXMLView(view); err != nil {
		t.Fatal(err)
	}
	ct, err := d.CompileTransform("onedoc", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="doc"><out><xsl:for-each select="item"><i><xsl:value-of select="n"/></i></xsl:for-each></out></xsl:template>
</xsl:stylesheet>`, WithForcedStrategy(StrategySQL))
	if err != nil {
		t.Fatal(err)
	}

	// The inner scan pulls items/1024 batches plus the empty one that ends
	// it; once the site has been hit that often, construction is under way.
	scanPulls := int64(items/1024 + 2)
	faultpoint.EnableAfter("relstore.scan.batch", math.MaxInt32, nil)
	defer faultpoint.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ct.Run(ctx)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for faultpoint.Hits("relstore.scan.batch") < scanPulls+1 { // + the driving scan's first pull
		if time.Now().After(deadline) {
			t.Fatal("run never reached construction")
		}
		runtime.Gosched()
	}
	start := time.Now()
	cancel()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", elapsed)
	}
}
