package xq2sql

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xquery"
)

// keyedView builds a table row(id, name) with n rows and a view exposing the
// key as an attribute: <row id="..."><name>...</name></row>.
func keyedView(t *testing.T, n int) (*relstore.DB, *sqlxml.Executor, *sqlxml.ViewDef) {
	t.Helper()
	db := relstore.NewDB()
	tab, err := db.CreateTable("row",
		relstore.Column{Name: "id", Type: relstore.IntCol},
		relstore.Column{Name: "name", Type: relstore.StringCol})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(int64(i), "name-"+strings.Repeat("x", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	view := &sqlxml.ViewDef{
		Name:  "rows",
		Table: "row",
		Body: &sqlxml.Element{
			Name:  "row",
			Attrs: []sqlxml.Attr{{Name: "id", Value: &sqlxml.Column{Name: "id"}}},
			Children: []sqlxml.XMLExpr{
				&sqlxml.Element{Name: "name", Children: []sqlxml.XMLExpr{&sqlxml.Column{Name: "name"}}},
			},
		},
	}
	return db, sqlxml.NewExecutor(db), view
}

func mustModule(t *testing.T, src string) *xquery.Module {
	t.Helper()
	m, err := xquery.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return m
}

// TestRootPredicateHoisting: a predicate on the view-root step becomes the
// query's WHERE clause (selection pushdown) instead of a translation
// failure.
func TestRootPredicateHoisting(t *testing.T) {
	_, ex, view := keyedView(t, 20)
	m := mustModule(t, `declare variable $var000 := .;
<doc>{fn:string($var000/row[@id = 7]/name)}</doc>`)
	q, err := Translate(m, view)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	want := []relstore.Pred{{Col: "id", Op: relstore.CmpEq, Val: int64(7)}}
	if !predsEqual(q.Where, want) {
		t.Fatalf("Where = %v, want %v", q.Where, want)
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("selective query produced %d rows, want 1", len(docs))
	}
}

// TestRootPredicateParam: a free variable in the predicate lowers to a
// ParamValue placeholder — one compiled plan, bound per run.
func TestRootPredicateParam(t *testing.T) {
	_, _, view := keyedView(t, 5)
	m := mustModule(t, `declare variable $var000 := .;
<doc>{fn:string($var000/row[@id = $id]/name)}</doc>`)
	q, err := Translate(m, view)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	want := []relstore.Pred{{Col: "id", Op: relstore.CmpEq, Val: relstore.ParamValue("id")}}
	if !predsEqual(q.Where, want) {
		t.Fatalf("Where = %v, want %v", q.Where, want)
	}
	if !relstore.HasParams(q.Where) {
		t.Fatal("plan should report unbound parameters")
	}
}

// TestRootPredicateChildElement: predicates over root child elements (not
// just attributes) hoist too.
func TestRootPredicateChildElement(t *testing.T) {
	_, ex, view := keyedView(t, 10)
	m := mustModule(t, `declare variable $var000 := .;
<doc>{fn:string($var000/row[name = "name-"]/name)}</doc>`)
	q, err := Translate(m, view)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if len(q.Where) != 1 || q.Where[0].Col != "name" {
		t.Fatalf("Where = %v", q.Where)
	}
	docs, err := ex.ExecQueryParallelSpec(q, 0, &ex.Stats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0, 3, 6, 9 have name "name-" (i%3 == 0).
	if len(docs) != 4 {
		t.Fatalf("rows = %d, want 4", len(docs))
	}
}

// TestRootPredicateDisagreement: two navigations with different root
// predicates cannot share one hoisted WHERE — the translation must fall
// back rather than silently filter the other navigation.
func TestRootPredicateDisagreement(t *testing.T) {
	_, _, view := keyedView(t, 5)
	m := mustModule(t, `declare variable $var000 := .;
<doc>{fn:string($var000/row[@id = 1]/name)}{fn:string($var000/row[@id = 2]/name)}</doc>`)
	_, err := Translate(m, view)
	if !errors.Is(err, ErrNotRelational) {
		t.Fatalf("err = %v, want ErrNotRelational", err)
	}
}

// TestExtractWhere covers the WithWhere string path: view-attribute names,
// view-leaf names, raw column fallthrough, params, and rejections.
func TestExtractWhere(t *testing.T) {
	_, _, view := keyedView(t, 1)
	cases := []struct {
		src  string
		want []relstore.Pred
	}{
		{"@id = 3", []relstore.Pred{{Col: "id", Op: relstore.CmpEq, Val: int64(3)}}},
		{"name = 'x'", []relstore.Pred{{Col: "name", Op: relstore.CmpEq, Val: "x"}}},
		{"id >= 10", []relstore.Pred{{Col: "id", Op: relstore.CmpGe, Val: int64(10)}}}, // raw column
		{"@id = $key", []relstore.Pred{{Col: "id", Op: relstore.CmpEq, Val: relstore.ParamValue("key")}}},
		{"3 < id and id != 9", []relstore.Pred{
			{Col: "id", Op: relstore.CmpGt, Val: int64(3)},
			{Col: "id", Op: relstore.CmpNe, Val: int64(9)},
		}},
	}
	for _, tc := range cases {
		got, err := ExtractWhere(view, tc.src)
		if err != nil {
			t.Errorf("ExtractWhere(%q): %v", tc.src, err)
			continue
		}
		if !predsEqual(got, tc.want) {
			t.Errorf("ExtractWhere(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
	for _, bad := range []string{"@missing = 1", "id = 1 or id = 2", "count(x) = 1"} {
		if got, err := ExtractWhere(view, bad); err == nil {
			t.Errorf("ExtractWhere(%q) = %v, want error", bad, got)
		}
	}
}
