package relstore

import "testing"

// TestExplainShapes pins the EXPLAIN line of every access-path shape, byte
// for byte, and that building one allocates only the string it returns
// (every run reports its driving path). A bound's value prints bare, a
// residual string predicate quoted, a placeholder as its :name bind
// variable, a float as fmt's %v spells it. A constant of a type the keys
// do not order against (an int, where the kernels compare int64 and
// float64) never bounds the interval.
func TestExplainShapes(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("t", Column{"a", IntCol}, Column{"f", FloatCol}, Column{"s", StringCol}, Column{"c", IntCol})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustInsert(t, tab, int64(i), float64(i)/2, string(rune('a'+i)), int64(i%3))
	}
	for _, col := range []string{"a", "f", "s"} {
		if err := tab.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	p := func(col string, op CmpOp, v Value) Pred { return Pred{Col: col, Op: op, Val: v} }
	cases := []struct {
		name  string
		preds []Pred
		want  string
	}{
		{"probe", []Pred{p("a", CmpEq, int64(40))},
			"INDEX PROBE t(a) a = 40"},
		{"negative probe", []Pred{p("a", CmpEq, int64(-7))},
			"INDEX PROBE t(a) a = -7"},
		{"two-sided range", []Pred{p("a", CmpGe, int64(30)), p("a", CmpLt, int64(55))},
			"INDEX RANGE SCAN t(a) a >= 30 AND a < 55"},
		{"range open above", []Pred{p("a", CmpGt, int64(7))},
			"INDEX RANGE SCAN t(a) a > 7"},
		{"range open below", []Pred{p("a", CmpLe, int64(5))},
			"INDEX RANGE SCAN t(a) a <= 5"},
		{"unbound parameter probe", []Pred{p("a", CmpEq, ParamValue("id"))},
			"INDEX PROBE t(a) a = :id"},
		{"unbound parameter range", []Pred{p("a", CmpGe, ParamValue("lo")), p("a", CmpLt, ParamValue("hi"))},
			"INDEX RANGE SCAN t(a) a >= :lo AND a < :hi"},
		{"float bounds", []Pred{p("f", CmpGt, 2.5), p("f", CmpLe, 1e21)},
			"INDEX RANGE SCAN t(f) f > 2.5 AND f <= 1e+21"},
		{"integral float probe", []Pred{p("f", CmpEq, float64(3))},
			"INDEX PROBE t(f) f = 3"},
		{"string probe", []Pred{p("s", CmpEq, "abc")},
			"INDEX PROBE t(s) s = abc"},
		{"string range", []Pred{p("s", CmpGe, "b"), p("s", CmpLt, "d")},
			"INDEX RANGE SCAN t(s) s >= b AND s < d"},
		{"residual filter", []Pred{p("a", CmpEq, int64(4)), p("c", CmpNe, int64(1)), p("s", CmpNe, "x"), p("f", CmpNe, 0.25), p("c", CmpLe, ParamValue("p"))},
			"INDEX PROBE t(a) a = 4 FILTER c <> 1 AND s <> 'x' AND f <> 0.25 AND c <= :p"},
		{"range with a residual NULL", []Pred{p("a", CmpGe, int64(1)), p("c", CmpEq, nil)},
			"INDEX RANGE SCAN t(a) a >= 1 FILTER c = <nil>"},
		{"full scan", nil,
			"TABLE SCAN t"},
		{"full scan with filter", []Pred{p("c", CmpGt, int64(0)), p("c", CmpLt, 1.5), p("s", CmpNe, "it's")},
			"TABLE SCAN t FILTER c > 0 AND c < 1.5 AND s <> 'it's'"},
	}
	for _, c := range cases {
		plan := PlanAccessAt(tab.Snap(), c.preds)
		if got := plan.Explain(tab); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(10, func() { _ = plan.Explain(tab) }); n > 1 {
			t.Errorf("%s: Explain allocated %.0f times, want the string alone", c.name, n)
		}
	}
	// Outside the table: fmt spells the int, and its pooled printer may
	// allocate (always under -race).
	if got, want := PlanAccessAt(tab.Snap(), []Pred{p("f", CmpEq, int64(1)), p("f", CmpLt, int(4))}).Explain(tab), "INDEX PROBE t(f) f = 1 FILTER f < 4"; got != want {
		t.Errorf("bound of another type: %q, want %q", got, want)
	}
	if got, want := FullScanPlanAt(tab.Snap(), []Pred{p("a", CmpEq, int64(4))}).Explain(tab), "TABLE SCAN t FILTER a = 4"; got != want {
		t.Errorf("forced full scan: %q, want %q", got, want)
	}
	if got, want := p("s", CmpEq, ParamValue("name")).String()+" / "+p("f", CmpGe, 0.1).String(), "s = :name / f >= 0.1"; got != want {
		t.Errorf("Pred.String: %q, want %q", got, want)
	}
}
