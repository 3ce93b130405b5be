package xpath

import "testing"

func parsePred(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e
}

func TestConjunctsSimple(t *testing.T) {
	cases := []struct {
		src  string
		want []string // Comparison.String() per conjunct
	}{
		{"price > 100", []string{"price > 100"}},
		{"@id = $id", []string{"@id = $id"}},
		{"@id = 'd1'", []string{`@id = "d1"`}},
		{"100 < price", []string{"price > 100"}},
		{"$lo <= sal", []string{"sal >= $lo"}},
		{"deptno = 10 and sal > 2000", []string{"deptno = 10", "sal > 2000"}},
		{"a = 1 and b = 2 and c != 3", []string{"a = 1", "b = 2", "c != 3"}},
		{"sal >= -5", []string{"sal >= -5"}},
	}
	for _, tc := range cases {
		got, ok := Conjuncts(parsePred(t, tc.src))
		if !ok {
			t.Errorf("Conjuncts(%q): not lowerable, want %v", tc.src, tc.want)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("Conjuncts(%q) = %v, want %v", tc.src, got, tc.want)
			continue
		}
		for i, c := range got {
			if c.String() != tc.want[i] {
				t.Errorf("Conjuncts(%q)[%d] = %q, want %q", tc.src, i, c.String(), tc.want[i])
			}
		}
	}
}

func TestConjunctsFlipped(t *testing.T) {
	got, ok := Conjuncts(parsePred(t, "2000 < sal"))
	if !ok || len(got) != 1 {
		t.Fatalf("Conjuncts: ok=%v got=%v", ok, got)
	}
	if !got[0].Flipped || got[0].Op != OpGt || got[0].Name != "sal" {
		t.Fatalf("flip: %+v", got[0])
	}
}

func TestConjunctsRejects(t *testing.T) {
	reject := []string{
		"price",                    // bare path, no comparison
		"price > 100 or sal = 1",   // disjunction
		"not(price > 100)",         // function
		"position() = 1",           // positional
		"a/b = 1",                  // multi-step operand
		"../x = 1",                 // non-child axis
		"a[1] = 1",                 // operand with predicate
		"price > sal",              // column vs column
		"1 = 2",                    // constant vs constant
		"price + 1 > 100",          // arithmetic operand
		"@id = concat('a', 'b')",   // computed value
		"p:price > 100",            // prefixed name
		"price > 100 and (a or b)", // conjunct not a comparison
	}
	for _, src := range reject {
		if got, ok := Conjuncts(parsePred(t, src)); ok {
			t.Errorf("Conjuncts(%q) = %v, want reject", src, got)
		}
	}
}
