package sqlxml

import (
	"fmt"
	"strings"

	"repro/internal/relstore"
	"repro/internal/xschema"
)

// ViewDef is an XMLType view over a relational table (paper Table 3):
// one XMLType instance per driving-table row, constructed by Body.
type ViewDef struct {
	Name  string
	Table string
	Body  XMLExpr
}

// SQL renders the CREATE VIEW statement.
func (v *ViewDef) SQL() string {
	return fmt.Sprintf("CREATE VIEW %s AS\nSELECT\n%s AS %s_content\nFROM %s",
		v.Name, indentSQL(v.Body.SQL()), v.Name, v.Table)
}

func indentSQL(s string) string { return "  " + strings.ReplaceAll(s, "\n", "\n  ") }

// Query is an executable SQL/XML query: for each driving-table row passing
// Where, emit the XML produced by Body. The rewriter lowers XQuery to this
// form (paper Tables 7 and 11).
type Query struct {
	Table string
	Where []relstore.Pred
	Body  XMLExpr
}

// SQL renders the query.
func (q *Query) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(q.Body.SQL())
	sb.WriteString("\nFROM " + strings.ToUpper(q.Table))
	if len(q.Where) > 0 {
		var conds []string
		for _, p := range q.Where {
			conds = append(conds, strings.ToUpper(p.String()))
		}
		sb.WriteString("\nWHERE " + strings.Join(conds, " AND "))
	}
	return sb.String()
}

// Executor runs views and queries against a relstore database.
type Executor struct {
	DB *relstore.DB
	// Stats accumulates physical-operator counters across executions.
	// Concurrent runs that need isolated counters pass their own sink to
	// the entry points and merge it back via AddStats; read this field with
	// Stats.Snapshot while runs are in flight.
	Stats relstore.Stats
}

// NewExecutor returns an executor over db.
func NewExecutor(db *relstore.DB) *Executor {
	return &Executor{DB: db}
}

// AddStats merges a per-run stats sink into the executor's accumulated
// counters (atomically).
func (e *Executor) AddStats(s *relstore.Stats) { e.Stats.Add(s) }

// explainSubqueries appends one line per subquery of expr, which constructs
// from rows of outer: the group-join the executor would run for it, rendered
// from the same per-run plan (planSub) against the same pinned snapshot.
func explainSubqueries(snap *relstore.Snapshot, outer *relstore.TableSnap, expr XMLExpr, sb *strings.Builder, pad string) {
	switch x := expr.(type) {
	case *Element:
		for _, a := range x.Attrs {
			explainSubqueries(snap, outer, a.Value, sb, pad)
		}
		for _, c := range x.Children {
			explainSubqueries(snap, outer, c, sb, pad)
		}
	case *Concat:
		for _, c := range x.Items {
			explainSubqueries(snap, outer, c, sb, pad)
		}
	case *Cond:
		explainSubqueries(snap, outer, x.Then, sb, pad)
		if x.Else != nil {
			explainSubqueries(snap, outer, x.Else, sb, pad)
		}
	case *Agg:
		explainSub(snap, outer, x.Sub, sb, pad)
	case *ScalarAgg:
		explainSub(snap, outer, x.Sub, sb, pad)
	}
}

func explainSub(snap *relstore.Snapshot, outer *relstore.TableSnap, sub *SubQuery, sb *strings.Builder, pad string) {
	p, err := planSub(snap, sub, outer, nil)
	if err != nil {
		return
	}
	defer p.release()
	sb.WriteString("\n" + pad + "-> " + p.join.Explain(sub.CorrOuter))
	if sub.Body != nil {
		explainSubqueries(snap, p.join.Inner(), sub.Body, sb, pad+"  ")
	}
}

// DeriveSchema computes the structural schema of the view's XMLType output
// (paper §3.2: "we can get the XML structural information from the
// underlying relational or object relational schema").
func (e *Executor) DeriveSchema(v *ViewDef) (*xschema.Schema, error) {
	t := e.DB.Table(v.Table)
	if t == nil {
		return nil, fmt.Errorf("sqlxml: view %q references unknown table %q", v.Name, v.Table)
	}
	s := xschema.NewSchema()
	root, err := deriveElem(e.DB, s, v.Body, t)
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("sqlxml: view %q body must be a single XMLElement", v.Name)
	}
	s.Root = root
	return s, nil
}

// deriveElem maps an XMLExpr to an element declaration (for Element) or
// returns nil for non-element expressions.
func deriveElem(db *relstore.DB, s *xschema.Schema, expr XMLExpr, t *relstore.Table) (*xschema.ElemDecl, error) {
	el, ok := expr.(*Element)
	if !ok {
		return nil, nil
	}
	decl := s.Declare(el.Name)
	for _, a := range el.Attrs {
		at := xschema.TypeString
		if c, ok := a.Value.(*Column); ok {
			at = colSchemaType(t, c.Name)
		}
		if decl.Attr(a.Name) == nil {
			decl.Attrs = append(decl.Attrs, &xschema.AttrDecl{Name: a.Name, Type: at})
		}
	}
	// Classify content.
	var children []*xschema.Particle
	isText := false
	textType := xschema.TypeString
	var walk func(kids []XMLExpr) error
	walk = func(kids []XMLExpr) error {
		for _, k := range kids {
			switch c := k.(type) {
			case *Element:
				kd, err := deriveElem(db, s, c, t)
				if err != nil {
					return err
				}
				children = append(children, &xschema.Particle{Child: kd, Min: 1, Max: 1})
			case *Column:
				isText = true
				textType = colSchemaType(t, c.Name)
			case *Literal:
				isText = true
			case *ScalarAgg:
				isText = true
				if c.Fn != "count" {
					textType = xschema.TypeFloat
				} else {
					textType = xschema.TypeInt
				}
			case *Concat:
				if err := walk(c.Items); err != nil {
					return err
				}
			case *Agg:
				innerT := db.Table(c.Sub.Table)
				if innerT == nil {
					return fmt.Errorf("sqlxml: unknown table %q", c.Sub.Table)
				}
				kd, err := deriveElem(db, s, c.Sub.Body, innerT)
				if err != nil {
					return err
				}
				if kd == nil {
					return fmt.Errorf("sqlxml: XMLAgg body must be an XMLElement")
				}
				// Aggregated rows repeat 0..unbounded.
				children = append(children, &xschema.Particle{Child: kd, Min: 0, Max: xschema.Unbounded})
			}
		}
		return nil
	}
	if err := walk(el.Children); err != nil {
		return nil, err
	}
	switch {
	case len(children) > 0 && isText:
		// Mixed content cannot be captured by the structural schema model
		// (an element is either a typed leaf or a compositor); rewriting
		// against it would silently drop the text. Refuse, so the caller
		// falls back to functional evaluation.
		return nil, fmt.Errorf("sqlxml: element %q mixes text and element content; mixed content is not rewritable", el.Name)
	case len(children) > 0:
		decl.Group = xschema.GroupSeq
		decl.Children = children
	case isText:
		decl.Group = xschema.GroupText
		decl.Type = textType
	default:
		decl.Group = xschema.GroupEmpty
	}
	return decl, nil
}

func colSchemaType(t *relstore.Table, col string) xschema.Type {
	ct, ok := t.ColType(col)
	if !ok {
		return xschema.TypeString
	}
	switch ct {
	case relstore.IntCol:
		return xschema.TypeInt
	case relstore.FloatCol:
		return xschema.TypeFloat
	default:
		return xschema.TypeString
	}
}

// DeptEmpView constructs the paper's Table 3 view over dept/emp tables;
// shared by tests, examples and the benchmark harness.
func DeptEmpView() *ViewDef {
	return &ViewDef{
		Name:  "dept_emp",
		Table: "dept",
		Body: &Element{Name: "dept", Children: []XMLExpr{
			&Element{Name: "dname", Children: []XMLExpr{&Column{Name: "dname"}}},
			&Element{Name: "loc", Children: []XMLExpr{&Column{Name: "loc"}}},
			&Element{Name: "employees", Children: []XMLExpr{
				&Agg{Sub: &SubQuery{
					Table:     "emp",
					CorrInner: "deptno",
					CorrOuter: "deptno",
					Body: &Element{Name: "emp", Children: []XMLExpr{
						&Element{Name: "empno", Children: []XMLExpr{&Column{Name: "empno"}}},
						&Element{Name: "ename", Children: []XMLExpr{&Column{Name: "ename"}}},
						&Element{Name: "sal", Children: []XMLExpr{&Column{Name: "sal"}}},
					}},
				}},
			}},
		}},
	}
}

// SetupDeptEmp creates and populates the paper's dept/emp tables (Tables 1
// and 2) in db.
func SetupDeptEmp(db *relstore.DB) error {
	dept, err := db.CreateTable("dept",
		relstore.Column{Name: "deptno", Type: relstore.IntCol},
		relstore.Column{Name: "dname", Type: relstore.StringCol},
		relstore.Column{Name: "loc", Type: relstore.StringCol})
	if err != nil {
		return err
	}
	emp, err := db.CreateTable("emp",
		relstore.Column{Name: "empno", Type: relstore.IntCol},
		relstore.Column{Name: "ename", Type: relstore.StringCol},
		relstore.Column{Name: "job", Type: relstore.StringCol},
		relstore.Column{Name: "sal", Type: relstore.IntCol},
		relstore.Column{Name: "deptno", Type: relstore.IntCol})
	if err != nil {
		return err
	}
	rows := [][]relstore.Value{
		{int64(10), "ACCOUNTING", "NEW YORK"},
		{int64(40), "OPERATIONS", "BOSTON"},
	}
	for _, r := range rows {
		if _, err := dept.Insert(r...); err != nil {
			return err
		}
	}
	empRows := [][]relstore.Value{
		{int64(7782), "CLARK", "MANAGER", int64(2450), int64(10)},
		{int64(7934), "MILLER", "CLERK", int64(1300), int64(10)},
		{int64(7954), "SMITH", "VP", int64(4900), int64(40)},
	}
	for _, r := range empRows {
		if _, err := emp.Insert(r...); err != nil {
			return err
		}
	}
	return nil
}
