package xquery

import (
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// Parse parses a complete XQuery module (prolog + body).
func Parse(src string) (*Module, error) {
	p := &parser{sc: scanner{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	m := &Module{}
	for p.isKeyword("declare") {
		if err := p.parseDeclaration(m); err != nil {
			return nil, err
		}
	}
	body, err := p.parseExprSequence()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tEOF {
		return nil, p.errf("unexpected %s after query body", p.cur)
	}
	m.Body = body
	return m, nil
}

// maxParseDepth bounds parser recursion so hostile inputs (a kilobyte of
// "((((" or deeply nested constructors) surface a ParseError instead of
// exhausting the goroutine stack. Real-world queries nest a handful of
// levels.
const maxParseDepth = 512

type parser struct {
	sc    scanner
	cur   tok
	depth int
}

// enter charges one level of parser recursion; leave releases it.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errf("expression nests deeper than %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) errf(format string, args ...any) error {
	return p.sc.errf(p.cur.pos, format, args...)
}

// advance scans the next token into p.cur.
func (p *parser) advance() error {
	t, err := p.sc.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.cur.kind == tName && p.cur.text == kw
}

// eatKeyword consumes the keyword and reports whether it was present.
func (p *parser) eatKeyword(kw string) (bool, error) {
	if !p.isKeyword(kw) {
		return false, nil
	}
	return true, p.advance()
}

func (p *parser) expectKeyword(kw string) error {
	ok, err := p.eatKeyword(kw)
	if err != nil {
		return err
	}
	if !ok {
		return p.errf("expected %q, found %s", kw, p.cur)
	}
	return nil
}

func (p *parser) expect(k tokKind, what string) (tok, error) {
	if p.cur.kind != k {
		return tok{}, p.errf("expected %s, found %s", what, p.cur)
	}
	t := p.cur
	return t, p.advance()
}

// peekAhead reports the next token after the current one without consuming
// anything.
func (p *parser) peekAhead() tok {
	save := p.sc.pos
	t, err := p.sc.next()
	p.sc.pos = save
	if err != nil {
		return tok{kind: tEOF}
	}
	return t
}

// parseDeclaration parses `declare variable ...;` or `declare function ...;`.
func (p *parser) parseDeclaration(m *Module) error {
	if err := p.advance(); err != nil { // consume "declare"
		return err
	}
	switch {
	case p.isKeyword("variable"):
		if err := p.advance(); err != nil {
			return err
		}
		v, err := p.expect(tVar, "variable name")
		if err != nil {
			return err
		}
		if _, err := p.expect(tAssign, "':='"); err != nil {
			return err
		}
		init, err := p.parseExprSingle()
		if err != nil {
			return err
		}
		if _, err := p.expect(tSemi, "';'"); err != nil {
			return err
		}
		m.Vars = append(m.Vars, &VarDecl{Name: v.text, Init: init})
		return nil

	case p.isKeyword("function"):
		if err := p.advance(); err != nil {
			return err
		}
		name, err := p.parseQName()
		if err != nil {
			return err
		}
		if _, err := p.expect(tLParen, "'('"); err != nil {
			return err
		}
		var params []string
		if p.cur.kind != tRParen {
			for {
				v, err := p.expect(tVar, "parameter name")
				if err != nil {
					return err
				}
				params = append(params, v.text)
				if p.cur.kind != tComma {
					break
				}
				if err := p.advance(); err != nil {
					return err
				}
			}
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return err
		}
		if _, err := p.expect(tLBrace, "'{'"); err != nil {
			return err
		}
		body, err := p.parseExprSequence()
		if err != nil {
			return err
		}
		if _, err := p.expect(tRBrace, "'}'"); err != nil {
			return err
		}
		if _, err := p.expect(tSemi, "';'"); err != nil {
			return err
		}
		m.Funcs = append(m.Funcs, &FuncDecl{Name: name, Params: params, Body: body})
		return nil
	}
	return p.errf("expected 'variable' or 'function' after 'declare'")
}

// parseQName parses name or prefix:name.
func (p *parser) parseQName() (string, error) {
	t, err := p.expect(tName, "a name")
	if err != nil {
		return "", err
	}
	name := t.text
	if p.cur.kind == tColon {
		if err := p.advance(); err != nil {
			return "", err
		}
		t2, err := p.expect(tName, "local name")
		if err != nil {
			return "", err
		}
		name += ":" + t2.text
	}
	return name, nil
}

// parseExprSequence parses Expr (',' Expr)*.
func (p *parser) parseExprSequence() (Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tComma {
		return first, nil
	}
	seq := &Sequence{Items: []Expr{first}}
	for p.cur.kind == tComma {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		seq.Items = append(seq.Items, e)
	}
	return seq, nil
}

// parseExprSingle sits on every token-level recursion cycle through the
// grammar (parens, FLWOR bodies, predicates, function arguments, enclosed
// expressions), so the depth guard here bounds them all; scanDirectElem
// carries its own guard for character-level constructor nesting.
func (p *parser) parseExprSingle() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.isKeyword("for") || p.isKeyword("let"):
		// Only a FLWOR when followed by $var.
		if p.peekAhead().kind == tVar {
			return p.parseFLWOR()
		}
	case p.isKeyword("if"):
		if p.peekAhead().kind == tLParen {
			return p.parseIf()
		}
	case p.isKeyword("some"), p.isKeyword("every"):
		if p.peekAhead().kind == tVar {
			return p.parseQuantified()
		}
	}
	return p.parseOr()
}

// parseQuantified parses some/every $v in E (, $w in E)* satisfies C.
func (p *parser) parseQuantified() (Expr, error) {
	q := &Quantified{Every: p.isKeyword("every")}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for {
		v, err := p.expect(tVar, "variable name")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("in"); err != nil {
			return nil, err
		}
		in, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		q.Binds = append(q.Binds, Clause{Kind: ClauseFor, Var: v.text, In: in})
		if p.cur.kind != tComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfies = sat
	return q, nil
}

func (p *parser) parseFLWOR() (Expr, error) {
	fl := &FLWOR{}
	for p.isKeyword("for") || p.isKeyword("let") {
		if p.peekAhead().kind != tVar {
			break
		}
		isFor := p.isKeyword("for")
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			v, err := p.expect(tVar, "variable name")
			if err != nil {
				return nil, err
			}
			cl := Clause{Var: v.text}
			if isFor {
				cl.Kind = ClauseFor
				if ok, err := p.eatKeyword("at"); err != nil {
					return nil, err
				} else if ok {
					av, err := p.expect(tVar, "positional variable")
					if err != nil {
						return nil, err
					}
					cl.At = av.text
				}
				if err := p.expectKeyword("in"); err != nil {
					return nil, err
				}
			} else {
				cl.Kind = ClauseLet
				if _, err := p.expect(tAssign, "':='"); err != nil {
					return nil, err
				}
			}
			in, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			cl.In = in
			fl.Clauses = append(fl.Clauses, cl)
			if p.cur.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if ok, err := p.eatKeyword("where"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if p.isKeyword("stable") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.eatKeyword("order"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			k, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: k}
			if ok, err := p.eatKeyword("descending"); err != nil {
				return nil, err
			} else if ok {
				key.Descending = true
			} else if ok, err := p.eatKeyword("ascending"); err != nil {
				return nil, err
			} else {
				_ = ok
			}
			fl.Order = append(fl.Order, key)
			if p.cur.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectKeyword("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	return fl, nil
}

func (p *parser) parseIf() (Expr, error) {
	if err := p.advance(); err != nil { // if
		return nil, err
	}
	if _, err := p.expect(tLParen, "'('"); err != nil {
		return nil, err
	}
	cond, err := p.parseExprSequence()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen, "')'"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

// comparisonOp maps the current token to a comparison operator, covering
// both general (=, !=, <…) and value (eq, ne, lt…) spellings.
func (p *parser) comparisonOp() (BinOp, bool) {
	switch p.cur.kind {
	case tEq:
		return OpEq, true
	case tNe:
		return OpNe, true
	case tLt:
		return OpLt, true
	case tLe:
		return OpLe, true
	case tGt:
		return OpGt, true
	case tGe:
		return OpGe, true
	case tName:
		switch p.cur.text {
		case "eq":
			return OpEq, true
		case "ne":
			return OpNe, true
		case "lt":
			return OpLt, true
		case "le":
			return OpLe, true
		case "gt":
			return OpGt, true
		case "ge":
			return OpGe, true
		}
	}
	return 0, false
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	if op, ok := p.comparisonOp(); ok {
		// Only treat names (eq/ne/...) as operators when an operand
		// follows; they are always operators here since an operand was
		// just parsed.
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: left, R: right}, nil
	}
	return left, nil
}

func (p *parser) parseRange() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.isKeyword("to") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpTo, L: left, R: right}, nil
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tPlus || p.cur.kind == tMinus {
		op := OpAdd
		if p.cur.kind == tMinus {
			op = OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.cur.kind == tStar:
			op = OpMul
		case p.isKeyword("div"):
			op = OpDiv
		case p.isKeyword("idiv"):
			op = OpIDiv
		case p.isKeyword("mod"):
			op = OpMod
		default:
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseUnion() (Expr, error) {
	left, err := p.parseInstanceOf()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tPipe || p.isKeyword("union") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseInstanceOf()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpUnion, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseInstanceOf() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.isKeyword("instance") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("of"); err != nil {
			return nil, err
		}
		st, err := p.parseSeqType()
		if err != nil {
			return nil, err
		}
		return &InstanceOf{X: left, Type: st}, nil
	}
	return left, nil
}

func (p *parser) parseSeqType() (SeqType, error) {
	t, err := p.expect(tName, "a type name")
	if err != nil {
		return SeqType{}, err
	}
	st := SeqType{}
	switch t.text {
	case "element":
		st.Kind = SeqTypeElement
	case "attribute":
		st.Kind = SeqTypeAttribute
	case "text":
		st.Kind = SeqTypeText
	case "comment":
		st.Kind = SeqTypeComment
	case "processing-instruction":
		st.Kind = SeqTypePI
	case "node":
		st.Kind = SeqTypeNode
	default:
		return SeqType{}, p.errf("unsupported sequence type %q", t.text)
	}
	if _, err := p.expect(tLParen, "'('"); err != nil {
		return SeqType{}, err
	}
	if p.cur.kind == tName || p.cur.kind == tStar {
		if p.cur.kind == tStar {
			if err := p.advance(); err != nil {
				return SeqType{}, err
			}
		} else {
			name, err := p.parseQName()
			if err != nil {
				return SeqType{}, err
			}
			st.Name = name
		}
	}
	if _, err := p.expect(tRParen, "')'"); err != nil {
		return SeqType{}, err
	}
	// Occurrence indicators ?, *, + are accepted and ignored (the
	// evaluator checks node kind/name only).
	switch p.cur.kind {
	case tQuestion, tStar, tPlus:
		if err := p.advance(); err != nil {
			return SeqType{}, err
		}
	}
	return st, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur.kind == tMinus {
		// Self-recursive ("--x") without passing parseExprSingle, so it
		// needs its own depth charge.
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Neg{X: x}, nil
	}
	return p.parsePath()
}

// nodeTypeNames are names that start a kind test rather than a function
// call or a name step.
func isNodeType(name string) bool {
	switch name {
	case "text", "comment", "node", "processing-instruction":
		return true
	}
	return false
}

// parsePath parses a path expression: [('/'|'//')] StepExpr (('/'|'//') StepExpr)*.
func (p *parser) parsePath() (Expr, error) {
	path := &Path{}
	switch p.cur.kind {
	case tSlash:
		if err := p.advance(); err != nil {
			return nil, err
		}
		path.Abs = true
		if !p.startsStep() {
			return path, nil
		}
	case tSlashSlash:
		if err := p.advance(); err != nil {
			return nil, err
		}
		path.Abs = true
		path.Steps = append(path.Steps, dosStep())
	default:
		// Maybe a primary (filter) expression base.
		isPrim, err := p.startsPrimary()
		if err != nil {
			return nil, err
		}
		if isPrim {
			base, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			if p.cur.kind != tSlash && p.cur.kind != tSlashSlash {
				return base, nil
			}
			path.Base = base
			if p.cur.kind == tSlashSlash {
				path.Steps = append(path.Steps, dosStep())
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	for {
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
		if p.cur.kind == tSlash {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if p.cur.kind == tSlashSlash {
			if err := p.advance(); err != nil {
				return nil, err
			}
			path.Steps = append(path.Steps, dosStep())
			continue
		}
		break
	}
	return path, nil
}

func dosStep() *Step {
	return &Step{Axis: xpath.AxisDescendantOrSelf, Test: xpath.NodeTest{Kind: xpath.TestNode}}
}

func (p *parser) startsStep() bool {
	switch p.cur.kind {
	case tName, tStar, tAt, tDotDot, tDot:
		return true
	}
	return false
}

// startsPrimary reports whether the current token begins a primary
// expression rather than an axis step.
func (p *parser) startsPrimary() (bool, error) {
	switch p.cur.kind {
	case tNumber, tString, tVar, tLParen, tDot:
		return true, nil
	case tLt:
		return true, nil // direct constructor
	case tName:
		name := p.cur.text
		nxt := p.peekAhead()
		// Computed constructors: element/attribute/text/... followed by
		// '{' or by a QName then '{'.
		switch name {
		case "element", "attribute", "text", "comment", "processing-instruction":
			if nxt.kind == tLBrace {
				return true, nil
			}
			if name == "element" || name == "attribute" {
				// element foo {...}: name then brace.
				if nxt.kind == tName {
					return true, nil
				}
			}
		}
		if nxt.kind == tLParen && !isNodeType(name) {
			return true, nil // function call
		}
		if nxt.kind == tColon {
			// Could be fn:name( — look two ahead by re-scanning.
			save := p.sc.pos
			t1, err := p.sc.next() // colon
			if err == nil && t1.kind == tColon {
				t2, err2 := p.sc.next()
				if err2 == nil && t2.kind == tName {
					t3, err3 := p.sc.next()
					if err3 == nil && t3.kind == tLParen {
						p.sc.pos = save
						return true, nil
					}
				}
			}
			p.sc.pos = save
		}
	}
	return false, nil
}

func (p *parser) parseStep() (*Step, error) {
	if p.cur.kind == tDot {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Step{Axis: xpath.AxisSelf, Test: xpath.NodeTest{Kind: xpath.TestNode}}, nil
	}
	if p.cur.kind == tDotDot {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Step{Axis: xpath.AxisParent, Test: xpath.NodeTest{Kind: xpath.TestNode}}, nil
	}
	step := &Step{Axis: xpath.AxisChild}
	switch p.cur.kind {
	case tAt:
		if err := p.advance(); err != nil {
			return nil, err
		}
		step.Axis = xpath.AxisAttribute
	case tName:
		if p.peekAhead().kind == tColonColon {
			ax, ok := axisByName(p.cur.text)
			if !ok {
				return nil, p.errf("unknown axis %q", p.cur.text)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			step.Axis = ax
		}
	}
	test, err := p.parseNodeTest()
	if err != nil {
		return nil, err
	}
	step.Test = test
	for p.cur.kind == tLBracket {
		if err := p.advance(); err != nil {
			return nil, err
		}
		pred, err := p.parseExprSequence()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRBracket, "']'"); err != nil {
			return nil, err
		}
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

func axisByName(name string) (xpath.Axis, bool) {
	for n, a := range map[string]xpath.Axis{
		"child": xpath.AxisChild, "descendant": xpath.AxisDescendant,
		"descendant-or-self": xpath.AxisDescendantOrSelf, "parent": xpath.AxisParent,
		"ancestor": xpath.AxisAncestor, "ancestor-or-self": xpath.AxisAncestorOrSelf,
		"self": xpath.AxisSelf, "attribute": xpath.AxisAttribute,
		"following-sibling": xpath.AxisFollowingSibling, "preceding-sibling": xpath.AxisPrecedingSibling,
		"following": xpath.AxisFollowing, "preceding": xpath.AxisPreceding,
	} {
		if n == name {
			return a, true
		}
	}
	return 0, false
}

func (p *parser) parseNodeTest() (xpath.NodeTest, error) {
	switch p.cur.kind {
	case tStar:
		if err := p.advance(); err != nil {
			return xpath.NodeTest{}, err
		}
		return xpath.NodeTest{Kind: xpath.TestAnyName}, nil
	case tName:
		name := p.cur.text
		if isNodeType(name) && p.peekAhead().kind == tLParen {
			if err := p.advance(); err != nil {
				return xpath.NodeTest{}, err
			}
			if err := p.advance(); err != nil {
				return xpath.NodeTest{}, err
			}
			nt := xpath.NodeTest{}
			switch name {
			case "text":
				nt.Kind = xpath.TestText
			case "comment":
				nt.Kind = xpath.TestComment
			case "node":
				nt.Kind = xpath.TestNode
			case "processing-instruction":
				nt.Kind = xpath.TestPI
				if p.cur.kind == tString {
					nt.Name = p.cur.text
					if err := p.advance(); err != nil {
						return xpath.NodeTest{}, err
					}
				}
			}
			if _, err := p.expect(tRParen, "')'"); err != nil {
				return xpath.NodeTest{}, err
			}
			return nt, nil
		}
		if err := p.advance(); err != nil {
			return xpath.NodeTest{}, err
		}
		if p.cur.kind == tColon {
			if err := p.advance(); err != nil {
				return xpath.NodeTest{}, err
			}
			if p.cur.kind == tStar {
				if err := p.advance(); err != nil {
					return xpath.NodeTest{}, err
				}
				return xpath.NodeTest{Kind: xpath.TestNSName, Prefix: name}, nil
			}
			local, err := p.expect(tName, "local name")
			if err != nil {
				return xpath.NodeTest{}, err
			}
			return xpath.NodeTest{Kind: xpath.TestName, Prefix: name, Name: local.text}, nil
		}
		return xpath.NodeTest{Kind: xpath.TestName, Name: name}, nil
	}
	return xpath.NodeTest{}, p.errf("expected a node test, found %s", p.cur)
}

// parsePostfix parses Primary Predicate*.
func (p *parser) parsePostfix() (Expr, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tLBracket {
		return prim, nil
	}
	f := &Filter{Base: prim}
	for p.cur.kind == tLBracket {
		if err := p.advance(); err != nil {
			return nil, err
		}
		pred, err := p.parseExprSequence()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRBracket, "']'"); err != nil {
			return nil, err
		}
		f.Preds = append(f.Preds, pred)
	}
	return f, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.cur.kind {
	case tNumber:
		v := p.cur.num
		return NumberLit(v), p.advance()
	case tString:
		v := p.cur.text
		return StringLit(v), p.advance()
	case tVar:
		v := p.cur.text
		return VarRef(v), p.advance()
	case tDot:
		return ContextItem{}, p.advance()
	case tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind == tRParen {
			return EmptySeq{}, p.advance()
		}
		e, err := p.parseExprSequence()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tLt:
		return p.parseDirectConstructor()
	case tName:
		name := p.cur.text
		switch name {
		case "element", "attribute", "text", "comment", "processing-instruction":
			nxt := p.peekAhead()
			if nxt.kind == tLBrace || ((name == "element" || name == "attribute") && nxt.kind == tName) {
				return p.parseComputedConstructor(name)
			}
		}
		qname, err := p.parseQName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tLParen, "'(' for function call"); err != nil {
			return nil, err
		}
		call := &FuncCall{Name: qname}
		if p.cur.kind != tRParen {
			for {
				arg, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.cur.kind != tComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return call, nil
	}
	return nil, p.errf("unexpected %s", p.cur)
}

// parseComputedConstructor parses element/attribute/text/comment/pi
// computed constructors.
func (p *parser) parseComputedConstructor(kind string) (Expr, error) {
	if err := p.advance(); err != nil { // consume keyword
		return nil, err
	}
	var nameExpr Expr
	if kind == "element" || kind == "attribute" || kind == "processing-instruction" {
		if p.cur.kind == tName {
			qn, err := p.parseQName()
			if err != nil {
				return nil, err
			}
			nameExpr = StringLit(qn)
		} else {
			if _, err := p.expect(tLBrace, "'{'"); err != nil {
				return nil, err
			}
			e, err := p.parseExprSequence()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRBrace, "'}'"); err != nil {
				return nil, err
			}
			nameExpr = e
		}
	}
	if _, err := p.expect(tLBrace, "'{'"); err != nil {
		return nil, err
	}
	var body Expr
	if p.cur.kind != tRBrace {
		e, err := p.parseExprSequence()
		if err != nil {
			return nil, err
		}
		body = e
	}
	if _, err := p.expect(tRBrace, "'}'"); err != nil {
		return nil, err
	}
	switch kind {
	case "element":
		return &CompElem{Name: nameExpr, Body: body}, nil
	case "attribute":
		return &CompAttr{Name: nameExpr, Body: body}, nil
	case "text":
		return &CompText{Body: body}, nil
	case "comment":
		return &CompComment{Body: body}, nil
	default:
		return &CompPI{Name: nameExpr, Body: body}, nil
	}
}

// parseDirectConstructor parses <name attr="...">content</name> at
// character level, starting from the '<' token already in p.cur.
func (p *parser) parseDirectConstructor() (Expr, error) {
	// Rewind the scanner to the '<' and parse raw.
	p.sc.pos = p.cur.pos
	e, err := p.scanDirectElem()
	if err != nil {
		return nil, err
	}
	// Resume token scanning after the constructor.
	if err := p.advance(); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) scanDirectElem() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	s := &p.sc
	start := s.pos
	if s.src[s.pos] != '<' {
		return nil, s.errf(s.pos, "expected '<'")
	}
	s.pos++
	name, err := s.scanName()
	if err != nil {
		return nil, err
	}
	if s.pos < len(s.src) && s.src[s.pos] == ':' {
		s.pos++
		local, err := s.scanName()
		if err != nil {
			return nil, err
		}
		name += ":" + local
	}
	elem := &DirectElem{Name: name}

	// Attributes.
	for {
		skipRawSpace(s)
		if s.pos >= len(s.src) {
			return nil, s.errf(start, "unterminated constructor <%s>", name)
		}
		c := s.src[s.pos]
		if c == '/' || c == '>' {
			break
		}
		aname, err := s.scanName()
		if err != nil {
			return nil, err
		}
		if s.pos < len(s.src) && s.src[s.pos] == ':' {
			s.pos++
			local, err := s.scanName()
			if err != nil {
				return nil, err
			}
			aname += ":" + local
		}
		skipRawSpace(s)
		if s.pos >= len(s.src) || s.src[s.pos] != '=' {
			return nil, s.errf(s.pos, "expected '=' after attribute %q", aname)
		}
		s.pos++
		skipRawSpace(s)
		if s.pos >= len(s.src) || (s.src[s.pos] != '"' && s.src[s.pos] != '\'') {
			return nil, s.errf(s.pos, "expected quoted attribute value")
		}
		quote := s.src[s.pos]
		s.pos++
		parts, err := p.scanAttrValueParts(quote)
		if err != nil {
			return nil, err
		}
		elem.Attrs = append(elem.Attrs, DirectAttr{Name: aname, Parts: parts})
	}

	if s.src[s.pos] == '/' {
		s.pos++
		if s.pos >= len(s.src) || s.src[s.pos] != '>' {
			return nil, s.errf(s.pos, "expected '/>'")
		}
		s.pos++
		return elem, nil
	}
	s.pos++ // '>'

	// Content.
	var text strings.Builder
	flush := func() {
		if text.Len() == 0 {
			return
		}
		data := text.String()
		text.Reset()
		// Boundary whitespace is stripped (default XQuery behaviour);
		// anything containing non-whitespace is kept verbatim.
		if strings.TrimSpace(data) == "" {
			return
		}
		elem.Children = append(elem.Children, TextLit(data))
	}
	for {
		if s.pos >= len(s.src) {
			return nil, s.errf(start, "unterminated constructor <%s>", name)
		}
		c := s.src[s.pos]
		switch c {
		case '<':
			if strings.HasPrefix(s.src[s.pos:], "</") {
				flush()
				s.pos += 2
				cname, err := s.scanName()
				if err != nil {
					return nil, err
				}
				if s.pos < len(s.src) && s.src[s.pos] == ':' {
					s.pos++
					local, err := s.scanName()
					if err != nil {
						return nil, err
					}
					cname += ":" + local
				}
				skipRawSpace(s)
				if s.pos >= len(s.src) || s.src[s.pos] != '>' {
					return nil, s.errf(s.pos, "expected '>' in closing tag")
				}
				s.pos++
				if cname != name {
					return nil, s.errf(start, "mismatched constructor tags <%s>...</%s>", name, cname)
				}
				return elem, nil
			}
			if strings.HasPrefix(s.src[s.pos:], "<!--") {
				end := strings.Index(s.src[s.pos:], "-->")
				if end < 0 {
					return nil, s.errf(s.pos, "unterminated comment in constructor")
				}
				s.pos += end + 3
				continue
			}
			flush()
			child, err := p.scanDirectElem()
			if err != nil {
				return nil, err
			}
			elem.Children = append(elem.Children, child)
		case '{':
			if strings.HasPrefix(s.src[s.pos:], "{{") {
				text.WriteByte('{')
				s.pos += 2
				continue
			}
			flush()
			s.pos++
			// Parse an enclosed expression with the token parser.
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExprSequence()
			if err != nil {
				return nil, err
			}
			if p.cur.kind != tRBrace {
				return nil, p.errf("expected '}' to close embedded expression")
			}
			// p.sc.pos now sits just after '}'.
			elem.Children = append(elem.Children, e)
		case '}':
			if strings.HasPrefix(s.src[s.pos:], "}}") {
				text.WriteByte('}')
				s.pos += 2
				continue
			}
			return nil, s.errf(s.pos, "lone '}' in constructor content")
		case '&':
			r, width, err := scanEntity(s)
			if err != nil {
				return nil, err
			}
			text.WriteRune(r)
			s.pos += width
		default:
			text.WriteByte(c)
			s.pos++
		}
	}
}

// scanAttrValueParts reads a direct-constructor attribute value up to the
// closing quote, splitting literal text and {expr} parts.
func (p *parser) scanAttrValueParts(quote byte) ([]AttrValuePart, error) {
	s := &p.sc
	var parts []AttrValuePart
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, AttrValuePart{Text: text.String()})
			text.Reset()
		}
	}
	for {
		if s.pos >= len(s.src) {
			return nil, s.errf(s.pos, "unterminated attribute value")
		}
		c := s.src[s.pos]
		switch c {
		case quote:
			s.pos++
			flush()
			if len(parts) == 0 {
				parts = append(parts, AttrValuePart{Text: ""})
			}
			return parts, nil
		case '{':
			if strings.HasPrefix(s.src[s.pos:], "{{") {
				text.WriteByte('{')
				s.pos += 2
				continue
			}
			flush()
			s.pos++
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExprSequence()
			if err != nil {
				return nil, err
			}
			if p.cur.kind != tRBrace {
				return nil, p.errf("expected '}' in attribute value")
			}
			parts = append(parts, AttrValuePart{Expr: e})
		case '}':
			if strings.HasPrefix(s.src[s.pos:], "}}") {
				text.WriteByte('}')
				s.pos += 2
				continue
			}
			return nil, s.errf(s.pos, "lone '}' in attribute value")
		case '&':
			r, width, err := scanEntity(s)
			if err != nil {
				return nil, err
			}
			text.WriteRune(r)
			s.pos += width
		default:
			text.WriteByte(c)
			s.pos++
		}
	}
}

// scanEntity decodes an entity reference at s.pos, returning the rune and
// the source width consumed.
func scanEntity(s *scanner) (rune, int, error) {
	end := strings.IndexByte(s.src[s.pos:], ';')
	if end < 0 {
		return 0, 0, s.errf(s.pos, "unterminated entity reference")
	}
	ent := s.src[s.pos+1 : s.pos+end]
	width := end + 1
	switch ent {
	case "lt":
		return '<', width, nil
	case "gt":
		return '>', width, nil
	case "amp":
		return '&', width, nil
	case "quot":
		return '"', width, nil
	case "apos":
		return '\'', width, nil
	}
	if strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X") {
		var v int64
		if _, err := fmt.Sscanf(ent[2:], "%x", &v); err != nil {
			return 0, 0, s.errf(s.pos, "bad character reference &%s;", ent)
		}
		return rune(v), width, nil
	}
	if strings.HasPrefix(ent, "#") {
		var v int64
		if _, err := fmt.Sscanf(ent[1:], "%d", &v); err != nil {
			return 0, 0, s.errf(s.pos, "bad character reference &%s;", ent)
		}
		return rune(v), width, nil
	}
	return 0, 0, s.errf(s.pos, "unknown entity &%s;", ent)
}

func skipRawSpace(s *scanner) {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}
