package core

import (
	"repro/internal/pe"
	"repro/internal/xmltree"
	"repro/internal/xquery"
	"repro/internal/xslt"
)

// rewriteNonInline is the paper's non-inline mode (§4.4): used when the
// template execution graph contains recursion. Each *instantiated* template
// becomes an XQuery function (§3.7 removes the rest); each apply-templates
// compiles into a dispatch restricted to the templates its trace-call-list
// names (far narrower than the straightforward all-templates chain), with
// parent-axis tests pruned by the schema (§3.5).
func rewriteNonInline(peRes *pe.Result, partial bool) (*Result, error) {
	r := &nonInliner{
		pe:        peRes,
		sheet:     peRes.Sheet,
		vars:      &varGen{},
		partial:   partial,
		globalRTF: map[string]bool{},
	}
	r.bc = &bodyCompiler{host: r, vars: r.vars, notes: &r.notes}

	m := &xquery.Module{
		Vars: []*xquery.VarDecl{{Name: "var000", Init: xquery.ContextItem{}}},
	}
	baseEnv := bodyEnv{
		conv: convEnv{
			root:      xquery.VarRef("var000"),
			renameVar: userVarName,
		},
		rtfVars: map[string]bool{},
	}
	docEnv := baseEnv.withCtx(xquery.VarRef("var000"), nil)

	for _, def := range r.sheet.GlobalVars {
		init, err := r.globalInit(def, docEnv)
		if err != nil {
			return nil, err
		}
		if def.Select == nil && len(def.Body) > 0 {
			docEnv = docEnv.markRTF(userVarName(def.Name))
			r.globalRTF[userVarName(def.Name)] = true
		}
		m.Vars = append(m.Vars, &xquery.VarDecl{Name: userVarName(def.Name), Init: init})
	}

	// The trace's Instantiated set records optimistic winners; templates
	// reachable when a higher-priority value predicate FAILS (Tables 18-19)
	// must also get functions. Close the set over the dispatch plans of
	// every element name seen in the trace.
	markPlans := func(name, mode string) {
		conds, final := dispatchPlan(r.sheet, name, mode)
		for _, t := range conds {
			peRes.Instantiated[t] = true
		}
		if final != nil {
			peRes.Instantiated[final] = true
		}
	}
	allModes := modesOf(r.sheet)
	for id, list := range peRes.CallLists {
		mode := peRes.TraceTable[id].Mode
		for _, e := range list {
			if e.Kind == xmltree.ElementNode {
				markPlans(e.Name, mode)
			}
		}
	}
	for _, e := range peRes.RootEntries {
		if e.Kind == xmltree.ElementNode {
			// Builtin descent does not record its mode; close over all.
			for _, mode := range allModes {
				markPlans(e.Name, mode)
			}
		}
	}

	// Functions for instantiated templates only (§3.7); in partial mode,
	// additionally only for templates on recursion cycles (§7.2).
	removed, inlinedAway := 0, 0
	for _, t := range r.sheet.Templates {
		if !peRes.Instantiated[t] {
			removed++
			continue
		}
		if !r.mustStayFunction(t) {
			inlinedAway++
			continue
		}
		fn, err := r.templateFunc(t)
		if err != nil {
			return nil, err
		}
		m.Funcs = append(m.Funcs, fn)
	}
	if removed > 0 {
		r.note("removed %d non-instantiated template(s) (§3.7)", removed)
	}
	if inlinedAway > 0 {
		r.note("partial inline mode: %d non-recursive template(s) inlined at their activation sites (§7.2)", inlinedAway)
	}

	// A builtin descent function per mode that appears in the call lists.
	for _, mode := range r.modesUsed() {
		fn, err := r.builtinFunc(mode)
		if err != nil {
			return nil, err
		}
		m.Funcs = append(m.Funcs, fn)
	}

	// The main query dispatches the root activation directly.
	body, err := r.rootDispatch(docEnv)
	if err != nil {
		return nil, err
	}
	m.Body = &xquery.Annotated{Comment: "builtin template", X: body}

	mode := ModeNonInline
	if partial {
		mode = ModePartialInline
	}
	return &Result{Module: m, Mode: mode, Inlined: false, PE: peRes, Notes: r.notes}, nil
}

type nonInliner struct {
	pe    *pe.Result
	sheet *xslt.Stylesheet
	vars  *varGen
	bc    *bodyCompiler
	notes []string
	// globalRTF records global result-tree-fragment variables.
	globalRTF map[string]bool
	// partial enables §7.2 partial inline mode: only templates on
	// recursion cycles stay functions.
	partial bool
	// inlineDepth bounds nested inlining (a missed cycle in the trace
	// would otherwise loop).
	inlineDepth int
}

// mustStayFunction reports whether a template must remain an XQuery
// function under the current mode.
func (r *nonInliner) mustStayFunction(t *xslt.Template) bool {
	if !r.partial {
		return true
	}
	return r.pe.RecursiveTemplates[t]
}

func (r *nonInliner) note(format string, args ...any) { r.bc.note(format, args...) }

func (r *nonInliner) globalInit(def *xslt.VarDef, env bodyEnv) (xquery.Expr, error) {
	switch {
	case def.Select != nil:
		return convertExpr(def.Select, env.conv)
	case len(def.Body) > 0:
		inner, err := r.bc.compileSeq(def.Body, env, false)
		if err != nil {
			return nil, err
		}
		return &xquery.CompElem{Name: xquery.StringLit(rtfWrapperName), Body: inner}, nil
	default:
		return xquery.StringLit(""), nil
	}
}

// modesUsed lists every mode of instantiated match templates, "" first.
func (r *nonInliner) modesUsed() []string {
	seen := map[string]bool{"": true}
	out := []string{""}
	for t := range r.pe.Instantiated {
		if t.Match != nil && !seen[t.Mode] {
			seen[t.Mode] = true
			out = append(out, t.Mode)
		}
	}
	return out
}

func (r *nonInliner) templateFunc(t *xslt.Template) (*xquery.FuncDecl, error) {
	fn := &xquery.FuncDecl{Name: funcNameForTemplate(t), Params: []string{"c"}}
	rtf := map[string]bool{}
	for name := range r.globalRTF {
		rtf[name] = true
	}
	env := bodyEnv{
		conv: convEnv{
			ctx:       xquery.VarRef("c"),
			current:   xquery.VarRef("c"),
			root:      xquery.VarRef("var000"),
			renameVar: userVarName,
		},
		rtfVars: rtf,
	}
	for _, p := range t.Params {
		fn.Params = append(fn.Params, userVarName(p.Name))
	}
	body, err := r.bc.compileSeq(t.Body, env, false)
	if err != nil {
		return nil, convErrf("template %s: %v", t, err)
	}
	fn.Body = &xquery.Annotated{Comment: "<xsl:template " + describeTemplate(t) + ">", X: body}
	return fn, nil
}

// builtinFunc implements the built-in rules, dispatching elements through
// the *instantiated* templates only.
func (r *nonInliner) builtinFunc(mode string) (*xquery.FuncDecl, error) {
	c := xquery.VarRef("c")
	candVar := "c"
	candEnv := bodyEnv{
		conv:    convEnv{ctx: c, current: c, root: xquery.VarRef("var000"), renameVar: userVarName},
		rtfVars: map[string]bool{},
	}
	patEnv := convEnv{ctx: nil, root: xquery.VarRef("var000"), renameVar: userVarName}

	isKind := func(k xquery.SeqTypeKind) xquery.Expr {
		return &xquery.InstanceOf{X: c, Type: xquery.SeqType{Kind: k}}
	}

	// Element branch: test instantiated templates in precedence order,
	// else recurse into children.
	var elemChain xquery.Expr = &xquery.FLWOR{
		Clauses: []xquery.Clause{{Kind: xquery.ClauseFor, Var: "cc", In: nodeStep(c)}},
		Return:  &xquery.FuncCall{Name: builtinFuncName(mode), Args: []xquery.Expr{xquery.VarRef("cc")}},
	}
	ts := r.instantiatedMatch(mode)
	for i := len(ts) - 1; i >= 0; i-- {
		t := ts[i]
		cond, err := patternCondition(t.Match, candVar, r.pe.Schema, r.bc, patEnv)
		if err != nil {
			continue // unconvertible pattern: leave it to deeper dispatch
		}
		target, err := r.dispatchTarget(t, candVar, candEnv, nil)
		if err != nil {
			return nil, err
		}
		elemChain = &xquery.IfExpr{Cond: cond, Then: target, Else: elemChain}
	}

	body := &xquery.IfExpr{
		Cond: isKind(xquery.SeqTypeText),
		Then: &xquery.CompText{Body: stringOf(c)},
		Else: &xquery.IfExpr{
			Cond: isKind(xquery.SeqTypeAttribute),
			Then: &xquery.CompText{Body: stringOf(c)},
			Else: &xquery.IfExpr{
				Cond: &xquery.Binary{Op: xquery.OpOr,
					L: isKind(xquery.SeqTypeComment),
					R: isKind(xquery.SeqTypePI)},
				Then: xquery.EmptySeq{},
				Else: elemChain,
			},
		},
	}
	return &xquery.FuncDecl{
		Name:   builtinFuncName(mode),
		Params: []string{"c"},
		Body:   &xquery.Annotated{Comment: "builtin rules over instantiated templates", X: body},
	}, nil
}

// templateCallArgs fills default parameter values (empty string) — callers
// that pass with-params build their own argument lists.
func templateCallArgs(t *xslt.Template, ctx xquery.Expr) []xquery.Expr {
	args := []xquery.Expr{ctx}
	for range t.Params {
		args = append(args, xquery.StringLit(""))
	}
	return args
}

// instantiatedMatch returns instantiated match templates of the mode in
// dispatch order.
func (r *nonInliner) instantiatedMatch(mode string) []*xslt.Template {
	var ts []*xslt.Template
	for _, t := range r.sheet.Templates {
		if t.Match != nil && t.Mode == mode && r.pe.Instantiated[t] {
			ts = append(ts, t)
		}
	}
	return templatesByPrecedence(ts)
}

// rootDispatch compiles the initial application from the PE root entries.
// Root entries also contain builtin-descent activations (they share the -1
// trace id), so only the DOCUMENT node's own entry decides the entry point.
func (r *nonInliner) rootDispatch(env bodyEnv) (xquery.Expr, error) {
	for _, e := range r.pe.RootEntries {
		if e.Kind != xmltree.DocumentNode {
			continue
		}
		if e.Template != nil {
			if !r.mustStayFunction(e.Template) {
				return r.inlineBody(e.Template, env.withCtx(xquery.VarRef("var000"), nil), nil)
			}
			return &xquery.FuncCall{
				Name: funcNameForTemplate(e.Template),
				Args: templateCallArgs(e.Template, xquery.VarRef("var000")),
			}, nil
		}
		break
	}
	return &xquery.FuncCall{Name: builtinFuncName(""), Args: []xquery.Expr{xquery.VarRef("var000")}}, nil
}

// compileApply (applyHost) for non-inline mode: per-site dispatch chain
// restricted to the trace-call-list.
func (r *nonInliner) compileApply(at *xslt.ApplyTemplates, env bodyEnv) (xquery.Expr, error) {
	var sel xquery.Expr
	if at.Select == nil {
		sel = nodeStep(contextItemExpr(env.conv))
	} else {
		var err error
		sel, err = convertExpr(at.Select, env.conv)
		if err != nil {
			return nil, err
		}
	}
	// Sorting wraps the selection.
	if len(at.Sorts) > 0 {
		v := r.vars.fresh()
		inner := env.withCtx(xquery.VarRef(v), nil)
		fl := &xquery.FLWOR{
			Clauses: []xquery.Clause{{Kind: xquery.ClauseFor, Var: v, In: sel}},
			Return:  xquery.VarRef(v),
		}
		for _, sk := range at.Sorts {
			key, err := convertExpr(sk.Select, inner.conv)
			if err != nil {
				return nil, err
			}
			if sk.Numeric {
				key = &xquery.FuncCall{Name: "fn:number", Args: []xquery.Expr{key}}
			} else {
				key = stringOf(key)
			}
			fl.Order = append(fl.Order, xquery.OrderKey{Expr: key, Descending: sk.Descending})
		}
		sel = fl
	}

	// With-params: evaluate in the caller context.
	overrides := map[string]xquery.Expr{}
	for _, p := range at.Params {
		switch {
		case p.Select != nil:
			v, err := convertExpr(p.Select, env.conv)
			if err != nil {
				return nil, err
			}
			overrides[p.Name] = v
		case len(p.Body) > 0:
			inner, err := r.bc.compileSeq(p.Body, env, false)
			if err != nil {
				return nil, err
			}
			overrides[p.Name] = &xquery.CompElem{Name: xquery.StringLit(rtfWrapperName), Body: inner}
		default:
			overrides[p.Name] = xquery.StringLit("")
		}
	}

	// Restricted dispatch: templates from the call list, then any
	// structurally-possible conditional candidates, else builtin.
	entries := r.pe.EntriesFor(at)
	candVar := r.vars.fresh()
	candEnv := env.withCtx(xquery.VarRef(candVar), nil)

	seen := map[*xslt.Template]bool{}
	var listed []*xslt.Template
	sawBuiltinOrText := false
	for _, e := range entries {
		if e.Kind != xmltree.ElementNode {
			sawBuiltinOrText = true
		}
		if e.Template == nil {
			sawBuiltinOrText = true
			continue
		}
		if !seen[e.Template] {
			seen[e.Template] = true
			listed = append(listed, e.Template)
		}
	}
	// Value-predicate candidates that outrank listed winners must also be
	// tested (Tables 18-19).
	for _, e := range entries {
		if e.Kind != xmltree.ElementNode {
			continue
		}
		conds, _ := dispatchPlan(r.sheet, e.Name, at.Mode)
		for _, t := range conds {
			if !seen[t] {
				seen[t] = true
				listed = append(listed, t)
			}
		}
	}
	listed = templatesByPrecedence(listed)
	r.note("apply-templates dispatch narrowed to %d template(s) from the trace-call-list", len(listed))

	var chain xquery.Expr
	if sawBuiltinOrText || len(listed) == 0 {
		chain = &xquery.FuncCall{Name: builtinFuncName(at.Mode), Args: []xquery.Expr{xquery.VarRef(candVar)}}
	} else {
		// All entries named templates; still end with builtin for safety
		// on unexpected real-data nodes.
		chain = &xquery.FuncCall{Name: builtinFuncName(at.Mode), Args: []xquery.Expr{xquery.VarRef(candVar)}}
	}
	for i := len(listed) - 1; i >= 0; i-- {
		t := listed[i]
		cond, err := patternCondition(t.Match, candVar, r.pe.Schema, r.bc, candEnv.conv)
		if err != nil {
			return nil, convErrf("pattern %q: %v", t.MatchSrc, err)
		}
		target, err := r.dispatchTarget(t, candVar, candEnv, overrides)
		if err != nil {
			return nil, err
		}
		chain = &xquery.IfExpr{Cond: cond, Then: target, Else: chain}
	}

	return &xquery.FLWOR{
		Clauses: []xquery.Clause{{Kind: xquery.ClauseFor, Var: candVar, In: sel}},
		Return:  chain,
	}, nil
}

// compileCall (applyHost): direct function call; the target function exists
// because call-template targets count as instantiated.
func (r *nonInliner) compileCall(ct *xslt.CallTemplate, env bodyEnv) (xquery.Expr, error) {
	var target *xslt.Template
	for _, t := range r.sheet.Templates {
		if t.Name == ct.Name {
			target = t
			break
		}
	}
	if target == nil {
		return nil, convErrf("call-template: no template named %q", ct.Name)
	}
	overrides := map[string]xquery.Expr{}
	for _, p := range ct.Params {
		switch {
		case p.Select != nil:
			v, err := convertExpr(p.Select, env.conv)
			if err != nil {
				return nil, err
			}
			overrides[p.Name] = v
		case len(p.Body) > 0:
			inner, err := r.bc.compileSeq(p.Body, env, false)
			if err != nil {
				return nil, err
			}
			overrides[p.Name] = &xquery.CompElem{Name: xquery.StringLit(rtfWrapperName), Body: inner}
		default:
			overrides[p.Name] = xquery.StringLit("")
		}
	}
	call := &xquery.FuncCall{Name: funcNameForTemplate(target), Args: []xquery.Expr{contextItemExpr(env.conv)}}
	for _, p := range target.Params {
		if v, ok := overrides[p.Name]; ok {
			call.Args = append(call.Args, v)
			continue
		}
		switch {
		case p.Select != nil:
			v, err := convertExpr(p.Select, env.conv)
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, v)
		case len(p.Body) > 0:
			inner, err := r.bc.compileSeq(p.Body, env, false)
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, &xquery.CompElem{Name: xquery.StringLit(rtfWrapperName), Body: inner})
		default:
			call.Args = append(call.Args, xquery.StringLit(""))
		}
	}
	return call, nil
}

// dispatchTarget produces the code handling one matched template at an
// apply site: a function call, or (partial inline mode, non-recursive
// template) the inlined body.
func (r *nonInliner) dispatchTarget(t *xslt.Template, candVar string, candEnv bodyEnv, overrides map[string]xquery.Expr) (xquery.Expr, error) {
	if r.mustStayFunction(t) {
		call := &xquery.FuncCall{Name: funcNameForTemplate(t), Args: []xquery.Expr{xquery.VarRef(candVar)}}
		for _, p := range t.Params {
			if v, ok := overrides[p.Name]; ok {
				call.Args = append(call.Args, v)
			} else {
				call.Args = append(call.Args, xquery.StringLit(""))
			}
		}
		return call, nil
	}
	return r.inlineBody(t, candEnv, overrides)
}

// inlineBody inlines a non-recursive template's body at an activation site
// (partial inline mode).
func (r *nonInliner) inlineBody(t *xslt.Template, env bodyEnv, overrides map[string]xquery.Expr) (xquery.Expr, error) {
	r.inlineDepth++
	defer func() { r.inlineDepth-- }()
	if r.inlineDepth > 128 {
		return nil, convErrf("partial inlining exceeded depth bound (cycle missed by the trace?)")
	}
	body, err := r.bc.compileSeq(t.Body, env, false)
	if err != nil {
		return nil, err
	}
	if len(t.Params) > 0 {
		fl := &xquery.FLWOR{Return: body}
		for _, p := range t.Params {
			var val xquery.Expr
			if v, ok := overrides[p.Name]; ok {
				val = v
			} else {
				switch {
				case p.Select != nil:
					v, err := convertExpr(p.Select, env.conv)
					if err != nil {
						return nil, err
					}
					val = v
				case len(p.Body) > 0:
					inner, err := r.bc.compileSeq(p.Body, env, false)
					if err != nil {
						return nil, err
					}
					val = &xquery.CompElem{Name: xquery.StringLit(rtfWrapperName), Body: inner}
				default:
					val = xquery.StringLit("")
				}
			}
			fl.Clauses = append(fl.Clauses, xquery.Clause{Kind: xquery.ClauseLet, Var: userVarName(p.Name), In: val})
		}
		body = fl
	}
	r.note("partially inlined template %s (§7.2)", t)
	return &xquery.Annotated{Comment: "<xsl:template " + describeTemplate(t) + "> (inlined)", X: body}, nil
}
