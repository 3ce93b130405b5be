// Package pe implements the paper's partial evaluation step (§4): the XSLT
// stylesheet is specialized against the *structural* part of the input (a
// sample document generated from the schema), producing trace-call-lists —
// which templates each <xsl:apply-templates> instruction activates for which
// context elements — and a template execution graph whose (a)cyclicity
// decides between inline and non-inline XQuery generation (§4.4).
//
// Value predicates cannot be decided from structure alone, so the sample
// run is conservative: every value-dependent predicate and conditional is
// assumed reachable ("we have to be conservative during the partial
// evaluation and assume that the result of matching pattern with a
// predicate ... is always true", §4.3). Concretely the stylesheet is
// transformed before the run: value predicates in XPath become true(),
// xsl:if bodies always execute, and every xsl:choose branch executes.
package pe

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/governor"
	"repro/internal/xmltree"
	"repro/internal/xschema"
	"repro/internal/xslt"
)

// CallEntry is one entry of a trace-call-list: during the sample run, the
// apply-templates instruction selected Node and activated Template (nil for
// a built-in rule).
type CallEntry struct {
	// Node is the sample node that caused the activation.
	Node *xmltree.Node
	// Kind is the node's kind (element, text, ...).
	Kind xmltree.NodeKind
	// Name is the element name ("" for non-elements).
	Name string
	// Template is the activated template; nil means built-in rule.
	Template *xslt.Template
	// Decl is the schema declaration of the element (nil for non-elements
	// or undeclared names).
	Decl *xschema.ElemDecl
	// Info carries the sample annotations (model group, cardinality,
	// recursion marker).
	Info xschema.SampleInfo
}

// Builtin reports whether the built-in rule handled the entry.
func (e CallEntry) Builtin() bool { return e.Template == nil }

// Result is the output of partial evaluation.
type Result struct {
	Schema *xschema.Schema
	Sample *xmltree.Node
	Sheet  *xslt.Stylesheet
	// TraceTable has one entry per apply-templates instruction, indexed by
	// the TraceID traceTable set on the ORIGINAL stylesheet's instructions.
	TraceTable []TraceEntry

	// CallLists maps each apply-templates trace id to its call list, in
	// activation order with duplicates (same template+name) removed.
	CallLists map[int][]CallEntry
	// RootEntries are the activations of the initial root application.
	RootEntries []CallEntry

	// Instantiated holds every template activated at least once (via
	// apply-templates or reachable call-template).
	Instantiated map[*xslt.Template]bool

	// Recursive reports a cycle in the template execution graph or a
	// recursive input schema — either forces non-inline mode (§4.4, §7.2).
	Recursive bool
	// RecursiveTemplates are the templates on execution-graph or
	// call-template cycles; partial inline mode keeps functions for these
	// and inlines everything else (§7.2 future work, implemented here).
	RecursiveTemplates map[*xslt.Template]bool
	// RecursionReason explains why Recursive was set.
	RecursionReason string

	// BuiltinOnly reports that no user template was ever activated: the
	// whole transformation is the built-in rules (§3.6, Tables 20-21).
	BuiltinOnly bool
}

// Evaluate performs partial evaluation of sheet over schema.
func Evaluate(sheet *xslt.Stylesheet, schema *xschema.Schema) (*Result, error) {
	sample, err := schema.GenerateSample(xschema.SampleOptions{})
	if err != nil {
		return nil, fmt.Errorf("pe: sample generation: %w", err)
	}

	// Unbounded call-template recursion cannot be cut by the finite sample
	// document; detect static call cycles up front and drop the cyclic
	// calls from the optimistic copy (recursion already forces non-inline
	// mode, where call-template compiles to a plain function call).
	cyclicCallees := staticCallCycles(sheet)

	// Instrumented, optimistic copy of the stylesheet. Its instructions
	// mirror the original's apply-templates order, so trace ids align.
	optimistic := optimisticSheet(sheet)
	if len(cyclicCallees) > 0 {
		dropCyclicCalls(optimistic, cyclicCallees)
	}
	// Number both copies: the rewriter reads trace ids from the original's
	// instructions, the sample run reports the optimistic copy's.
	table := traceTable(sheet)
	if n := len(traceTable(optimistic)); n != len(table) {
		return nil, fmt.Errorf("pe: internal: trace tables diverge (%d vs %d)", len(table), n)
	}

	res := &Result{
		Schema:             schema,
		Sample:             sample,
		Sheet:              sheet,
		TraceTable:         table,
		CallLists:          map[int][]CallEntry{},
		Instantiated:       map[*xslt.Template]bool{},
		RecursiveTemplates: map[*xslt.Template]bool{},
	}

	// Map optimistic templates back to originals by index.
	tmplOf := func(opt *xslt.Template) *xslt.Template {
		if opt == nil {
			return nil
		}
		return sheet.Templates[opt.Index]
	}

	// The graph: node ids are template indexes; -1 is the built-in pseudo
	// node. Edges from TraceTable owners to activated templates.
	edges := map[int]map[int]bool{}
	addEdge := func(from, to int) {
		if edges[from] == nil {
			edges[from] = map[int]bool{}
		}
		edges[from][to] = true
	}

	seen := map[string]bool{} // dedupe (traceID, name/kind, template index)
	eng := xslt.New(optimistic)
	eng.Trace = func(ev xslt.TraceEvent) {
		orig := tmplOf(ev.Template)
		entry := CallEntry{Node: ev.Node, Kind: ev.Node.Kind, Template: orig}
		if ev.Node.Kind == xmltree.ElementNode {
			entry.Name = ev.Node.Name
			entry.Decl = schema.Lookup(ev.Node.Name)
			entry.Info = xschema.ReadSampleInfo(ev.Node)
		}
		if orig != nil {
			res.Instantiated[orig] = true
		}

		// Graph edge: owner of the apply instruction → activated template.
		from := -1
		if ev.TraceID >= 0 {
			if owner := table[ev.TraceID].Owner; owner != nil {
				from = owner.Index
			}
		}
		to := -1
		if orig != nil {
			to = orig.Index
		}
		addEdge(from, to)

		key := fmt.Sprintf("%d|%v|%s|%d", ev.TraceID, ev.Node.Kind, entry.Name, to)
		if seen[key] {
			return
		}
		seen[key] = true
		if ev.TraceID < 0 {
			res.RootEntries = append(res.RootEntries, entry)
			return
		}
		res.CallLists[ev.TraceID] = append(res.CallLists[ev.TraceID], entry)
	}

	eng.MaxDepth = 256
	eng.Runtime.Optimistic = true // key() lookups assumed to match (§4.3)
	if _, err := eng.Transform(sample); err != nil {
		if errors.Is(err, governor.ErrRecursionLimit) {
			// Dynamic recursion the static checks missed (e.g. a template
			// re-applying to its own context node): the trace gathered so
			// far is still valid; mark the stylesheet recursive.
			res.Recursive = true
			res.RecursionReason = "sample run exceeded recursion bound"
		} else {
			return nil, fmt.Errorf("pe: sample run: %w", err)
		}
	}

	// Static edges for call-template (not traced by apply-templates).
	for _, t := range sheet.Templates {
		for _, callee := range calledTemplates(t.Body) {
			if j := templateIndexByName(sheet, callee); j >= 0 {
				addEdge(t.Index, j)
				res.Instantiated[sheet.Templates[j]] = true
			}
		}
	}

	res.BuiltinOnly = len(res.Instantiated) == 0

	if len(cyclicCallees) > 0 {
		res.Recursive = true
		res.RecursionReason = "call-template cycle through " + strings.Join(sortedKeys(cyclicCallees), ", ")
		for _, t := range sheet.Templates {
			if cyclicCallees[templateKey(t)] {
				res.RecursiveTemplates[t] = true
			}
		}
	}
	if members := cycleMembers(edges); len(members) > 0 {
		res.Recursive = true
		res.RecursionReason = fmt.Sprintf("template execution graph has a cycle (%d template(s))", len(members))
		for idx := range members {
			if idx >= 0 && idx < len(sheet.Templates) {
				res.RecursiveTemplates[sheet.Templates[idx]] = true
			}
		}
	}
	if recs := schema.RecursiveElements(); len(recs) > 0 {
		res.Recursive = true
		res.RecursionReason = "schema is recursive at " + strings.Join(recs, ", ")
	}
	return res, nil
}

// TraceEntry is one row of the trace table (§4.3): an apply-templates
// instruction, numbered by its TraceID.
type TraceEntry struct {
	// SelectSrc is the select expression as written ("" = children).
	SelectSrc string
	Mode      string
	// Owner is the template holding the instruction (nil in a global
	// variable).
	Owner *xslt.Template
}

// traceTable numbers every apply-templates instruction of sheet, setting its
// TraceID, and returns their entries in that order: global variables, then
// each template's params and body; within a body an instruction's with-param
// bodies come before the instruction. A variable's or param's body counts
// only when it has no select; with one, the body never runs.
func traceTable(sheet *xslt.Stylesheet) []TraceEntry {
	var table []TraceEntry
	var owner *xslt.Template
	var seq func([]xslt.Instruction)
	defs := func(vars []*xslt.VarDef) {
		for _, d := range vars {
			if d.Select == nil {
				seq(d.Body)
			}
		}
	}
	seq = func(body []xslt.Instruction) {
		for _, instr := range body {
			switch in := instr.(type) {
			case *xslt.ApplyTemplates:
				defs(in.Params)
				in.TraceID = len(table)
				te := TraceEntry{Mode: in.Mode, Owner: owner}
				if in.Select != nil {
					te.SelectSrc = in.Select.String()
				}
				table = append(table, te)
			case *xslt.CallTemplate:
				defs(in.Params)
			case *xslt.DeclareVar:
				defs([]*xslt.VarDef{in.Def})
			case *xslt.LiteralElement:
				seq(in.Body)
			case *xslt.MakeElement:
				seq(in.Body)
			case *xslt.MakeAttribute:
				seq(in.Body)
			case *xslt.MakeComment:
				seq(in.Body)
			case *xslt.MakePI:
				seq(in.Body)
			case *xslt.ForEach:
				seq(in.Body)
			case *xslt.If:
				seq(in.Body)
			case *xslt.Choose:
				for _, w := range in.Whens {
					seq(w.Body)
				}
				seq(in.Otherwise)
			case *xslt.Copy:
				seq(in.Body)
			case *xslt.Message:
				seq(in.Body)
			}
		}
	}
	defs(sheet.GlobalVars)
	for _, t := range sheet.Templates {
		owner = t
		defs(t.Params)
		seq(t.Body)
	}
	return table
}

func templateIndexByName(sheet *xslt.Stylesheet, name string) int {
	for _, t := range sheet.Templates {
		if t.Name == name {
			return t.Index
		}
	}
	return -1
}

// cycleMembers returns the template indexes on execution-graph cycles.
// The built-in pseudo node (-1) is excluded: a template reached from
// built-in descent can only recur through unbounded structure, which the
// separate schema-recursion check reports.
func cycleMembers(edges map[int]map[int]bool) map[int]bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[int]int{}
	members := map[int]bool{}
	var visit func(n int, stack []int)
	visit = func(n int, stack []int) {
		color[n] = grey
		stack = append(stack, n)
		var targets []int
		for m := range edges[n] {
			if m >= 0 {
				targets = append(targets, m)
			}
		}
		sort.Ints(targets)
		for _, m := range targets {
			switch color[m] {
			case white:
				visit(m, stack)
			case grey:
				for i := len(stack) - 1; i >= 0; i-- {
					members[stack[i]] = true
					if stack[i] == m {
						break
					}
				}
			}
		}
		color[n] = black
	}
	var starts []int
	for n := range edges {
		starts = append(starts, n)
	}
	sort.Ints(starts)
	for _, n := range starts {
		if n >= 0 && color[n] == white {
			visit(n, nil)
		}
	}
	return members
}

// calledTemplates lists call-template targets in an instruction tree.
func calledTemplates(body []xslt.Instruction) []string {
	var out []string
	var walk func([]xslt.Instruction)
	walk = func(instrs []xslt.Instruction) {
		for _, in := range instrs {
			switch x := in.(type) {
			case *xslt.CallTemplate:
				out = append(out, x.Name)
			case *xslt.LiteralElement:
				walk(x.Body)
			case *xslt.MakeElement:
				walk(x.Body)
			case *xslt.MakeAttribute:
				walk(x.Body)
			case *xslt.MakeComment:
				walk(x.Body)
			case *xslt.MakePI:
				walk(x.Body)
			case *xslt.ForEach:
				walk(x.Body)
			case *xslt.If:
				walk(x.Body)
			case *xslt.Choose:
				for _, w := range x.Whens {
					walk(w.Body)
				}
				walk(x.Otherwise)
			case *xslt.Copy:
				walk(x.Body)
			case *xslt.Message:
				walk(x.Body)
			case *xslt.DeclareVar:
				walk(x.Def.Body)
			}
		}
	}
	walk(body)
	return out
}

// EntriesFor returns the call list of the apply-templates instruction.
func (r *Result) EntriesFor(at *xslt.ApplyTemplates) []CallEntry {
	if at.TraceID < 0 {
		return nil
	}
	return r.CallLists[at.TraceID]
}

// Describe renders the PE result for debugging and documentation.
func (r *Result) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "partial evaluation: %d apply-templates sites, %d templates instantiated\n",
		len(r.TraceTable), len(r.Instantiated))
	if r.Recursive {
		fmt.Fprintf(&sb, "recursive: %s\n", r.RecursionReason)
	}
	if r.BuiltinOnly {
		sb.WriteString("builtin-only stylesheet\n")
	}
	var ids []int
	for id := range r.CallLists {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		te := r.TraceTable[id]
		sel := te.SelectSrc
		if sel == "" {
			sel = "child::node()"
		}
		fmt.Fprintf(&sb, "  apply[%d] select=%q:", id, sel)
		for _, e := range r.CallLists[id] {
			name := e.Name
			if e.Kind != xmltree.ElementNode {
				name = e.Kind.String()
			}
			if e.Builtin() {
				fmt.Fprintf(&sb, " %s→builtin", name)
			} else {
				fmt.Fprintf(&sb, " %s→{%s}", name, e.Template.String())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// staticCallCycles finds template names involved in call-template cycles.
func staticCallCycles(sheet *xslt.Stylesheet) map[string]bool {
	// Build name → callee-names edges.
	adj := map[string][]string{}
	for _, t := range sheet.Templates {
		key := templateKey(t)
		adj[key] = nil
		for _, callee := range calledTemplates(t.Body) {
			if j := templateIndexByName(sheet, callee); j >= 0 {
				adj[key] = append(adj[key], templateKey(sheet.Templates[j]))
			}
		}
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	cyclic := map[string]bool{}
	var visit func(n string, stack []string)
	visit = func(n string, stack []string) {
		color[n] = grey
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch color[m] {
			case white:
				visit(m, stack)
			case grey:
				for i := len(stack) - 1; i >= 0; i-- {
					cyclic[stack[i]] = true
					if stack[i] == m {
						break
					}
				}
			}
		}
		color[n] = black
	}
	var names []string
	for n := range adj {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if color[n] == white {
			visit(n, nil)
		}
	}
	return cyclic
}

func templateKey(t *xslt.Template) string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("#%d", t.Index)
}

// dropCyclicCalls removes call-template instructions targeting templates in
// the cyclic set from the (optimistic) stylesheet, in place.
func dropCyclicCalls(sheet *xslt.Stylesheet, cyclic map[string]bool) {
	var filter func(body []xslt.Instruction) []xslt.Instruction
	filter = func(body []xslt.Instruction) []xslt.Instruction {
		var out []xslt.Instruction
		for _, in := range body {
			switch x := in.(type) {
			case *xslt.CallTemplate:
				if cyclic[x.Name] {
					continue
				}
			case *xslt.LiteralElement:
				x.Body = filter(x.Body)
			case *xslt.MakeElement:
				x.Body = filter(x.Body)
			case *xslt.MakeAttribute:
				x.Body = filter(x.Body)
			case *xslt.MakeComment:
				x.Body = filter(x.Body)
			case *xslt.MakePI:
				x.Body = filter(x.Body)
			case *xslt.ForEach:
				x.Body = filter(x.Body)
			case *xslt.If:
				x.Body = filter(x.Body)
			case *xslt.Copy:
				x.Body = filter(x.Body)
			case *xslt.Message:
				x.Body = filter(x.Body)
			case *xslt.Choose:
				for i := range x.Whens {
					x.Whens[i].Body = filter(x.Whens[i].Body)
				}
				x.Otherwise = filter(x.Otherwise)
			case *xslt.DeclareVar:
				x.Def.Body = filter(x.Def.Body)
			}
			out = append(out, in)
		}
		return out
	}
	for _, t := range sheet.Templates {
		t.Body = filter(t.Body)
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
