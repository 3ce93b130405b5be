package xquery

import (
	"math"
	"strings"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// evalCoreFunc dispatches the built-in function library. Names may carry the
// conventional "fn:" prefix.
func evalCoreFunc(c *FuncCall, env *Env) (Seq, error) {
	name := strings.TrimPrefix(c.Name, "fn:")
	fn, ok := coreFuncs[name]
	if !ok {
		return nil, dynErrf("unknown function %s()", c.Name)
	}
	if fn.minArgs > len(c.Args) || (fn.maxArgs >= 0 && len(c.Args) > fn.maxArgs) {
		return nil, dynErrf("wrong number of arguments to %s(): got %d", c.Name, len(c.Args))
	}
	args := make([]Seq, len(c.Args))
	for i, a := range c.Args {
		v, err := Eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn.impl(env, args)
}

// xpathFuncs are XPath 1.0's core functions that XQuery calls in
// internal/xpath (callXPath): all of them but count() and sum(), which
// XQuery defines over any sequence, and XSLT's current(), which the
// rewriter binds.
var xpathFuncs = []string{
	"last", "position", "local-name", "name", "namespace-uri",
	"string", "concat", "starts-with", "contains", "substring-before",
	"substring-after", "substring", "string-length", "normalize-space", "translate",
	"boolean", "not", "true", "false",
	"number", "floor", "ceiling", "round",
}

// xpathCall is the scratch a call into XPath's core library fills: its
// context, its argument values and their nodes. A root environment makes
// one and its children share it: one goroutine evaluates an environment
// tree, the arguments are evaluated before the scratch is filled, and no
// core function calls back into the evaluator or returns a node-set, so
// nothing reads a call's scratch once it returns.
type xpathCall struct {
	ctx   xpath.Context
	vals  []xpath.Value
	nodes xpath.NodeSet
}

// callXPath calls one of XPath 1.0's core functions on evaluated XQuery
// arguments, each converted by conv (toXPath, or effectiveBool for
// boolean() and not()). A function whose argument defaults to the context
// is passed a non-node context item as that argument.
func callXPath(f *xpath.CoreFunc, conv func(*xpathCall, Seq) xpath.Value, env *Env, args []Seq) (Seq, error) {
	xc := env.xp
	xc.vals, xc.nodes = xc.vals[:0], xc.nodes[:0]
	for _, a := range args {
		xc.vals = append(xc.vals, conv(xc, a))
	}
	xc.ctx = xpath.Context{Position: env.CtxPos, Size: env.CtxSize}
	if n, ok := env.Ctx.(*xmltree.Node); ok {
		xc.ctx.Node = n
	} else if len(args) == 0 && f.Min == 0 && f.Max != 0 {
		xc.vals = append(xc.vals, conv(xc, arg0OrCtx(env, nil)))
	}
	v, err := f.Call(&xc.ctx, xc.vals)
	if err != nil {
		return nil, dynErrf("%v", err)
	}
	return Seq{v}, nil
}

// toXPath converts a sequence to an XPath 1.0 value: a sequence of nodes,
// the empty sequence included, is a node-set, and any other sequence is
// its first item.
func toXPath(xc *xpathCall, s Seq) xpath.Value {
	if len(s) > 0 {
		if _, ok := s[0].(*xmltree.Node); !ok {
			return s[0]
		}
	}
	from := len(xc.nodes)
	for _, it := range s {
		n, ok := it.(*xmltree.Node)
		if !ok {
			xc.nodes = xc.nodes[:from+1]
			break
		}
		xc.nodes = append(xc.nodes, n)
	}
	return xc.nodes[from:len(xc.nodes):len(xc.nodes)]
}

// effectiveBool converts a sequence to its effective boolean value, as if
// and predicates decide it (EffectiveBool): boolean((0, 1)) is true.
func effectiveBool(_ *xpathCall, s Seq) xpath.Value { return EffectiveBool(s) }

type coreFn struct {
	minArgs, maxArgs int
	impl             func(env *Env, args []Seq) (Seq, error)
}

// arg0OrCtx returns args[0] when present, else the context item singleton.
func arg0OrCtx(env *Env, args []Seq) Seq {
	if len(args) > 0 {
		return args[0]
	}
	if env.Ctx == nil {
		return nil
	}
	return Seq{env.Ctx}
}

// coreFuncs are the functions XQuery adds to XPath 1.0's core library,
// count() and sum(), which XQuery defines over any sequence, and the
// xpathFuncs, each calling internal/xpath's.
var coreFuncs map[string]coreFn

func init() {
	coreFuncs = map[string]coreFn{
		"data": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			return atomize(args[0]), nil
		}},
		"string-join": {1, 2, func(_ *Env, args []Seq) (Seq, error) {
			sep := ""
			if len(args) == 2 {
				sep = seqString(args[1])
			}
			return Seq{joinStrings(args[0], sep)}, nil
		}},
		"count": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			return Seq{float64(len(args[0]))}, nil
		}},
		"empty": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			return Seq{len(args[0]) == 0}, nil
		}},
		"exists": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			return Seq{len(args[0]) > 0}, nil
		}},
		"sum": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			return Seq{sum(args[0])}, nil
		}},
		"avg": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			if len(args[0]) == 0 {
				return nil, nil
			}
			return Seq{sum(args[0]) / float64(len(args[0]))}, nil
		}},
		"min": {1, 1, extremum(func(a, b float64) bool { return a < b })},
		"max": {1, 1, extremum(func(a, b float64) bool { return a > b })},
		"abs": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			if len(args[0]) == 0 {
				return nil, nil
			}
			return Seq{math.Abs(itemToNumber(args[0][0]))}, nil
		}},

		"ends-with": {2, 2, func(_ *Env, args []Seq) (Seq, error) {
			return Seq{strings.HasSuffix(seqString(args[0]), seqString(args[1]))}, nil
		}},
		"upper-case": {1, 1, str1(strings.ToUpper)},
		"lower-case": {1, 1, str1(strings.ToLower)},

		"distinct-values": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			seen := map[string]bool{}
			var out Seq
			for _, it := range atomize(args[0]) {
				k := itemToString(it)
				if !seen[k] {
					seen[k] = true
					out = append(out, it)
				}
			}
			return out, nil
		}},
		"reverse": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			in := args[0]
			out := make(Seq, len(in))
			for i, it := range in {
				out[len(in)-1-i] = it
			}
			return out, nil
		}},
		"subsequence": {2, 3, func(_ *Env, args []Seq) (Seq, error) {
			in := args[0]
			start := int(math.Floor(seqNumber(args[1]) + 0.5))
			length := len(in)
			if len(args) == 3 {
				length = int(math.Floor(seqNumber(args[2]) + 0.5))
			}
			var out Seq
			for i := 0; i < len(in); i++ {
				pos := i + 1
				if pos >= start && pos < start+length {
					out = append(out, in[i])
				}
			}
			return out, nil
		}},
		"root": {0, 1, func(env *Env, args []Seq) (Seq, error) {
			v := arg0OrCtx(env, args)
			if len(v) == 0 {
				return nil, nil
			}
			n, ok := v[0].(*xmltree.Node)
			if !ok {
				return nil, dynErrf("root() requires a node")
			}
			return Seq{n.Root()}, nil
		}},
	}
	for _, name := range xpathFuncs {
		f, conv := xpath.LookupCore(name), toXPath
		if name == "boolean" || name == "not" {
			conv = effectiveBool
		}
		coreFuncs[name] = coreFn{f.Min, f.Max, func(env *Env, args []Seq) (Seq, error) {
			return callXPath(f, conv, env, args)
		}}
	}
}

// sum adds the items' numbers (itemToNumber).
func sum(s Seq) float64 {
	total := 0.0
	for _, it := range s {
		total += itemToNumber(it)
	}
	return total
}

func extremum(better func(a, b float64) bool) func(*Env, []Seq) (Seq, error) {
	return func(_ *Env, args []Seq) (Seq, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		best := itemToNumber(args[0][0])
		for _, it := range args[0][1:] {
			if v := itemToNumber(it); better(v, best) {
				best = v
			}
		}
		return Seq{best}, nil
	}
}

func str1(f func(string) string) func(*Env, []Seq) (Seq, error) {
	return func(_ *Env, args []Seq) (Seq, error) {
		return Seq{f(seqString(args[0]))}, nil
	}
}

// seqString is XPath's string() of a sequence (see callXPath).
func seqString(s Seq) string {
	if len(s) == 0 {
		return ""
	}
	return itemToString(s[0])
}

// seqNumber is XPath's number() of a sequence (see callXPath).
func seqNumber(s Seq) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return itemToNumber(s[0])
}
