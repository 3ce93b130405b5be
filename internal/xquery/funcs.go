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

var coreFuncs map[string]coreFn

func init() {
	coreFuncs = map[string]coreFn{
		"string": {0, 1, func(env *Env, args []Seq) (Seq, error) {
			v := arg0OrCtx(env, args)
			if len(v) == 0 {
				return Seq{""}, nil
			}
			return Seq{itemToString(v[0])}, nil
		}},
		"data": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			return atomize(args[0]), nil
		}},
		"concat": {2, -1, func(_ *Env, args []Seq) (Seq, error) {
			var sb strings.Builder
			for _, a := range args {
				if len(a) > 0 {
					sb.WriteString(itemToString(a[0]))
				}
			}
			return Seq{sb.String()}, nil
		}},
		"string-join": {1, 2, func(_ *Env, args []Seq) (Seq, error) {
			sep := ""
			if len(args) == 2 && len(args[1]) > 0 {
				sep = itemToString(args[1][0])
			}
			parts := make([]string, len(args[0]))
			for i, it := range args[0] {
				parts[i] = itemToString(it)
			}
			return Seq{strings.Join(parts, sep)}, nil
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
		"not": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			return Seq{!EffectiveBool(args[0])}, nil
		}},
		"boolean": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			return Seq{EffectiveBool(args[0])}, nil
		}},
		"true": {0, 0, func(_ *Env, _ []Seq) (Seq, error) {
			return Seq{true}, nil
		}},
		"false": {0, 0, func(_ *Env, _ []Seq) (Seq, error) {
			return Seq{false}, nil
		}},
		"number": {0, 1, func(env *Env, args []Seq) (Seq, error) {
			v := arg0OrCtx(env, args)
			if len(v) == 0 {
				return Seq{math.NaN()}, nil
			}
			return Seq{itemToNumber(v[0])}, nil
		}},
		"sum": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			total := 0.0
			for _, it := range args[0] {
				total += itemToNumber(it)
			}
			return Seq{total}, nil
		}},
		"avg": {1, 1, func(_ *Env, args []Seq) (Seq, error) {
			if len(args[0]) == 0 {
				return nil, nil
			}
			total := 0.0
			for _, it := range args[0] {
				total += itemToNumber(it)
			}
			return Seq{total / float64(len(args[0]))}, nil
		}},
		"min":     {1, 1, extremum(func(a, b float64) bool { return a < b })},
		"max":     {1, 1, extremum(func(a, b float64) bool { return a > b })},
		"floor":   {1, 1, numeric1(math.Floor)},
		"ceiling": {1, 1, numeric1(math.Ceil)},
		"round":   {1, 1, numeric1(func(f float64) float64 { return math.Floor(f + 0.5) })},
		"abs":     {1, 1, numeric1(math.Abs)},

		"name":          {0, 1, nodeName(func(n *xmltree.Node) string { return n.QName() })},
		"local-name":    {0, 1, nodeName(func(n *xmltree.Node) string { return n.Name })},
		"namespace-uri": {0, 1, nodeName(func(n *xmltree.Node) string { return n.NamespaceURI })},

		"position": {0, 0, func(env *Env, _ []Seq) (Seq, error) {
			return Seq{float64(env.CtxPos)}, nil
		}},
		"last": {0, 0, func(env *Env, _ []Seq) (Seq, error) {
			return Seq{float64(env.CtxSize)}, nil
		}},

		"contains":    {2, 2, str2bool(strings.Contains)},
		"starts-with": {2, 2, str2bool(strings.HasPrefix)},
		"ends-with":   {2, 2, str2bool(strings.HasSuffix)},
		"substring-before": {2, 2, func(_ *Env, args []Seq) (Seq, error) {
			s, sep := seqString(args[0]), seqString(args[1])
			if i := strings.Index(s, sep); i >= 0 {
				return Seq{s[:i]}, nil
			}
			return Seq{""}, nil
		}},
		"substring-after": {2, 2, func(_ *Env, args []Seq) (Seq, error) {
			s, sep := seqString(args[0]), seqString(args[1])
			if i := strings.Index(s, sep); i >= 0 {
				return Seq{s[i+len(sep):]}, nil
			}
			return Seq{""}, nil
		}},
		"substring": {2, 3, func(_ *Env, args []Seq) (Seq, error) {
			runes := []rune(seqString(args[0]))
			start := seqNumber(args[1])
			if math.IsNaN(start) {
				return Seq{""}, nil
			}
			begin := int(math.Floor(start + 0.5))
			end := len(runes) + 1
			if len(args) == 3 {
				l := seqNumber(args[2])
				if math.IsNaN(l) {
					return Seq{""}, nil
				}
				end = begin + int(math.Floor(l+0.5))
			}
			if begin < 1 {
				begin = 1
			}
			if end > len(runes)+1 {
				end = len(runes) + 1
			}
			if begin >= end {
				return Seq{""}, nil
			}
			return Seq{string(runes[begin-1 : end-1])}, nil
		}},
		"string-length": {0, 1, func(env *Env, args []Seq) (Seq, error) {
			return Seq{float64(len([]rune(seqString(arg0OrCtx(env, args)))))}, nil
		}},
		"normalize-space": {0, 1, func(env *Env, args []Seq) (Seq, error) {
			return Seq{strings.Join(strings.Fields(seqString(arg0OrCtx(env, args))), " ")}, nil
		}},
		"upper-case": {1, 1, str1(strings.ToUpper)},
		"lower-case": {1, 1, str1(strings.ToLower)},
		"translate": {3, 3, func(_ *Env, args []Seq) (Seq, error) {
			return Seq{xpath.Translate(seqString(args[0]), seqString(args[1]), seqString(args[2]))}, nil
		}},

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

func numeric1(f func(float64) float64) func(*Env, []Seq) (Seq, error) {
	return func(_ *Env, args []Seq) (Seq, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		return Seq{f(itemToNumber(args[0][0]))}, nil
	}
}

func str1(f func(string) string) func(*Env, []Seq) (Seq, error) {
	return func(_ *Env, args []Seq) (Seq, error) {
		return Seq{f(seqString(args[0]))}, nil
	}
}

func str2bool(f func(a, b string) bool) func(*Env, []Seq) (Seq, error) {
	return func(_ *Env, args []Seq) (Seq, error) {
		return Seq{f(seqString(args[0]), seqString(args[1]))}, nil
	}
}

func nodeName(get func(*xmltree.Node) string) func(*Env, []Seq) (Seq, error) {
	return func(env *Env, args []Seq) (Seq, error) {
		v := arg0OrCtx(env, args)
		if len(v) == 0 {
			return Seq{""}, nil
		}
		n, ok := v[0].(*xmltree.Node)
		if !ok {
			return nil, dynErrf("name functions require a node argument")
		}
		return Seq{get(n)}, nil
	}
}

func seqString(s Seq) string {
	if len(s) == 0 {
		return ""
	}
	return itemToString(s[0])
}

func seqNumber(s Seq) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return itemToNumber(s[0])
}
