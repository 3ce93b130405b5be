package xpath

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/xmltree"
)

// evalFunc dispatches a function call: the XPath 1.0 core library first,
// then any extension resolver installed on the context. Function names may
// carry an "fn:" prefix (the XQuery spelling) which resolves to the same
// core library.
func evalFunc(e *FuncExpr, ctx *Context) (Value, error) {
	name := strings.TrimPrefix(e.Name, "fn:")
	if f, ok := coreFunctions[name]; ok {
		args := make([]Value, len(e.Args))
		for i, a := range e.Args {
			v, err := Eval(a, ctx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return f(ctx, e, args)
	}
	if ctx.Funcs != nil {
		if f, ok := ctx.Funcs(e.Name); ok {
			args := make([]Value, len(e.Args))
			for i, a := range e.Args {
				v, err := Eval(a, ctx)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return f(ctx, args)
		}
	}
	return nil, fmt.Errorf("xpath: unknown function %s()", e.Name)
}

type coreFunc func(ctx *Context, call *FuncExpr, args []Value) (Value, error)

func argc(call *FuncExpr, min, max int) error {
	n := len(call.Args)
	if n < min || (max >= 0 && n > max) {
		return fmt.Errorf("xpath: wrong number of arguments to %s(): got %d", call.Name, n)
	}
	return nil
}

// contextNodeSet returns the implicit node-set argument: the context node.
func contextNodeSet(ctx *Context) NodeSet { return NodeSet{ctx.Node} }

var coreFunctions map[string]coreFunc

func init() {
	coreFunctions = map[string]coreFunc{
		// Node-set functions.
		"last": func(ctx *Context, call *FuncExpr, _ []Value) (Value, error) {
			if err := argc(call, 0, 0); err != nil {
				return nil, err
			}
			return float64(ctx.Size), nil
		},
		"position": func(ctx *Context, call *FuncExpr, _ []Value) (Value, error) {
			if err := argc(call, 0, 0); err != nil {
				return nil, err
			}
			return float64(ctx.Position), nil
		},
		"count": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 1, 1); err != nil {
				return nil, err
			}
			ns, err := ToNodeSet(args[0])
			if err != nil {
				return nil, err
			}
			return float64(len(ns)), nil
		},
		"local-name": nameFunc(func(n *xmltree.Node) string { return n.Name }),
		"name":       nameFunc(func(n *xmltree.Node) string { return n.QName() }),
		"namespace-uri": nameFunc(func(n *xmltree.Node) string {
			return n.NamespaceURI
		}),
		"current": func(ctx *Context, call *FuncExpr, _ []Value) (Value, error) {
			if err := argc(call, 0, 0); err != nil {
				return nil, err
			}
			if ctx.Current != nil {
				return NodeSet{ctx.Current}, nil
			}
			return NodeSet{ctx.Node}, nil
		},

		// String functions.
		"string": func(ctx *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 0, 1); err != nil {
				return nil, err
			}
			if len(args) == 0 {
				return ctx.Node.StringValue(), nil
			}
			return ToString(args[0]), nil
		},
		"concat": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 2, -1); err != nil {
				return nil, err
			}
			var sb strings.Builder
			for _, a := range args {
				sb.WriteString(ToString(a))
			}
			return sb.String(), nil
		},
		"starts-with": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 2, 2); err != nil {
				return nil, err
			}
			return strings.HasPrefix(ToString(args[0]), ToString(args[1])), nil
		},
		"contains": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 2, 2); err != nil {
				return nil, err
			}
			return strings.Contains(ToString(args[0]), ToString(args[1])), nil
		},
		"substring-before": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 2, 2); err != nil {
				return nil, err
			}
			s, sep := ToString(args[0]), ToString(args[1])
			if i := strings.Index(s, sep); i >= 0 {
				return s[:i], nil
			}
			return "", nil
		},
		"substring-after": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 2, 2); err != nil {
				return nil, err
			}
			s, sep := ToString(args[0]), ToString(args[1])
			if i := strings.Index(s, sep); i >= 0 {
				return s[i+len(sep):], nil
			}
			return "", nil
		},
		"substring": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 2, 3); err != nil {
				return nil, err
			}
			return substring(ToString(args[0]), ToNumber(args[1]), args[2:]), nil
		},
		"string-length": func(ctx *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 0, 1); err != nil {
				return nil, err
			}
			s := ""
			if len(args) == 0 {
				s = ctx.Node.StringValue()
			} else {
				s = ToString(args[0])
			}
			return float64(len([]rune(s))), nil
		},
		"normalize-space": func(ctx *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 0, 1); err != nil {
				return nil, err
			}
			s := ""
			if len(args) == 0 {
				s = ctx.Node.StringValue()
			} else {
				s = ToString(args[0])
			}
			return strings.Join(strings.Fields(s), " "), nil
		},
		"translate": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 3, 3); err != nil {
				return nil, err
			}
			return Translate(ToString(args[0]), ToString(args[1]), ToString(args[2])), nil
		},

		// Boolean functions.
		"boolean": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 1, 1); err != nil {
				return nil, err
			}
			return ToBool(args[0]), nil
		},
		"not": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 1, 1); err != nil {
				return nil, err
			}
			return !ToBool(args[0]), nil
		},
		"true": func(_ *Context, call *FuncExpr, _ []Value) (Value, error) {
			if err := argc(call, 0, 0); err != nil {
				return nil, err
			}
			return true, nil
		},
		"false": func(_ *Context, call *FuncExpr, _ []Value) (Value, error) {
			if err := argc(call, 0, 0); err != nil {
				return nil, err
			}
			return false, nil
		},

		// Number functions.
		"number": func(ctx *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 0, 1); err != nil {
				return nil, err
			}
			if len(args) == 0 {
				return ToNumber(NodeSet{ctx.Node}), nil
			}
			return ToNumber(args[0]), nil
		},
		"sum": func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
			if err := argc(call, 1, 1); err != nil {
				return nil, err
			}
			ns, err := ToNodeSet(args[0])
			if err != nil {
				return nil, err
			}
			total := 0.0
			for _, n := range ns {
				total += stringToNumber(n.StringValue())
			}
			return total, nil
		},
		"floor":   numFunc(math.Floor),
		"ceiling": numFunc(math.Ceil),
		"round": numFunc(func(f float64) float64 {
			// XPath round: round half towards positive infinity.
			return math.Floor(f + 0.5)
		}),
	}
}

func nameFunc(get func(*xmltree.Node) string) coreFunc {
	return func(ctx *Context, call *FuncExpr, args []Value) (Value, error) {
		if err := argc(call, 0, 1); err != nil {
			return nil, err
		}
		ns := contextNodeSet(ctx)
		if len(args) == 1 {
			var err error
			ns, err = ToNodeSet(args[0])
			if err != nil {
				return nil, err
			}
		}
		if len(ns) == 0 {
			return "", nil
		}
		return get(ns[0]), nil
	}
}

func numFunc(f func(float64) float64) coreFunc {
	return func(_ *Context, call *FuncExpr, args []Value) (Value, error) {
		if err := argc(call, 1, 1); err != nil {
			return nil, err
		}
		return f(ToNumber(args[0])), nil
	}
}

// substring implements the XPath substring() rounding rules over runes.
func substring(s string, start float64, rest []Value) string {
	runes := []rune(s)
	if math.IsNaN(start) {
		return ""
	}
	begin := int(math.Floor(start + 0.5)) // round()
	end := len(runes) + 1
	if len(rest) == 1 {
		length := ToNumber(rest[0])
		if math.IsNaN(length) {
			return ""
		}
		end = begin + int(math.Floor(length+0.5))
	}
	if begin < 1 {
		begin = 1
	}
	if end > len(runes)+1 {
		end = len(runes) + 1
	}
	if begin >= end {
		return ""
	}
	return string(runes[begin-1 : end-1])
}

// Translate implements XPath translate(): map characters of from to the
// corresponding characters of to, deleting those with no correspondent.
// XQuery's fn:translate has the same semantics and calls it directly.
func Translate(s, from, to string) string {
	fromR := []rune(from)
	toR := []rune(to)
	m := make(map[rune]rune, len(fromR))
	del := make(map[rune]bool)
	for i, r := range fromR {
		if _, seen := m[r]; seen || del[r] {
			continue // first occurrence wins
		}
		if i < len(toR) {
			m[r] = toR[i]
		} else {
			del[r] = true
		}
	}
	var sb strings.Builder
	for _, r := range s {
		if del[r] {
			continue
		}
		if repl, ok := m[r]; ok {
			sb.WriteRune(repl)
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}
