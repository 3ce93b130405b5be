package xpath

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"repro/internal/xmltree"
)

// evalFunc dispatches a function call: the XPath 1.0 core library first,
// then any extension resolver installed on the context. Function names may
// carry an "fn:" prefix (the XQuery spelling) which resolves to the same
// core library.
func evalFunc(e *FuncExpr, ctx *Context) (Value, error) {
	f := coreFunctions[strings.TrimPrefix(e.Name, "fn:")]
	var ext Function
	if f == nil {
		ok := false
		if ctx.Funcs != nil {
			ext, ok = ctx.Funcs(e.Name)
		}
		if !ok {
			return nil, fmt.Errorf("xpath: unknown function %s()", e.Name)
		}
	}
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := Eval(a, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	if f != nil {
		return f.Call(ctx, args)
	}
	return ext(ctx, args)
}

// CoreFunc is a function of the XPath 1.0 core library (§4): its arity
// (Max < 0: any number from Min up) and its body over evaluated arguments.
// The XQuery evaluator calls the functions XQuery shares with XPath 1.0
// through it.
type CoreFunc struct {
	Name     string
	Min, Max int
	body     func(ctx *Context, args []Value) (Value, error)
}

// Call calls f on evaluated arguments in ctx, after checking their number.
// A function whose argument defaults to the context node reads ctx.Node
// only when it is called without one.
func (f *CoreFunc) Call(ctx *Context, args []Value) (Value, error) {
	if len(args) < f.Min || f.Max >= 0 && len(args) > f.Max {
		return nil, fmt.Errorf("xpath: wrong number of arguments to %s(): got %d", f.Name, len(args))
	}
	return f.body(ctx, args)
}

// LookupCore returns the core library function called name, or nil.
func LookupCore(name string) *CoreFunc { return coreFunctions[name] }

var coreFunctions = indexCore(
	// Node-set functions.
	&CoreFunc{"last", 0, 0, func(ctx *Context, _ []Value) (Value, error) {
		return float64(ctx.Size), nil
	}},
	&CoreFunc{"position", 0, 0, func(ctx *Context, _ []Value) (Value, error) {
		return float64(ctx.Position), nil
	}},
	&CoreFunc{"count", 1, 1, func(_ *Context, args []Value) (Value, error) {
		ns, err := ToNodeSet(args[0])
		return float64(len(ns)), err
	}},
	nameFunc("local-name", func(n *xmltree.Node) string { return n.Name }),
	nameFunc("name", func(n *xmltree.Node) string { return n.QName() }),
	nameFunc("namespace-uri", func(n *xmltree.Node) string { return n.NamespaceURI }),
	&CoreFunc{"current", 0, 0, func(ctx *Context, _ []Value) (Value, error) {
		if ctx.Current != nil {
			return NodeSet{ctx.Current}, nil
		}
		return NodeSet{ctx.Node}, nil
	}},

	// String functions.
	&CoreFunc{"string", 0, 1, func(ctx *Context, args []Value) (Value, error) {
		return stringArg(ctx, args), nil
	}},
	&CoreFunc{"concat", 2, -1, func(_ *Context, args []Value) (Value, error) {
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(ToString(a))
		}
		return sb.String(), nil
	}},
	&CoreFunc{"starts-with", 2, 2, func(_ *Context, args []Value) (Value, error) {
		return strings.HasPrefix(ToString(args[0]), ToString(args[1])), nil
	}},
	&CoreFunc{"contains", 2, 2, func(_ *Context, args []Value) (Value, error) {
		return strings.Contains(ToString(args[0]), ToString(args[1])), nil
	}},
	&CoreFunc{"substring-before", 2, 2, func(_ *Context, args []Value) (Value, error) {
		s, sep := ToString(args[0]), ToString(args[1])
		if i := strings.Index(s, sep); i >= 0 {
			return s[:i], nil
		}
		return "", nil
	}},
	&CoreFunc{"substring-after", 2, 2, func(_ *Context, args []Value) (Value, error) {
		s, sep := ToString(args[0]), ToString(args[1])
		if i := strings.Index(s, sep); i >= 0 {
			return s[i+len(sep):], nil
		}
		return "", nil
	}},
	&CoreFunc{"substring", 2, 3, func(_ *Context, args []Value) (Value, error) {
		return substring(ToString(args[0]), ToNumber(args[1]), args[2:]), nil
	}},
	&CoreFunc{"string-length", 0, 1, func(ctx *Context, args []Value) (Value, error) {
		return float64(utf8.RuneCountInString(stringArg(ctx, args))), nil
	}},
	&CoreFunc{"normalize-space", 0, 1, func(ctx *Context, args []Value) (Value, error) {
		return strings.Join(strings.Fields(stringArg(ctx, args)), " "), nil
	}},
	&CoreFunc{"translate", 3, 3, func(_ *Context, args []Value) (Value, error) {
		return Translate(ToString(args[0]), ToString(args[1]), ToString(args[2])), nil
	}},

	// Boolean functions.
	&CoreFunc{"boolean", 1, 1, func(_ *Context, args []Value) (Value, error) {
		return ToBool(args[0]), nil
	}},
	&CoreFunc{"not", 1, 1, func(_ *Context, args []Value) (Value, error) {
		return !ToBool(args[0]), nil
	}},
	&CoreFunc{"true", 0, 0, func(*Context, []Value) (Value, error) { return true, nil }},
	&CoreFunc{"false", 0, 0, func(*Context, []Value) (Value, error) { return false, nil }},

	// Number functions.
	&CoreFunc{"number", 0, 1, func(ctx *Context, args []Value) (Value, error) {
		if len(args) == 0 {
			return StringToNumber(ctx.Node.StringValue()), nil
		}
		return ToNumber(args[0]), nil
	}},
	&CoreFunc{"sum", 1, 1, func(_ *Context, args []Value) (Value, error) {
		ns, err := ToNodeSet(args[0])
		total := 0.0
		for _, n := range ns {
			total += StringToNumber(n.StringValue())
		}
		return total, err
	}},
	numFunc("floor", math.Floor),
	numFunc("ceiling", math.Ceil),
	// XPath round: round half towards positive infinity.
	numFunc("round", func(f float64) float64 { return math.Floor(f + 0.5) }),
)

func indexCore(fs ...*CoreFunc) map[string]*CoreFunc {
	m := make(map[string]*CoreFunc, len(fs))
	for _, f := range fs {
		m[f.Name] = f
	}
	return m
}

// stringArg is the string of a function's optional argument, which
// defaults to the context node.
func stringArg(ctx *Context, args []Value) string {
	if len(args) == 0 {
		return ctx.Node.StringValue()
	}
	return ToString(args[0])
}

func nameFunc(name string, get func(*xmltree.Node) string) *CoreFunc {
	return &CoreFunc{name, 0, 1, func(ctx *Context, args []Value) (Value, error) {
		n := ctx.Node
		if len(args) == 1 {
			ns, err := ToNodeSet(args[0])
			if err != nil || len(ns) == 0 {
				return "", err
			}
			n = ns[0]
		}
		return get(n), nil
	}}
}

func numFunc(name string, f func(float64) float64) *CoreFunc {
	return &CoreFunc{name, 1, 1, func(_ *Context, args []Value) (Value, error) {
		return f(ToNumber(args[0])), nil
	}}
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
