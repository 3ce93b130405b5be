package xpath

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/xmltree"
)

// Value is the dynamic result of evaluating an XPath expression: one of
// bool, float64, string or NodeSet (the four XPath 1.0 types).
type Value any

// NodeSet is an ordered set of nodes. Evaluation keeps node-sets in document
// order without duplicates.
type NodeSet []*xmltree.Node

// ToBool converts a value to boolean per the XPath boolean() rules.
func ToBool(v Value) bool {
	switch x := v.(type) {
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	case NodeSet:
		return len(x) > 0
	case nil:
		return false
	}
	return false
}

// ToNumber converts a value to float64 per the XPath number() rules
// (NaN for non-numeric strings and empty node-sets).
func ToNumber(v Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	case string:
		return StringToNumber(x)
	case NodeSet:
		if len(x) == 0 {
			return math.NaN()
		}
		return StringToNumber(x[0].StringValue())
	}
	return math.NaN()
}

// StringToNumber is XPath 1.0's string→number (§4.4): optional whitespace,
// an optional '-', digits with at most one '.' (and at least one digit),
// optional whitespace. Anything else — an exponent, a '+', "Infinity", hex
// — is NaN.
func StringToNumber(s string) float64 {
	i, j := 0, len(s)
	for i < j && isSpace(s[i]) {
		i++
	}
	for j > i && isSpace(s[j-1]) {
		j--
	}
	s = s[i:j]
	k := 0
	if k < len(s) && s[k] == '-' {
		k++
	}
	digits, dot := 0, false
	for ; k < len(s); k++ {
		switch c := s[k]; {
		case isDigit(c):
			digits++
		case c == '.' && !dot:
			dot = true
		default:
			return math.NaN()
		}
	}
	if digits == 0 {
		return math.NaN()
	}
	// The lexical check leaves ParseFloat only a range error, whose ±Inf is
	// the nearest number.
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

// ToString converts a value to string per the XPath string() rules
// (the string value of the first node for node-sets).
func ToString(v Value) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return NumberToString(x)
	case NodeSet:
		if len(x) == 0 {
			return ""
		}
		return x[0].StringValue()
	case nil:
		return ""
	}
	return fmt.Sprint(v)
}

// NumberToString is XPath 1.0's number→string (§4.2): NaN, Infinity and
// -Infinity by name, zero (either sign) as 0, anything else in decimal
// form with as many digits as distinguish it from every other float64 —
// never an exponent.
func NumberToString(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10) // 0-99 without allocating
	}
	var buf [32]byte
	return string(AppendNumber(buf[:0], f))
}

// AppendNumber appends NumberToString(f) to dst.
func AppendNumber(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, "NaN"...)
	case math.IsInf(f, 1):
		return append(dst, "Infinity"...)
	case math.IsInf(f, -1):
		return append(dst, "-Infinity"...)
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.AppendInt(dst, int64(f), 10) // -0 included
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// ToNodeSet converts a value to a node-set, failing for the scalar types
// (XPath 1.0 has no scalar→node-set conversion).
func ToNodeSet(v Value) (NodeSet, error) {
	if ns, ok := v.(NodeSet); ok {
		return ns, nil
	}
	return nil, fmt.Errorf("xpath: cannot convert %T to a node-set", v)
}

// compareValues implements the XPath 1.0 comparison semantics (§3.4),
// including the existential semantics when one or both operands are
// node-sets: a node-set compared with a boolean compares as
// boolean(node-set); otherwise some node's string value must compare true.
func compareValues(op BinaryOp, l, r Value) bool {
	ln, lok := l.(NodeSet)
	rn, rok := r.(NodeSet)
	switch {
	case lok && isBool(r):
		return Compare(op, len(ln) > 0, r)
	case rok && isBool(l):
		return Compare(op, l, len(rn) > 0)
	case lok && rok:
		for _, a := range ln {
			sa := a.StringValue()
			for _, b := range rn {
				if Compare(op, sa, b.StringValue()) {
					return true
				}
			}
		}
		return false
	case lok:
		for _, a := range ln {
			if Compare(op, a.StringValue(), r) {
				return true
			}
		}
		return false
	case rok:
		for _, b := range rn {
			if Compare(op, l, b.StringValue()) {
				return true
			}
		}
		return false
	}
	return Compare(op, l, r)
}

// Compare compares two scalars (bool, float64 or string) under op, a
// comparison operator, with XPath 1.0's conversions (§3.4): = and != compare
// as booleans when either is a boolean, else as numbers when either is a
// number, else as strings; the relational operators compare numbers.
func Compare(op BinaryOp, l, r Value) bool {
	switch op {
	case OpEq, OpNeq:
		var eq bool
		switch {
		case isBool(l) || isBool(r):
			eq = ToBool(l) == ToBool(r)
		case isNumber(l) || isNumber(r):
			eq = ToNumber(l) == ToNumber(r)
		default:
			eq = ToString(l) == ToString(r)
		}
		return eq == (op == OpEq)
	case OpLt:
		return ToNumber(l) < ToNumber(r)
	case OpLe:
		return ToNumber(l) <= ToNumber(r)
	case OpGt:
		return ToNumber(l) > ToNumber(r)
	case OpGe:
		return ToNumber(l) >= ToNumber(r)
	}
	return false
}

func isBool(v Value) bool   { _, ok := v.(bool); return ok }
func isNumber(v Value) bool { _, ok := v.(float64); return ok }
