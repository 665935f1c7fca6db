// Package wm implements the working memory of a database production
// system: typed values, working memory elements (WMEs), a tuple store
// keyed by class and ID under one lock, and transactions that stage RHS
// effects and apply them atomically at commit, as required by the
// dynamic execution approach of Srivastava et al. (ICDE 1990), Section
// 4.2.
package wm

import (
	"fmt"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by working memory attributes.
const (
	KindNil Kind = iota
	KindInt
	KindFloat
	KindString
	KindSymbol
	KindBool
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindSymbol:
		return "symbol"
	case KindBool:
		return "bool"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an immutable scalar stored in a WME attribute. The zero
// Value has KindNil and compares equal only to other nil values.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Sym returns a symbol value. Symbols are interned identifiers in the
// rule language (unquoted atoms); they compare equal only to symbols.
func Sym(v string) Value { return Value{kind: KindSymbol, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	b := int64(0)
	if v {
		b = 1
	}
	return Value{kind: KindBool, i: b}
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is the nil value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsInt returns the integer payload; it is only meaningful for KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the numeric payload as a float64 for KindInt and
// KindFloat values.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload for KindString and KindSymbol.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload; it is only meaningful for KindBool.
func (v Value) AsBool() bool { return v.i != 0 }

// Numeric reports whether the value is an int or float.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports whether two values are equal. Ints and floats compare
// numerically across kinds; all other kinds require an exact kind match.
func (v Value) Equal(o Value) bool {
	if v.Numeric() && o.Numeric() {
		if v.kind == KindInt && o.kind == KindInt {
			return v.i == o.i
		}
		return v.AsFloat() == o.AsFloat()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindString, KindSymbol:
		return v.s == o.s
	case KindBool:
		return v.i == o.i
	}
	return false
}

// Compare orders two values. Numbers order numerically; strings and
// symbols lexically. Values of incomparable kinds order by kind, so
// Compare is a total order usable for sorting. It returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.Numeric() && o.Numeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString, KindSymbol:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	}
	return 0
}

// String renders the value in rule-language syntax: strings are
// quoted, symbols bare, booleans as true/false.
func (v Value) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends the String rendering of the value to b and returns
// the extended buffer.
func (v Value) AppendTo(b []byte) []byte {
	switch v.kind {
	case KindNil:
		return append(b, "nil"...)
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case KindString:
		return strconv.AppendQuote(b, v.s)
	case KindSymbol:
		return append(b, v.s...)
	case KindBool:
		return strconv.AppendBool(b, v.i != 0)
	}
	return append(b, '?')
}
