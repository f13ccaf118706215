// Package value provides the typed scalar values and records shared by
// every data-model engine in progconv.
//
// The 1979 data models the paper reasons about (relational, CODASYL
// network, hierarchical) all bottom out in flat records of scalar fields.
// This package is that common substrate: a Value is a tagged scalar
// (string, integer, float, boolean, or null), and a Record is an ordered
// collection of named fields. Nulls are first-class because the paper's
// integrity discussion (§3.1) hinges on them: "CNO and S can not have
// null values", and the owner-coupled-set workaround of creating a
// "null instructor".
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds. Null is the zero Kind so that the zero Value is null,
// matching the models' treatment of an unset field.
const (
	Null Kind = iota
	String
	Int
	Float
	Bool
)

// String returns the DDL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case String:
		return "STRING"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Bool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind parses a DDL type name. It accepts the spellings used by the
// Figure 4.3 schema language ("PIC X(n)" is handled by the DDL parser and
// arrives here as STRING).
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(s) {
	case "STRING", "CHAR", "PIC":
		return String, nil
	case "INT", "INTEGER":
		return Int, nil
	case "FLOAT", "REAL", "DECIMAL":
		return Float, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	}
	return Null, fmt.Errorf("value: unknown type %q", s)
}

// Value is an immutable tagged scalar. The zero Value is null.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

// Str returns a string Value.
func Str(s string) Value { return Value{kind: String, s: s} }

// Of returns an int Value.
func Of(i int64) Value { return Value{kind: Int, i: i} }

// F returns a float Value.
func F(f float64) Value { return Value{kind: Float, f: f} }

// B returns a boolean Value.
func B(b bool) Value { return Value{kind: Bool, b: b} }

// NullValue returns the null Value.
func NullValue() Value { return Value{} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == Null }

// AsString returns the string payload; it is only meaningful for String values.
func (v Value) AsString() string { return v.s }

// AsInt returns the integer payload, converting Float and Bool values.
func (v Value) AsInt() int64 {
	switch v.kind {
	case Int:
		return v.i
	case Float:
		return int64(v.f)
	case Bool:
		if v.b {
			return 1
		}
		return 0
	}
	return 0
}

// AsFloat returns the numeric payload as a float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case Float:
		return v.f
	case Int:
		return float64(v.i)
	}
	return 0
}

// AsBool returns the boolean payload; non-Bool values report false.
func (v Value) AsBool() bool { return v.kind == Bool && v.b }

// String renders the value for terminal output and reports. It is the
// canonical external form: what a converted program PRINTs must match what
// the original printed, so this rendering is part of the equivalence
// contract.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "<null>"
	case String:
		return v.s
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Bool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	}
	return "<invalid>"
}

// Literal renders the value as a source-language literal (strings quoted).
func (v Value) Literal() string {
	var buf [32]byte
	return string(v.AppendLiteral(buf[:0]))
}

// AppendLiteral appends the value's source-language literal to dst: a
// string quoted with embedded quotes doubled, anything else as String
// renders it. It is the one literal renderer; the Program Generator
// calls it without building a string per literal.
func (v Value) AppendLiteral(dst []byte) []byte {
	switch v.kind {
	case String:
		dst = append(dst, '\'')
		s := v.s
		for {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				break
			}
			dst = append(dst, s[:i+1]...)
			dst = append(dst, '\'')
			s = s[i+1:]
		}
		dst = append(dst, s...)
		return append(dst, '\'')
	case Int:
		return strconv.AppendInt(dst, v.i, 10)
	case Float:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	}
	return append(dst, v.String()...)
}

// Equal reports whether two values are equal. Numeric values compare
// across Int/Float. Null equals only null (the engines, not this package,
// decide whether null comparisons are errors).
func (v Value) Equal(w Value) bool {
	c, ok := v.Compare(w)
	return ok && c == 0
}

// Compare orders two values: -1, 0, +1. The second result reports whether
// the pair is comparable (same kind, or both numeric). Null compares equal
// to null and less than everything else, which gives set orderings a
// stable, total order.
func (v Value) Compare(w Value) (int, bool) {
	if v.kind == Null || w.kind == Null {
		switch {
		case v.kind == Null && w.kind == Null:
			return 0, true
		case v.kind == Null:
			return -1, true
		default:
			return 1, true
		}
	}
	if (v.kind == Int || v.kind == Float) && (w.kind == Int || w.kind == Float) {
		if v.kind == Int && w.kind == Int {
			switch {
			case v.i < w.i:
				return -1, true
			case v.i > w.i:
				return 1, true
			}
			return 0, true
		}
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		}
		return 0, true
	}
	if v.kind != w.kind {
		return 0, false
	}
	switch v.kind {
	case String:
		return strings.Compare(v.s, w.s), true
	case Bool:
		switch {
		case v.b == w.b:
			return 0, true
		case !v.b:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// Order is Compare made total, the per-field rule of CompareBy and of
// SORT: values incomparable with each other (a string and an int) order
// by their String forms, so sorting stays deterministic.
func (v Value) Order(w Value) int {
	if c, ok := v.Compare(w); ok {
		return c
	}
	return strings.Compare(v.String(), w.String())
}

// Key returns a representation usable as a Go map key that respects Equal:
// equal values produce equal keys. Numeric values are normalized to the
// float form only when they carry a fractional part, so Int(3) and
// Float(3.0) collide as Equal demands.
func (v Value) Key() string {
	switch v.kind {
	case Null:
		return "\x00"
	case String:
		return "s" + v.s
	case Bool:
		if v.b {
			return "bT"
		}
		return "bF"
	}
	var buf [32]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends exactly the bytes Key returns to dst, so composite
// keys can be built in one buffer without a string per value.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case Null:
		return append(dst, 0)
	case String:
		dst = append(dst, 's')
		return append(dst, v.s...)
	case Int:
		return strconv.AppendInt(append(dst, 'n'), v.i, 10)
	case Float:
		if v.f == float64(int64(v.f)) {
			return strconv.AppendInt(append(dst, 'n'), int64(v.f), 10)
		}
		return strconv.AppendFloat(append(dst, 'f'), v.f, 'g', -1, 64)
	case Bool:
		if v.b {
			return append(dst, "bT"...)
		}
		return append(dst, "bF"...)
	}
	return append(dst, '?')
}

// Parse converts a source literal into a Value of the given kind.
func Parse(kind Kind, lit string) (Value, error) {
	switch kind {
	case String:
		return Str(lit), nil
	case Int:
		i, err := strconv.ParseInt(strings.TrimSpace(lit), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad INT literal %q", lit)
		}
		return Of(i), nil
	case Float:
		f, err := strconv.ParseFloat(strings.TrimSpace(lit), 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad FLOAT literal %q", lit)
		}
		return F(f), nil
	case Bool:
		switch strings.ToUpper(strings.TrimSpace(lit)) {
		case "TRUE", "T", "1":
			return B(true), nil
		case "FALSE", "F", "0":
			return B(false), nil
		}
		return Value{}, fmt.Errorf("value: bad BOOL literal %q", lit)
	case Null:
		return Value{}, nil
	}
	return Value{}, fmt.Errorf("value: cannot parse into kind %v", kind)
}
