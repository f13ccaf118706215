package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "NULL", String: "STRING", Int: "INT", Float: "FLOAT", Bool: "BOOL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"string", String}, {"CHAR", String}, {"int", Int}, {"INTEGER", Int},
		{"FLOAT", Float}, {"real", Float}, {"DECIMAL", Float}, {"bool", Bool}, {"BOOLEAN", Bool},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != Null {
		t.Errorf("zero Value should be null, got kind %v", v.Kind())
	}
	if v.String() != "<null>" {
		t.Errorf("null String() = %q", v.String())
	}
}

func TestAccessors(t *testing.T) {
	if Str("x").AsString() != "x" {
		t.Error("AsString")
	}
	if Of(7).AsInt() != 7 {
		t.Error("AsInt on Int")
	}
	if F(2.5).AsInt() != 2 {
		t.Error("AsInt truncates Float")
	}
	if B(true).AsInt() != 1 || B(false).AsInt() != 0 {
		t.Error("AsInt on Bool")
	}
	if Of(7).AsFloat() != 7.0 {
		t.Error("AsFloat on Int")
	}
	if F(2.5).AsFloat() != 2.5 {
		t.Error("AsFloat on Float")
	}
	if !B(true).AsBool() || B(false).AsBool() || Of(1).AsBool() {
		t.Error("AsBool")
	}
}

func TestStringRendering(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Str("hi"), "hi"}, {Of(-4), "-4"}, {F(1.5), "1.5"},
		{B(true), "TRUE"}, {B(false), "FALSE"}, {NullValue(), "<null>"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestLiteral(t *testing.T) {
	if got := Str("o'hara").Literal(); got != "'o''hara'" {
		t.Errorf("string literal = %q", got)
	}
	if got := Of(3).Literal(); got != "3" {
		t.Errorf("int literal = %q", got)
	}
}

func TestCompareNumericCross(t *testing.T) {
	c, ok := Of(3).Compare(F(3.0))
	if !ok || c != 0 {
		t.Errorf("Int(3) vs Float(3.0): %d, %v", c, ok)
	}
	c, ok = Of(3).Compare(F(3.5))
	if !ok || c != -1 {
		t.Errorf("Int(3) vs Float(3.5): %d, %v", c, ok)
	}
	c, ok = F(4.5).Compare(Of(4))
	if !ok || c != 1 {
		t.Errorf("Float(4.5) vs Int(4): %d, %v", c, ok)
	}
}

func TestCompareNullOrdering(t *testing.T) {
	if c, ok := NullValue().Compare(NullValue()); !ok || c != 0 {
		t.Error("null vs null should be equal")
	}
	if c, ok := NullValue().Compare(Of(0)); !ok || c != -1 {
		t.Error("null should sort below values")
	}
	if c, ok := Of(0).Compare(NullValue()); !ok || c != 1 {
		t.Error("values should sort above null")
	}
}

func TestCompareIncomparable(t *testing.T) {
	if _, ok := Str("a").Compare(Of(1)); ok {
		t.Error("string vs int should be incomparable")
	}
	if _, ok := B(true).Compare(Str("TRUE")); ok {
		t.Error("bool vs string should be incomparable")
	}
}

func TestCompareBool(t *testing.T) {
	if c, _ := B(false).Compare(B(true)); c != -1 {
		t.Error("false < true")
	}
	if c, _ := B(true).Compare(B(true)); c != 0 {
		t.Error("true == true")
	}
	if c, _ := B(true).Compare(B(false)); c != 1 {
		t.Error("true > false")
	}
}

func TestKeyRespectsEqual(t *testing.T) {
	if Of(3).Key() != F(3.0).Key() {
		t.Error("Int(3) and Float(3.0) must share a key")
	}
	if Of(3).Key() == F(3.5).Key() {
		t.Error("distinct numerics must not share a key")
	}
	if Str("3").Key() == Of(3).Key() {
		t.Error("string '3' must not collide with int 3")
	}
	if NullValue().Key() == Str("").Key() {
		t.Error("null must not collide with empty string")
	}
}

// TestAppendKeyMatchesKey: AppendKey appends exactly the bytes Key
// returns, and both spell each kind as Key always has; null and the
// booleans still cost no allocation.
func TestAppendKeyMatchesKey(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{NullValue(), "\x00"},
		{B(true), "bT"},
		{B(false), "bF"},
		{Str(""), "s"},
		{Str("ADAMS"), "sADAMS"},
		{Str("\x1f"), "s\x1f"},
		{Of(0), "n0"},
		{Of(-12), "n-12"},
		{Of(math.MaxInt64), "n9223372036854775807"},
		{F(3), "n3"},
		{F(-1e18), "n-1000000000000000000"},
		{F(2.5), "f2.5"},
		{F(-0.125), "f-0.125"},
		{F(math.Copysign(0, -1)), "n0"},
		{F(math.Inf(1)), "f+Inf"},
		{F(math.Inf(-1)), "f-Inf"},
		{F(math.NaN()), "fNaN"},
	} {
		if got := tc.v.Key(); got != tc.want {
			t.Errorf("%v.Key() = %q, want %q", tc.v, got, tc.want)
		}
		if got := string(tc.v.AppendKey(nil)); got != tc.v.Key() {
			t.Errorf("%v: AppendKey(nil) = %q, Key() = %q", tc.v, got, tc.v.Key())
		}
		if got := string(tc.v.AppendKey([]byte("pre"))); got != "pre"+tc.want {
			t.Errorf("%v: AppendKey(\"pre\") = %q, want %q", tc.v, got, "pre"+tc.want)
		}
	}
	for _, v := range []Value{NullValue(), B(true), B(false)} {
		if n := testing.AllocsPerRun(100, func() { _ = v.Key() }); n != 0 {
			t.Errorf("%v.Key() allocated %.0f times, want 0", v, n)
		}
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		lit  string
		want Value
	}{
		{String, "abc", Str("abc")},
		{Int, " 42 ", Of(42)},
		{Float, "2.5", F(2.5)},
		{Bool, "true", B(true)},
		{Bool, "F", B(false)},
		{Null, "whatever", NullValue()},
	} {
		got, err := Parse(tc.kind, tc.lit)
		if err != nil || !got.Equal(tc.want) {
			t.Errorf("Parse(%v, %q) = %v, %v; want %v", tc.kind, tc.lit, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		kind Kind
		lit  string
	}{{Int, "x"}, {Float, "y"}, {Bool, "maybe"}} {
		if _, err := Parse(tc.kind, tc.lit); err == nil {
			t.Errorf("Parse(%v, %q) should fail", tc.kind, tc.lit)
		}
	}
}

// Property: Compare is antisymmetric and Equal agrees with Compare==0
// across randomly generated int/float pairs.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Of(a), Of(b)
		c1, ok1 := va.Compare(vb)
		c2, ok2 := vb.Compare(va)
		if !ok1 || !ok2 || c1 != -c2 {
			return false
		}
		return (c1 == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key() agrees with Equal on random numeric values.
func TestKeyEqualConsistencyProperty(t *testing.T) {
	f := func(a int64, b float64) bool {
		va, vb := Of(a), F(b)
		return va.Equal(vb) == (va.Key() == vb.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: string values round-trip through Parse.
func TestStringParseRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		v, err := Parse(String, s)
		return err == nil && v.AsString() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
