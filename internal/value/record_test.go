package value

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestRecordSetGet(t *testing.T) {
	r := NewRecord()
	r.Set("A", Of(1))
	r.Set("B", Str("x"))
	if v, ok := r.Get("A"); !ok || v.AsInt() != 1 {
		t.Error("Get A")
	}
	if !r.Has("B") || r.Has("C") {
		t.Error("Has")
	}
	if r.MustGet("C").Kind() != Null {
		t.Error("MustGet missing field should be null")
	}
	r.Set("A", Of(2))
	if r.Len() != 2 {
		t.Errorf("overwrite should not grow record, len=%d", r.Len())
	}
	if r.MustGet("A").AsInt() != 2 {
		t.Error("overwrite lost")
	}
}

func TestFromPairs(t *testing.T) {
	r := FromPairs("N", "bob", "AGE", 31, "W", 2.5, "OK", true, "X", Of(9), "Z", nil)
	if r.MustGet("N").AsString() != "bob" || r.MustGet("AGE").AsInt() != 31 ||
		r.MustGet("W").AsFloat() != 2.5 || !r.MustGet("OK").AsBool() ||
		r.MustGet("X").AsInt() != 9 || !r.MustGet("Z").IsNull() {
		t.Errorf("FromPairs built %v", r)
	}
}

func TestFromPairsPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("odd args", func() { FromPairs("A") })
	assertPanics("non-string name", func() { FromPairs(1, 2) })
	assertPanics("bad value type", func() { FromPairs("A", []int{1}) })
}

func TestRecordDelete(t *testing.T) {
	r := FromPairs("A", 1, "B", 2, "C", 3)
	r.Delete("B")
	if r.Len() != 2 || r.Has("B") {
		t.Error("Delete B")
	}
	got := r.Names()
	if len(got) != 2 || got[0] != "A" || got[1] != "C" {
		t.Errorf("order after delete = %v", got)
	}
	r.Delete("ZZZ") // no-op
	if r.Len() != 2 {
		t.Error("deleting absent field changed record")
	}
}

func TestRecordRename(t *testing.T) {
	for _, tc := range []struct {
		rec      *Record
		from, to string
		want     *Record // also pins the declared order, through String
	}{
		{FromPairs("A", 1, "B", 2), "A", "AA", FromPairs("AA", 1, "B", 2)},
		{FromPairs("A", 1, "B", 2), "NOPE", "X", FromPairs("A", 1, "B", 2)},
		{FromPairs("A", 1, "B", 2), "A", "A", FromPairs("A", 1, "B", 2)},
		// Onto an existing name: exactly one field of that name remains,
		// at the renamed field's position, holding its value.
		{FromPairs("A", 1, "B", 2), "A", "B", FromPairs("B", 1)},
		{FromPairs("A", 1, "B", 2, "C", 3), "C", "A", FromPairs("B", 2, "A", 3)},
	} {
		name := fmt.Sprintf("%v.Rename(%s,%s)", tc.rec, tc.from, tc.to)
		tc.rec.Rename(tc.from, tc.to)
		if got, want := tc.rec.String(), tc.want.String(); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
		if tc.rec.Len() != tc.want.Len() || len(tc.rec.Names()) != tc.want.Len() {
			t.Errorf("%s: Len %d, Names %v, want %d fields", name, tc.rec.Len(), tc.rec.Names(), tc.want.Len())
		}
		if !tc.rec.Equal(tc.want) || !tc.want.Equal(tc.rec) {
			t.Errorf("%s: not Equal to %s", name, tc.want)
		}
	}
}

func TestRecordCloneIsDeep(t *testing.T) {
	r := FromPairs("A", 1)
	c := r.Clone()
	c.Set("A", Of(99))
	c.Set("B", Of(2))
	if r.MustGet("A").AsInt() != 1 || r.Has("B") {
		t.Error("Clone shares state with original")
	}
}

func TestRecordProject(t *testing.T) {
	r := FromPairs("A", 1, "B", 2, "C", 3)
	p := r.Project([]string{"C", "A", "MISSING"})
	if p.Len() != 3 {
		t.Fatalf("project len = %d", p.Len())
	}
	if p.Names()[0] != "C" || p.Names()[1] != "A" {
		t.Errorf("projection order = %v", p.Names())
	}
	if !p.MustGet("MISSING").IsNull() {
		t.Error("missing field should project to null")
	}
}

func TestRecordEqual(t *testing.T) {
	a := FromPairs("A", 1, "B", "x")
	b := FromPairs("B", "x", "A", 1) // different order, same content
	if !a.Equal(b) {
		t.Error("order must not matter for Equal")
	}
	c := FromPairs("A", 1, "B", "y")
	if a.Equal(c) {
		t.Error("different values should differ")
	}
	d := FromPairs("A", 1)
	if a.Equal(d) || d.Equal(a) {
		t.Error("different widths should differ")
	}
}

func TestKeyOfComposite(t *testing.T) {
	for _, pair := range [][2]*Record{
		{FromPairs("X", "ab", "Y", "c"), FromPairs("X", "a", "Y", "bc")},
		// A separator between the fields' Key forms, unescaped, let a
		// string holding it shift the boundary.
		{FromPairs("X", "p\x1fsq", "Y", "r"), FromPairs("X", "p", "Y", "q\x1fsr")},
	} {
		if pair[0].KeyOf([]string{"X", "Y"}) == pair[1].KeyOf([]string{"X", "Y"}) {
			t.Errorf("%v and %v share a composite key", pair[0], pair[1])
		}
	}
	a := FromPairs("X", "ab", "Y", "c")
	if a.KeyOf([]string{"X"}) != FromPairs("X", "ab").KeyOf([]string{"X"}) {
		t.Error("same field values should give same key")
	}
}

// TestKeyOfAllocs: KeyOf allocates each field's Key form and the key
// it returns, and nothing else; writing the forms into a builder cost
// up to two more.
func TestKeyOfAllocs(t *testing.T) {
	for _, tc := range []struct {
		r     *Record
		names []string
		want  float64
	}{
		{FromPairs("EMP-NAME", "ADAMS", "AGE", 45), []string{"EMP-NAME", "AGE"}, 3},
		{FromPairs("K", 1234567, "A", "x", "B", true), []string{"K", "A", "B"}, 4},
	} {
		if n := testing.AllocsPerRun(100, func() { _ = tc.r.KeyOf(tc.names) }); n > tc.want {
			t.Errorf("KeyOf(%v) of %v allocated %.0f times, want at most %.0f", tc.names, tc.r, n, tc.want)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := FromPairs("A", 1, "B", "x")
	if got := r.String(); got != "{A=1, B=x}" {
		t.Errorf("String() = %q", got)
	}
}

func TestCompareByAndSort(t *testing.T) {
	recs := []*Record{
		FromPairs("N", "carol", "AGE", 40),
		FromPairs("N", "alice", "AGE", 30),
		FromPairs("N", "bob", "AGE", 30),
	}
	SortRecords(recs, []string{"AGE", "N"})
	if recs[0].MustGet("N").AsString() != "alice" ||
		recs[1].MustGet("N").AsString() != "bob" ||
		recs[2].MustGet("N").AsString() != "carol" {
		t.Errorf("sorted order wrong: %v %v %v", recs[0], recs[1], recs[2])
	}
}

func TestSortIsStable(t *testing.T) {
	recs := []*Record{
		FromPairs("K", 1, "TAG", "first"),
		FromPairs("K", 1, "TAG", "second"),
		FromPairs("K", 0, "TAG", "zero"),
	}
	SortRecords(recs, []string{"K"})
	if recs[1].MustGet("TAG").AsString() != "first" || recs[2].MustGet("TAG").AsString() != "second" {
		t.Error("equal keys must preserve insertion order")
	}
}

func TestCompareByIncomparableFallsBackToString(t *testing.T) {
	a := FromPairs("X", "10")
	b := FromPairs("X", 9)
	// string "10" vs int 9: incomparable, falls back to String form ("10" < "9")
	if c := CompareBy(a, b, []string{"X"}); c != -1 {
		t.Errorf("fallback compare = %d", c)
	}
}

// Property: Project preserves values for present fields.
func TestProjectPreservesValuesProperty(t *testing.T) {
	f := func(a, b int64) bool {
		r := FromPairs("A", a, "B", b)
		p := r.Project([]string{"B"})
		return p.Len() == 1 && p.MustGet("B").AsInt() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clone().Equal(original) always holds.
func TestCloneEqualProperty(t *testing.T) {
	f := func(s string, n int64) bool {
		r := FromPairs("S", s, "N", n)
		return r.Clone().Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A warmed record refills and reads without allocating: Reset keeps its
// capacity, and lookups scan the names in place.
func TestRecordRefillAllocs(t *testing.T) {
	src := FromPairs("EMP-NAME", "ADAMS", "DEPT-NAME", "SALES", "AGE", 45, "DIV-NAME", "MACHINERY")
	r := src.Clone()
	if n := testing.AllocsPerRun(100, func() {
		r.Reset()
		for i, n := range src.Names() {
			r.Set(n, src.vals[i])
		}
		r.CopyFrom(src)
		r.Rename("AGE", "YEARS")
		r.Delete("YEARS")
		_ = r.MustGet("DIV-NAME").Order(src.MustGet("DEPT-NAME"))
		_ = r.Has("AGE") || r.Equal(src) || CompareBy(r, src, []string{"EMP-NAME", "AGE"}) == 0
	}); n != 0 {
		t.Errorf("refilling a warmed record allocated %v per run, want 0", n)
	}
}
