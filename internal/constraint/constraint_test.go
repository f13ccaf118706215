package constraint

import (
	"strings"
	"testing"

	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/relstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// fakeInstance lets rule tests state populations directly.
type fakeInstance map[string][]*value.Record

func (f fakeInstance) Entities(name string) []*value.Record { return f[name] }

func TestExistenceViolations(t *testing.T) {
	inst := fakeInstance{
		"COURSE": {value.FromPairs("CNO", "CS101")},
		"COURSE-OFFERING": {
			value.FromPairs("CNO", "CS101", "S", "F78"), // fine
			value.FromPairs("CNO", "GHOST", "S", "F78"), // missing course
			value.FromPairs("CNO", nil, "S", "F78"),     // null reference
		},
	}
	c := Existence{Label: "x", Child: "COURSE-OFFERING", ChildFields: []string{"CNO"},
		Parent: "COURSE", ParentFields: []string{"CNO"}}
	vs := c.Check(inst)
	if len(vs) != 2 {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].String(), "cannot be null") && !strings.Contains(vs[1].String(), "cannot be null") {
		t.Errorf("null violation missing: %v", vs)
	}
	if c.Name() != "x" {
		t.Error("Name")
	}
}

func TestUniqueViolations(t *testing.T) {
	inst := fakeInstance{
		"R": {
			value.FromPairs("A", 1, "B", "x"),
			value.FromPairs("A", 1, "B", "y"),
			value.FromPairs("A", 2, "B", "x"),
		},
	}
	c := Unique{Label: "u", Entity: "R", Fields: []string{"A"}}
	if vs := c.Check(inst); len(vs) != 1 {
		t.Errorf("violations = %v", vs)
	}
	c2 := Unique{Label: "u2", Entity: "R", Fields: []string{"A", "B"}}
	if vs := c2.Check(inst); len(vs) != 0 {
		t.Errorf("composite unique: %v", vs)
	}
	if c.Name() != "u" {
		t.Error("Name")
	}
}

func TestCardinalityDirect(t *testing.T) {
	inst := fakeInstance{
		"R": {
			value.FromPairs("G", "a"),
			value.FromPairs("G", "a"),
			value.FromPairs("G", "a"),
			value.FromPairs("G", "b"),
		},
	}
	c := Cardinality{Label: "c", Entity: "R", GroupBy: []Term{{Field: "G"}}, Max: 2}
	vs := c.Check(inst)
	if len(vs) != 1 || !strings.Contains(vs[0].Message, "has 3 records, limit 2") {
		t.Errorf("violations = %v", vs)
	}
	if vs[0].Record != nil {
		t.Error("group violations carry no single record")
	}
	if c.Name() != "c" {
		t.Error("Name")
	}
}

// TestCardinalityCompositeGroupsApart: a composite group key keeps its
// terms apart whatever bytes their strings hold. With the terms' Key
// forms joined by a separator, (A="p\x1fsq", B="r") and (A="p",
// B="q\x1fsr") fell into one group and broke a limit of one.
func TestCardinalityCompositeGroupsApart(t *testing.T) {
	inst := fakeInstance{"R": {
		value.FromPairs("A", "p\x1fsq", "B", "r"),
		value.FromPairs("A", "p", "B", "q\x1fsr"),
	}}
	c := Cardinality{Label: "c", Entity: "R", GroupBy: []Term{{Field: "A"}, {Field: "B"}}, Max: 1}
	if vs := c.Check(inst); len(vs) != 0 {
		t.Errorf("distinct composite groups reported as one: %v", vs)
	}
}

// TestCardinalityViolationOrder: violated groups are reported in the
// order their first records appear, on every run.
func TestCardinalityViolationOrder(t *testing.T) {
	var recs []*value.Record
	var want []string
	for _, g := range []string{"e", "b", "d", "a", "c"} {
		want = append(want, "R group ("+g+") has 2 records, limit 1")
		recs = append(recs, value.FromPairs("G", g))
	}
	recs = append(recs, recs...) // every group twice, first appearances in the order above
	c := Cardinality{Label: "c", Entity: "R", GroupBy: []Term{{Field: "G"}}, Max: 1}
	for run := 0; run < 20; run++ {
		var got []string
		for _, v := range c.Check(fakeInstance{"R": recs}) {
			got = append(got, v.Message)
		}
		if strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Fatalf("run %d: violations %q, want %q", run, got, want)
		}
	}
}

// TestSchoolRuleTwicePerYear reproduces the paper's §3.1 example: "a
// course may not be offered more than twice in a school year" — a rule
// that needs a lookup through SEMESTER for the YEAR.
func TestSchoolRuleTwicePerYear(t *testing.T) {
	db := relstore.NewDB(schema.SchoolRelational())
	db.Insert("COURSE", value.FromPairs("CNO", "CS101", "CNAME", "Intro"))
	for _, s := range []struct {
		sem  string
		year int
	}{{"F78", 1978}, {"W78", 1978}, {"S78", 1978}, {"F79", 1979}} {
		db.Insert("SEMESTER", value.FromPairs("S", s.sem, "YEAR", s.year))
	}
	// Three offerings of CS101 in 1978: violates; one in 1979: fine.
	for _, sem := range []string{"F78", "W78", "S78", "F79"} {
		db.Insert("COURSE-OFFERING", value.FromPairs("CNO", "CS101", "S", sem, "INSTRUCTOR", "T"))
	}
	vs := CheckAll(SchoolRules(), FromRelational(db))
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Constraint != "at-most-twice-per-year" ||
		!strings.Contains(vs[0].Message, "(CS101,1978) has 3") {
		t.Errorf("violation = %v", vs[0])
	}
}

func TestSchoolRulesCleanDatabase(t *testing.T) {
	db := relstore.NewDB(schema.SchoolRelational())
	db.Insert("COURSE", value.FromPairs("CNO", "CS101", "CNAME", "Intro"))
	db.Insert("SEMESTER", value.FromPairs("S", "F78", "YEAR", 1978))
	db.Insert("COURSE-OFFERING", value.FromPairs("CNO", "CS101", "S", "F78", "INSTRUCTOR", "T"))
	if vs := CheckAll(SchoolRules(), FromRelational(db)); len(vs) != 0 {
		t.Errorf("clean database has violations: %v", vs)
	}
}

func TestSchoolRulesCatchDanglingOffering(t *testing.T) {
	// FKs off (the 1979 default): the engine admits the dangling tuple,
	// the centralized rules catch it.
	db := relstore.NewDB(schema.SchoolRelational())
	db.Insert("COURSE-OFFERING", value.FromPairs("CNO", "GHOST", "S", "NOWHERE", "INSTRUCTOR", "X"))
	vs := CheckAll(SchoolRules(), FromRelational(db))
	if len(vs) != 2 {
		t.Errorf("want course+semester existence violations, got %v", vs)
	}
}

func TestNetworkInstanceAdapter(t *testing.T) {
	db := netstore.NewDB(schema.CompanyV1())
	s := netstore.NewSession(db)
	s.Store("DIV", value.FromPairs("DIV-NAME", "M", "DIV-LOC", "D"))
	s.Store("EMP", value.FromPairs("EMP-NAME", "A", "DEPT-NAME", "S", "AGE", 1))
	inst := FromNetwork(db)
	emps := inst.Entities("EMP")
	if len(emps) != 1 {
		t.Fatalf("emps = %v", emps)
	}
	// Virtuals resolved: constraints can be stated over DIV-NAME.
	if emps[0].MustGet("DIV-NAME").AsString() != "M" {
		t.Error("virtual not resolved in adapter")
	}
	if len(inst.Entities("NOPE")) != 0 {
		t.Error("unknown entity should be empty")
	}
}

func TestHierarchyInstanceAdapter(t *testing.T) {
	db := hierstore.NewDB(schema.EmpDeptHierarchy())
	s := hierstore.NewSession(db)
	s.ISRT(value.FromPairs("D#", "D1", "DNAME", "X", "MGR", "M"), hierstore.U("DEPT"))
	s.ISRT(value.FromPairs("E#", "E1", "ENAME", "A", "AGE", 1, "YEAR-OF-SERVICE", 1),
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D1")), hierstore.U("EMP"))
	inst := FromHierarchy(db)
	if len(inst.Entities("DEPT")) != 1 || len(inst.Entities("EMP")) != 1 {
		t.Error("hierarchy adapter counts")
	}
	if len(inst.Entities("NOPE")) != 0 {
		t.Error("unknown segment")
	}
}

func TestRelationalAdapterUnknown(t *testing.T) {
	db := relstore.NewDB(schema.SchoolRelational())
	if FromRelational(db).Entities("NOPE") != nil {
		t.Error("unknown relation should be nil")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Constraint: "c", Message: "m", Record: value.FromPairs("A", 1)}
	if got := v.String(); got != "c: m: {A=1}" {
		t.Errorf("with record: %q", got)
	}
	v2 := Violation{Constraint: "c", Message: "m"}
	if got := v2.String(); got != "c: m" {
		t.Errorf("without record: %q", got)
	}
}

func TestCheckAllConcatenates(t *testing.T) {
	inst := fakeInstance{"R": {
		value.FromPairs("A", 1),
		value.FromPairs("A", 1),
	}}
	rules := []Constraint{
		Unique{Label: "u", Entity: "R", Fields: []string{"A"}},
		Cardinality{Label: "c", Entity: "R", GroupBy: []Term{{Field: "A"}}, Max: 1},
	}
	if vs := CheckAll(rules, inst); len(vs) != 2 {
		t.Errorf("violations = %v", vs)
	}
}
