package hierstore

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// seedPersonnel loads the §4.1 hierarchy: two DEPT roots with EMPs.
func seedPersonnel(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := NewDB(schema.EmpDeptHierarchy())
	s := NewSession(db)
	depts := []struct{ d, n, m string }{
		{"D12", "ACCOUNTING", "SMITH"},
		{"D2", "SALES", "JONES"},
	}
	for _, d := range depts {
		st := s.ISRT(value.FromPairs("D#", d.d, "DNAME", d.n, "MGR", d.m), U("DEPT"))
		if st != OK {
			t.Fatalf("ISRT DEPT %s: %v", d.d, st)
		}
	}
	emps := []struct {
		dept, e, n string
		age, yos   int
	}{
		{"D12", "E3", "ADAMS", 45, 12},
		{"D12", "E1", "BAKER", 28, 3},
		{"D2", "E2", "CLARK", 33, 3},
	}
	for _, e := range emps {
		st := s.ISRT(
			value.FromPairs("E#", e.e, "ENAME", e.n, "AGE", e.age, "YEAR-OF-SERVICE", e.yos),
			Q("DEPT", "D#", EQ, value.Str(e.dept)), U("EMP"))
		if st != OK {
			t.Fatalf("ISRT EMP %s: %v", e.e, st)
		}
	}
	s.Reset()
	return db, s
}

func TestHierarchicSequenceOrder(t *testing.T) {
	db, _ := seedPersonnel(t)
	// Roots ordered by D# ("D12" < "D2" lexically), EMPs by E#.
	dump := db.DumpSequence()
	want := []string{"D12", "E1", "E3", "D2", "E2"}
	pos := -1
	for _, w := range want {
		p := strings.Index(dump, w+",")
		if p < 0 {
			p = strings.Index(dump, w+"}")
		}
		if p <= pos {
			t.Fatalf("sequence order broken around %s:\n%s", w, dump)
		}
		pos = p
	}
}

func TestGUQualified(t *testing.T) {
	_, s := seedPersonnel(t)
	rec, st := s.GU(Q("DEPT", "D#", EQ, value.Str("D2")), U("EMP"))
	if st != OK {
		t.Fatalf("GU: %v", st)
	}
	if rec.MustGet("ENAME").AsString() != "CLARK" {
		t.Errorf("GU found %v", rec)
	}
	// Qualification on the target segment itself.
	rec, st = s.GU(Q("EMP", "AGE", GT, value.Of(40)))
	if st != OK || rec.MustGet("ENAME").AsString() != "ADAMS" {
		t.Errorf("GU target qual: %v %v", st, rec)
	}
	_, st = s.GU(Q("DEPT", "D#", EQ, value.Str("NOPE")), U("EMP"))
	if st != GE {
		t.Errorf("GU miss: %v", st)
	}
}

func TestGUWithoutSSA(t *testing.T) {
	db, s := seedPersonnel(t)
	rec, st := s.GU()
	if st != OK || rec.MustGet("D#").AsString() != "D12" {
		t.Errorf("GU(): %v %v", st, rec)
	}
	empty := NewSession(NewDB(schema.EmpDeptHierarchy()))
	if _, st := empty.GU(); st != GE {
		t.Errorf("GU on empty db: %v", st)
	}
	_ = db
}

func TestGNSweepsDatabase(t *testing.T) {
	_, s := seedPersonnel(t)
	var names []string
	_, st := s.GN(U("EMP"))
	for st == OK {
		rec := lastRec(t, s)
		names = append(names, rec.MustGet("ENAME").AsString())
		_, st = s.GN(U("EMP"))
	}
	if st != GE {
		t.Errorf("final GN status: %v", st)
	}
	if strings.Join(names, ",") != "BAKER,ADAMS,CLARK" {
		t.Errorf("GN order = %v", names)
	}
}

func lastRec(t *testing.T, s *Session) *value.Record {
	t.Helper()
	rec := s.DB().Data(s.Position())
	if rec == nil {
		t.Fatal("no record at position")
	}
	return rec
}

func TestGNUnqualifiedEndsWithGB(t *testing.T) {
	_, s := seedPersonnel(t)
	n := 0
	_, st := s.GN()
	for st == OK {
		n++
		_, st = s.GN()
	}
	if st != GB || n != 5 {
		t.Errorf("GN swept %d segments, final %v", n, st)
	}
}

func TestGNPWithinParent(t *testing.T) {
	_, s := seedPersonnel(t)
	if _, st := s.GU(Q("DEPT", "D#", EQ, value.Str("D12"))); st != OK {
		t.Fatal(st)
	}
	var names []string
	_, st := s.GNP(U("EMP"))
	for st == OK {
		names = append(names, lastRec(t, s).MustGet("ENAME").AsString())
		_, st = s.GNP(U("EMP"))
	}
	if st != GE {
		t.Errorf("final GNP: %v", st)
	}
	// Only D12's employees, in E# order.
	if strings.Join(names, ",") != "BAKER,ADAMS" {
		t.Errorf("GNP names = %v", names)
	}
}

func TestGNPWithoutParentage(t *testing.T) {
	_, s := seedPersonnel(t)
	if _, st := s.GNP(U("EMP")); st != GP {
		t.Errorf("GNP without parentage: %v", st)
	}
}

func TestGNPQualified(t *testing.T) {
	_, s := seedPersonnel(t)
	s.GU(Q("DEPT", "D#", EQ, value.Str("D12")))
	rec, st := s.GNP(Q("EMP", "YEAR-OF-SERVICE", EQ, value.Of(3)))
	if st != OK || rec.MustGet("ENAME").AsString() != "BAKER" {
		t.Errorf("GNP qual: %v %v", st, rec)
	}
	if _, st = s.GNP(Q("EMP", "YEAR-OF-SERVICE", EQ, value.Of(3))); st != GE {
		t.Errorf("no second YOS=3 in D12: %v", st)
	}
}

func TestSSAValidation(t *testing.T) {
	_, s := seedPersonnel(t)
	if _, st := s.GU(U("NOPE")); st != AJ {
		t.Errorf("unknown segment: %v", st)
	}
	if _, st := s.GU(Q("DEPT", "NOPE", EQ, value.Of(1))); st != AJ {
		t.Errorf("unknown field: %v", st)
	}
	if _, st := s.GU(U("EMP"), U("DEPT")); st != AC {
		t.Errorf("out-of-order path: %v", st)
	}
}

func TestCompareOps(t *testing.T) {
	_, s := seedPersonnel(t)
	cases := []struct {
		op   CompareOp
		v    int64
		want string
	}{
		{EQ, 28, "BAKER"},
		{NE, 28, "ADAMS"},
		{GT, 40, "ADAMS"},
		{GE_, 45, "ADAMS"},
		{LT, 30, "BAKER"},
		{LE, 28, "BAKER"},
	}
	for _, tc := range cases {
		rec, st := s.GU(Q("EMP", "AGE", tc.op, value.Of(tc.v)))
		if st != OK || rec.MustGet("ENAME").AsString() != tc.want {
			t.Errorf("AGE %s %d: %v %v", tc.op, tc.v, st, rec)
		}
	}
	// Incomparable qualification matches nothing.
	if _, st := s.GU(Q("EMP", "AGE", EQ, value.Str("x"))); st != GE {
		t.Errorf("incomparable: %v", st)
	}
}

func TestISRTDuplicateTwin(t *testing.T) {
	_, s := seedPersonnel(t)
	st := s.ISRT(value.FromPairs("D#", "D12", "DNAME", "X", "MGR", "Y"), U("DEPT"))
	if st != II {
		t.Errorf("duplicate root: %v", st)
	}
	st = s.ISRT(
		value.FromPairs("E#", "E1", "ENAME", "DUP", "AGE", 1, "YEAR-OF-SERVICE", 1),
		Q("DEPT", "D#", EQ, value.Str("D12")), U("EMP"))
	if st != II {
		t.Errorf("duplicate twin: %v", st)
	}
	// Same E# under a different parent is fine.
	st = s.ISRT(
		value.FromPairs("E#", "E1", "ENAME", "OK", "AGE", 1, "YEAR-OF-SERVICE", 1),
		Q("DEPT", "D#", EQ, value.Str("D2")), U("EMP"))
	if st != OK {
		t.Errorf("twin under other parent: %v", st)
	}
}

func TestISRTErrors(t *testing.T) {
	_, s := seedPersonnel(t)
	if st := s.ISRT(value.NewRecord()); st != AJ {
		t.Errorf("no SSA: %v", st)
	}
	if st := s.ISRT(value.NewRecord(), U("EMP")); st != AC {
		t.Errorf("non-root single SSA: %v", st)
	}
	if st := s.ISRT(value.FromPairs("NOPE", 1), U("DEPT")); st != AJ {
		t.Errorf("unknown field: %v", st)
	}
	if st := s.ISRT(value.FromPairs("D#", 9, "DNAME", "X", "MGR", "Y"), U("DEPT")); st != AJ {
		t.Errorf("kind mismatch: %v", st)
	}
	st := s.ISRT(value.FromPairs("E#", "EX", "ENAME", "X", "AGE", 1, "YEAR-OF-SERVICE", 1),
		Q("DEPT", "D#", EQ, value.Str("NOPE")), U("EMP"))
	if st != GE {
		t.Errorf("parent not found: %v", st)
	}
}

func TestDLETRemovesSubtree(t *testing.T) {
	db, s := seedPersonnel(t)
	if _, st := s.GU(Q("DEPT", "D#", EQ, value.Str("D12"))); st != OK {
		t.Fatal(st)
	}
	if st := s.DLET(); st != OK {
		t.Fatal(st)
	}
	if db.Count("DEPT") != 1 || db.Count("EMP") != 1 {
		t.Errorf("after DLET: DEPT=%d EMP=%d", db.Count("DEPT"), db.Count("EMP"))
	}
	if st := s.DLET(); st != DJ {
		t.Errorf("DLET without position: %v", st)
	}
}

func TestDLETChildSegment(t *testing.T) {
	db, s := seedPersonnel(t)
	s.GU(Q("EMP", "E#", EQ, value.Str("E1")))
	if st := s.DLET(); st != OK {
		t.Fatal(st)
	}
	if db.Count("EMP") != 2 || db.Count("DEPT") != 2 {
		t.Error("child DLET removed too much")
	}
}

func TestREPL(t *testing.T) {
	_, s := seedPersonnel(t)
	s.GU(Q("EMP", "E#", EQ, value.Str("E1")))
	if st := s.REPL(value.FromPairs("AGE", 29)); st != OK {
		t.Fatal(st)
	}
	rec, _ := s.GU(Q("EMP", "E#", EQ, value.Str("E1")))
	if rec.MustGet("AGE").AsInt() != 29 {
		t.Error("REPL lost")
	}
	// Changing the sequence field is DA.
	if st := s.REPL(value.FromPairs("E#", "E9")); st != DA {
		t.Errorf("seq change: %v", st)
	}
	if st := s.REPL(value.FromPairs("NOPE", 1)); st != AJ {
		t.Errorf("unknown field: %v", st)
	}
	if st := s.REPL(value.FromPairs("AGE", "old")); st != AJ {
		t.Errorf("kind mismatch: %v", st)
	}
	s.Reset()
	if st := s.REPL(value.FromPairs("AGE", 1)); st != DJ {
		t.Errorf("REPL without position: %v", st)
	}
}

func TestDataLookups(t *testing.T) {
	db, s := seedPersonnel(t)
	rec, _ := s.GU(Q("EMP", "E#", EQ, value.Str("E1")))
	id := s.Position()
	if db.TypeOf(id) != "EMP" {
		t.Error("TypeOf")
	}
	p := db.ParentOf(id)
	if db.TypeOf(p) != "DEPT" {
		t.Error("ParentOf")
	}
	kids := db.ChildrenOf(p, "EMP")
	if len(kids) != 2 {
		t.Errorf("ChildrenOf = %v", kids)
	}
	if db.Data(9999) != nil || db.TypeOf(9999) != "" || db.ParentOf(9999) != 0 || db.ChildrenOf(9999, "EMP") != nil {
		t.Error("stale lookups")
	}
	// Data returns a copy.
	rec.Set("ENAME", value.Str("MUTATED"))
	if db.Data(id).MustGet("ENAME").AsString() != "BAKER" {
		t.Error("Data should return copies")
	}
	if len(db.Roots()) != 2 {
		t.Error("Roots")
	}
}

// TestCloneIndependence: a clone copies the segment table and every
// child list, so a DLET of a root with its subtree on it, and ISRT,
// REPL and DLET, leave the origin as it was.
func TestCloneIndependence(t *testing.T) {
	t.Run("CascadingDelete", func(t *testing.T) {
		db, _ := seedPersonnel(t)
		before := db.DumpSequence()
		c := db.Clone()
		cs := NewSession(c)
		if _, st := cs.GU(Q("DEPT", "D#", EQ, value.Str("D12"))); st != OK {
			t.Fatalf("GU DEPT D12 on the clone: %v", st)
		}
		d12 := cs.Position()
		subtree := append([]SegID{d12}, c.ChildrenOf(d12, "EMP")...)
		if len(subtree) != 3 {
			t.Fatalf("D12 has %d EMPs on the clone, want 2", len(subtree)-1)
		}
		if st := cs.DLET(); st != OK {
			t.Fatalf("DLET D12 on the clone: %v", st)
		}
		// Then the lone EMP under D2, from a child list the clone has not
		// grown, so a list shared with the origin would show.
		if _, st := cs.GU(Q("EMP", "E#", EQ, value.Str("E2"))); st != OK {
			t.Fatalf("GU EMP E2 on the clone: %v", st)
		}
		subtree = append(subtree, cs.Position())
		if st := cs.DLET(); st != OK {
			t.Fatalf("DLET E2 on the clone: %v", st)
		}
		if db.DumpSequence() != before || len(db.roots) != 2 {
			t.Errorf("clone DLET leaked into the origin:\n%s\nwas\n%s", db.DumpSequence(), before)
		}
		if db.Count("DEPT") != 2 || db.Count("EMP") != 3 {
			t.Errorf("origin holds %d DEPT %d EMP, want 2 and 3", db.Count("DEPT"), db.Count("EMP"))
		}
		if c.Count("DEPT") != 1 || c.Count("EMP") != 0 || len(c.Roots()) != 1 {
			t.Errorf("clone holds %d DEPT %d EMP, want 1 and 0:\n%s", c.Count("DEPT"), c.Count("EMP"), c.DumpSequence())
		}
		for _, id := range subtree {
			if c.Data(id) != nil || db.Data(id) == nil {
				t.Errorf("segment %d: live on the clone %v, on the origin %v; want false and true",
					id, c.Data(id) != nil, db.Data(id) != nil)
			}
		}
		if got := db.ChildrenOf(d12, "EMP"); len(got) != 2 {
			t.Errorf("origin D12 keeps %d EMPs, want 2", len(got))
		}
		if got := db.ChildrenOf(db.Roots()[1], "EMP"); len(got) != 1 || db.Data(got[0]) == nil {
			t.Errorf("origin D2 keeps EMPs %v, want its one live EMP", got)
		}
		checkHierInvariants(t, c)
		checkHierInvariants(t, db)
	})
	t.Run("Mutations", testCloneMutations)
}

func testCloneMutations(t *testing.T) {
	db, _ := seedPersonnel(t)
	before := db.DumpSequence()
	c := db.Clone()
	if c.DumpSequence() != before {
		t.Fatalf("clone differs from its origin:\n%s\nvs\n%s", c.DumpSequence(), before)
	}
	cs := NewSession(c)
	for _, e := range []string{"E0", "E4", "E9"} { // before, between and after the clone's EMP twins
		st := cs.ISRT(value.FromPairs("E#", e, "ENAME", "NEW", "AGE", 30, "YEAR-OF-SERVICE", 1),
			Q("DEPT", "D#", EQ, value.Str("D12")), U("EMP"))
		if st != OK {
			t.Fatalf("ISRT %s on the clone: %v", e, st)
		}
	}
	if st := cs.ISRT(value.FromPairs("D#", "D0", "DNAME", "X", "MGR", "Y"), U("DEPT")); st != OK {
		t.Fatalf("ISRT DEPT on the clone: %v", st)
	}
	cs.GU(Q("EMP", "E#", EQ, value.Str("E1")))
	if st := cs.REPL(value.FromPairs("AGE", 99)); st != OK {
		t.Fatalf("REPL on the clone: %v", st)
	}
	cs.GU(Q("EMP", "E#", EQ, value.Str("E3")))
	if st := cs.DLET(); st != OK {
		t.Fatalf("DLET on the clone: %v", st)
	}
	if db.DumpSequence() != before || len(db.segs) != 5 {
		t.Errorf("clone mutations leaked into the origin:\n%s\nwas\n%s", db.DumpSequence(), before)
	}
	if c.Count("DEPT") != 3 || c.Count("EMP") != 5 || len(c.ChildrenOf(c.Roots()[2], "EMP")) != 1 {
		t.Errorf("clone holds %d DEPT %d EMP, want 3 and 5, D2 keeping its one EMP:\n%s",
			c.Count("DEPT"), c.Count("EMP"), c.DumpSequence())
	}
	checkHierInvariants(t, c)
	checkHierInvariants(t, db)
}

// TestUnassignedIDsAnswerAsStale: the segment table answers an ID it
// never assigned (0, negative, past the last) as it answers a deleted
// one, through every read, Insert's parent check and a PCB positioned
// on it, never with an index panic.
func TestUnassignedIDsAnswerAsStale(t *testing.T) {
	db, s := seedPersonnel(t)
	s.GU(Q("EMP", "E#", EQ, value.Str("E1")))
	stale := s.Position()
	if st := s.DLET(); st != OK {
		t.Fatalf("DLET: %v", st)
	}
	answers := func(id SegID) string {
		visits := 0
		db.EachChild(id, "EMP", func(SegID) bool { visits++; return true })
		at := func() *Session { ps := NewSession(db); ps.position, ps.parentage = id, id; return ps }
		gn := at()
		_, gnSt := gn.GN()
		_, gnpSt := at().GNP()
		return fmt.Sprintf("Data nil %v, Stored nil %v, TypeOf %q, ParentOf %d, ChildrenOf %v, EachChild %d, GN %v at %d, GNP %v, DLET %v, REPL %v",
			db.Data(id) == nil, db.Stored(id) == nil, db.TypeOf(id), db.ParentOf(id), db.ChildrenOf(id, "EMP"), visits,
			gnSt, gn.Position(), gnpSt, at().DLET(), at().REPL(value.FromPairs("AGE", 1)))
	}
	want := answers(stale)
	past := SegID(len(db.segs) + 1)
	for _, id := range []SegID{0, -1, math.MinInt64, past, past + 100, math.MaxInt64} {
		if got := answers(id); got != want {
			t.Errorf("ID %d: %s\nstale ID %d: %s", id, got, stale, want)
		}
		if id == 0 {
			continue // Insert reads parent 0 as "insert a root"
		}
		emp := value.FromPairs("E#", "E7", "ENAME", "N", "AGE", 30, "YEAR-OF-SERVICE", 1)
		if _, st := db.Insert(id, "EMP", emp); st != GE {
			t.Errorf("Insert under ID %d: %v, want GE as under the stale ID", id, st)
		}
	}
	if _, st := db.Insert(stale, "EMP", value.FromPairs("E#", "E7")); st != GE {
		t.Errorf("Insert under the stale ID: %v, want GE", st)
	}
}

func TestStatusString(t *testing.T) {
	if OK.String() != "OK" || GE.String() != "GE" || GB.String() != "GB" {
		t.Error("status strings")
	}
}

func TestNewDBPanicsOnInvalidSchema(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDB(&schema.Hierarchy{Name: "BAD"})
}

func TestSessionAccessors(t *testing.T) {
	db, s := seedPersonnel(t)
	if s.DB() != db {
		t.Error("DB accessor")
	}
	s.GU()
	if s.Status() != OK || s.Position() == 0 {
		t.Error("accessors after GU")
	}
}
