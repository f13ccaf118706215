package emulate

import (
	"context"
	"strings"
	"testing"

	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/xform"
)

func figurePlan() *xform.Plan {
	return &xform.Plan{Steps: []xform.Transformation{
		xform.IntroduceIntermediate{
			Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
			Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		},
	}}
}

func v1DB(t *testing.T) *netstore.DB {
	t.Helper()
	db := netstore.NewDB(schema.CompanyV1())
	s := netstore.NewSession(db)
	for _, d := range []struct{ n, l string }{{"MACHINERY", "DETROIT"}, {"TEXTILES", "ATLANTA"}} {
		s.Store("DIV", value.FromPairs("DIV-NAME", d.n, "DIV-LOC", d.l))
	}
	for _, e := range []struct {
		div, name, dept string
		age             int
	}{
		{"MACHINERY", "ADAMS", "SALES", 45},
		{"MACHINERY", "BAKER", "SALES", 28},
		{"MACHINERY", "CLARK", "WELDING", 33},
		{"TEXTILES", "DAVIS", "SALES", 51},
	} {
		s.FindAny("DIV", value.FromPairs("DIV-NAME", e.div))
		s.Store("EMP", value.FromPairs("EMP-NAME", e.name, "DEPT-NAME", e.dept, "AGE", e.age))
	}
	return db
}

func migrated(t *testing.T) *netstore.DB {
	t.Helper()
	out, _, err := figurePlan().Migrate(context.Background(), v1DB(t), xform.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sweepNames runs the classic source-schema sweep through a session-like
// interface, collecting EMP-NAMEs.
func sweepEmulated(t *testing.T, s *Session, match *value.Record) []string {
	t.Helper()
	var names []string
	st, err := s.FindInSet("DIV-EMP", netstore.First, match)
	for err == nil && st == netstore.OK {
		rec, gst, gerr := s.Get("EMP")
		if gerr != nil || gst != netstore.OK {
			t.Fatalf("get: %v %v", gst, gerr)
		}
		names = append(names, rec.MustGet("EMP-NAME").AsString())
		st, err = s.FindInSet("DIV-EMP", netstore.Next, match)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st != netstore.EndOfSet {
		t.Fatalf("final status %v", st)
	}
	return names
}

// TestEmulatedSweepSameRecords: the emulated source sweep over the
// restructured database returns the same records a native sweep returned
// on the source database (grouped order: the emulator presents the new
// physical order, which the §2.1.2 strategy cannot hide without its own
// sort — we compare sets).
func TestEmulatedSweepSameRecords(t *testing.T) {
	src := v1DB(t)
	native := netstore.NewSession(src)
	native.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	var want []string
	st, _ := native.FindInSet("DIV-EMP", netstore.First, nil)
	for st == netstore.OK {
		rec, _, _ := native.Get("EMP")
		want = append(want, rec.MustGet("EMP-NAME").AsString())
		st, _ = native.FindInSet("DIV-EMP", netstore.Next, nil)
	}

	em, err := NewSession(schema.CompanyV1(), migrated(t), figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := em.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY")); err != nil || st != netstore.OK {
		t.Fatalf("%v %v", st, err)
	}
	got := sweepEmulated(t, em, nil)
	if len(got) != len(want) {
		t.Fatalf("emulated %v, native %v", got, want)
	}
	set := map[string]bool{}
	for _, n := range want {
		set[n] = true
	}
	for _, n := range got {
		if !set[n] {
			t.Errorf("unexpected record %s", n)
		}
	}
}

func TestEmulatedSweepWithMatch(t *testing.T) {
	em, err := NewSession(schema.CompanyV1(), migrated(t), figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	em.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	// Match on the lifted field still works: the member presents it
	// virtually in the restructured database.
	got := sweepEmulated(t, em, value.FromPairs("DEPT-NAME", "SALES"))
	if strings.Join(got, ",") != "ADAMS,BAKER" {
		t.Errorf("matched sweep = %v", got)
	}
}

func TestEmulatedGetPresentsSourceShape(t *testing.T) {
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameRecord{Old: "EMP", New: "WORKER"},
		xform.RenameField{Record: "WORKER", Old: "AGE", New: "YEARS"},
	}}
	target, _, err := plan.Migrate(context.Background(), v1DB(t), xform.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewSession(schema.CompanyV1(), target, plan)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := em.FindAny("EMP", value.FromPairs("EMP-NAME", "CLARK")); err != nil || st != netstore.OK {
		t.Fatalf("%v %v", st, err)
	}
	rec, st, err := em.Get("EMP")
	if err != nil || st != netstore.OK {
		t.Fatal(err)
	}
	// The program sees its old field names.
	if rec.MustGet("AGE").AsInt() != 33 || rec.Has("YEARS") {
		t.Errorf("reverse mapping failed: %v", rec)
	}
}

func TestEmulatedFindOwnerAcrossSplit(t *testing.T) {
	em, err := NewSession(schema.CompanyV1(), migrated(t), figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	em.FindAny("EMP", value.FromPairs("EMP-NAME", "DAVIS"))
	if st, err := em.FindOwner("DIV-EMP"); err != nil || st != netstore.OK {
		t.Fatalf("%v %v", st, err)
	}
	rec, st, err := em.Get("DIV")
	if err != nil || st != netstore.OK || rec.MustGet("DIV-NAME").AsString() != "TEXTILES" {
		t.Errorf("owner = %v (%v %v)", rec, st, err)
	}
}

func TestEmulationIsRetrievalOnly(t *testing.T) {
	em, err := NewSession(schema.CompanyV1(), migrated(t), figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := em.Store("EMP", value.NewRecord()); err != ErrRetrievalOnly {
		t.Error("store should be refused")
	}
	if _, err := em.Modify("EMP", value.NewRecord()); err != ErrRetrievalOnly {
		t.Error("modify should be refused")
	}
	if _, err := em.Erase("EMP"); err != ErrRetrievalOnly {
		t.Error("erase should be refused")
	}
}

func TestEmulateUnsplitSetPassThrough(t *testing.T) {
	em, err := NewSession(schema.CompanyV1(), migrated(t), figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	st, err := em.FindInSet("ALL-DIV", netstore.First, nil)
	for err == nil && st == netstore.OK {
		rec, _, _ := em.Get("DIV")
		names = append(names, rec.MustGet("DIV-NAME").AsString())
		st, err = em.FindInSet("ALL-DIV", netstore.Next, nil)
	}
	if strings.Join(names, ",") != "MACHINERY,TEXTILES" {
		t.Errorf("system sweep = %v", names)
	}
}

func TestEmulateErrors(t *testing.T) {
	em, err := NewSession(schema.CompanyV1(), migrated(t), figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.FindInSet("DIV-EMP", netstore.Prior, nil); err == nil {
		t.Error("PRIOR over a split is not emulated")
	}
	// Dropped fields surface.
	plan := &xform.Plan{Steps: []xform.Transformation{xform.DropField{Record: "EMP", Field: "AGE"}}}
	target, _, _ := plan.Migrate(context.Background(), v1DB(t), xform.MigrateOptions{})
	em2, err := NewSession(schema.CompanyV1(), target, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em2.FindAny("EMP", value.FromPairs("AGE", 33)); err == nil {
		t.Error("match on dropped field should fail")
	}
	// Bad plan.
	bad := &xform.Plan{Steps: []xform.Transformation{xform.RenameRecord{Old: "NOPE", New: "X"}}}
	if _, err := NewSession(schema.CompanyV1(), migrated(t), bad); err == nil {
		t.Error("bad plan")
	}
}
