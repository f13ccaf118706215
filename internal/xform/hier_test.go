package xform

import (
	"context"
	"strings"
	"testing"

	"progconv/internal/hierstore"
	"progconv/internal/schema"
	"progconv/internal/schema/ddl"
	"progconv/internal/value"
)

func personnelHierDB(t *testing.T) *hierstore.DB {
	t.Helper()
	db := hierstore.NewDB(schema.EmpDeptHierarchy())
	s := hierstore.NewSession(db)
	for _, d := range []struct{ d, n, m string }{
		{"D12", "ACCT", "SMITH"}, {"D2", "SALES", "JONES"}, {"D9", "EMPTY", "NOONE"},
	} {
		s.ISRT(value.FromPairs("D#", d.d, "DNAME", d.n, "MGR", d.m), hierstore.U("DEPT"))
	}
	for _, e := range []struct {
		dept, e, n string
		age, yos   int
	}{
		{"D12", "E1", "BAKER", 28, 3},
		{"D12", "E3", "ADAMS", 45, 12},
		{"D2", "E2", "CLARK", 33, 3},
	} {
		s.ISRT(value.FromPairs("E#", e.e, "ENAME", e.n, "AGE", e.age, "YEAR-OF-SERVICE", e.yos),
			hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str(e.dept)), hierstore.U("EMP"))
	}
	return db
}

// migrateHier runs a one-step reorder plan through Migrate.
func migrateHier(src *hierstore.DB, tr HierReorder) (*hierstore.DB, []string, error) {
	out, warnings, _, err := (&HierPlan{Steps: []HierReorder{tr}}).Migrate(context.Background(), src, MigrateOptions{})
	return out, warnings, err
}

func TestHierReorderSchema(t *testing.T) {
	tr := HierReorder{Promote: "EMP"}
	out, err := tr.ApplySchema(schema.EmpDeptHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if out.Root.Name != "EMP" {
		t.Errorf("new root = %s", out.Root.Name)
	}
	if len(out.Root.Children) != 1 || out.Root.Children[0].Name != "DEPT" {
		t.Errorf("children = %v", out.Root.Children)
	}
	if !tr.Invertible() {
		t.Error("reorder is invertible")
	}
	if !strings.Contains(tr.Describe(), "EMP") || tr.Name() != "hier-reorder" {
		t.Error("naming")
	}
}

func TestHierReorderSchemaErrors(t *testing.T) {
	tr := HierReorder{Promote: "NOPE"}
	if _, err := tr.ApplySchema(schema.EmpDeptHierarchy()); err == nil {
		t.Error("unknown segment")
	}
	if _, err := tr.ApplySchema(&schema.Hierarchy{Name: "E"}); err == nil {
		t.Error("empty hierarchy")
	}
	deep := schema.EmpDeptHierarchy()
	deep.Root.Children[0].Children = []*schema.Segment{
		{Name: "SKILL", Fields: []schema.Field{{Name: "S", Kind: value.String}}},
	}
	if _, err := (HierReorder{Promote: "EMP"}).ApplySchema(deep); err == nil {
		t.Error("non-leaf promotion")
	}
}

func TestHierReorderMigration(t *testing.T) {
	src := personnelHierDB(t)
	tr := HierReorder{Promote: "EMP"}
	dst, warnings, err := migrateHier(src, tr)
	if err != nil {
		t.Fatal(err)
	}
	// D9 had no employees: unreachable, warned about.
	if len(warnings) != 1 || !strings.Contains(warnings[0], "D9") {
		t.Errorf("warnings = %v", warnings)
	}
	if dst.Count("EMP") != 3 || dst.Count("DEPT") != 3 {
		t.Errorf("counts: EMP=%d DEPT=%d", dst.Count("EMP"), dst.Count("DEPT"))
	}
	pairs, err := tr.ReorderedValueEqual(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 3 {
		t.Errorf("checked %d pairs", pairs)
	}
}

func TestHierReorderSSARewrite(t *testing.T) {
	tr := HierReorder{Promote: "EMP"}
	// Old-order path DEPT(D#='D12'), EMP(E#='E1') → EMP(E#='E1'), DEPT(D#='D12').
	old := []hierstore.SSA{
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D12")),
		hierstore.Q("EMP", "E#", hierstore.EQ, value.Str("E1")),
	}
	got := tr.RewriteSSAs("DEPT", old)
	if len(got) != 2 || got[0].Segment != "EMP" || got[1].Segment != "DEPT" {
		t.Errorf("rewritten = %v", got)
	}
	// Parent-only path gains an unqualified child step.
	pOnly := tr.RewriteSSAs("DEPT", []hierstore.SSA{
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D12")),
	})
	if len(pOnly) != 2 || pOnly[0].Segment != "EMP" || len(pOnly[0].Quals) != 0 || pOnly[1].Segment != "DEPT" {
		t.Errorf("parent-only = %v", pOnly)
	}
	// Child-only path is unchanged in content.
	cOnly := tr.RewriteSSAs("DEPT", []hierstore.SSA{
		hierstore.Q("EMP", "E#", hierstore.EQ, value.Str("E1")),
	})
	if len(cOnly) != 1 || cOnly[0].Segment != "EMP" {
		t.Errorf("child-only = %v", cOnly)
	}
}

// TestHierReorderEndToEnd is the Mehl & Wang result: a program's queries,
// rewritten by the command substitution rule, return the same answers on
// the reordered database.
func TestHierReorderEndToEnd(t *testing.T) {
	src := personnelHierDB(t)
	tr := HierReorder{Promote: "EMP"}
	dst, _, err := migrateHier(src, tr)
	if err != nil {
		t.Fatal(err)
	}

	oldSess := hierstore.NewSession(src)
	newSess := hierstore.NewSession(dst)

	oldPath := []hierstore.SSA{
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D12")),
		hierstore.Q("EMP", "YEAR-OF-SERVICE", hierstore.EQ, value.Of(3)),
	}
	oldRec, oldSt := oldSess.GU(oldPath...)
	newRec, newSt := tr.EmulateGU(newSess, "DEPT", oldPath)
	if oldSt != hierstore.OK || newSt != hierstore.OK {
		t.Fatalf("statuses %v %v", oldSt, newSt)
	}
	if oldRec.MustGet("ENAME").AsString() != newRec.MustGet("ENAME").AsString() {
		t.Errorf("answers differ: %v vs %v", oldRec, newRec)
	}
	// A parent-targeted call rewrites to a single path.
	pPath := []hierstore.SSA{
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D2")),
	}
	oldP, _ := oldSess.GU(pPath...)
	newP, pst := tr.EmulateGU(newSess, "DEPT", pPath)
	if pst != hierstore.OK || !oldP.Equal(newP) {
		t.Errorf("parent target: %v vs %v (%v)", oldP, newP, pst)
	}
	// A miss stays a miss.
	if _, st := tr.EmulateGU(newSess, "DEPT", []hierstore.SSA{
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D12")),
		hierstore.Q("EMP", "YEAR-OF-SERVICE", hierstore.EQ, value.Of(99)),
	}); st != hierstore.GE {
		t.Errorf("miss status = %v", st)
	}

	// Sweep: every EMP reachable in both orders.
	count := func(s *hierstore.Session, ssas ...hierstore.SSA) int {
		s.Reset()
		n := 0
		for {
			_, st := s.GN(ssas...)
			if st != hierstore.OK {
				return n
			}
			n++
		}
	}
	if a, b := count(oldSess, hierstore.U("EMP")), count(newSess, hierstore.U("EMP")); a != b {
		t.Errorf("EMP sweep: %d vs %d", a, b)
	}
}

func TestHierReorderSharedChildMerges(t *testing.T) {
	// Two departments share an employee number: after promotion the roots
	// merge and both parents hang beneath.
	db := hierstore.NewDB(schema.EmpDeptHierarchy())
	s := hierstore.NewSession(db)
	s.ISRT(value.FromPairs("D#", "D1", "DNAME", "A", "MGR", "M"), hierstore.U("DEPT"))
	s.ISRT(value.FromPairs("D#", "D2", "DNAME", "B", "MGR", "N"), hierstore.U("DEPT"))
	shared := value.FromPairs("E#", "E1", "ENAME", "X", "AGE", 1, "YEAR-OF-SERVICE", 1)
	s.ISRT(shared, hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D1")), hierstore.U("EMP"))
	s.ISRT(shared, hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D2")), hierstore.U("EMP"))

	tr := HierReorder{Promote: "EMP"}
	dst, warnings, err := migrateHier(db, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "merge") {
		t.Errorf("warnings = %v", warnings)
	}
	if dst.Count("EMP") != 1 || dst.Count("DEPT") != 2 {
		t.Errorf("counts: EMP=%d DEPT=%d", dst.Count("EMP"), dst.Count("DEPT"))
	}
}

func parseHierarchy(t *testing.T, src string) *schema.Hierarchy {
	t.Helper()
	h, err := ddl.ParseHierarchy(src)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// isrt inserts through a PCB and fails the test on any status but OK.
func isrt(t *testing.T, s *hierstore.Session, data *value.Record, ssas ...hierstore.SSA) {
	t.Helper()
	if st := s.ISRT(data, ssas...); st != hierstore.OK {
		t.Fatalf("ISRT %v under %v: %v", data, ssas, st)
	}
}

func underDept(d string) hierstore.SSA {
	return hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str(d))
}

// TestHierReorderPromotedWithoutSeq: a promoted type with no sequence
// field gets one new root per occurrence, and each parent copy lands
// under its own child's root — not under the first root, where the
// second copy of a department would collide with the first.
func TestHierReorderPromotedWithoutSeq(t *testing.T) {
	h := parseHierarchy(t, `HIERARCHY NAME IS PERSONNEL.
SEGMENT DEPT (D# STRING, DNAME STRING) ROOT SEQ D#.
SEGMENT EMP (E# STRING, ENAME STRING) PARENT DEPT.
END HIERARCHY.`)
	db := hierstore.NewDB(h)
	s := hierstore.NewSession(db)
	for _, d := range []string{"D1", "D2"} {
		isrt(t, s, value.FromPairs("D#", d, "DNAME", "N"+d), hierstore.U("DEPT"))
	}
	for _, e := range []struct{ d, e string }{{"D1", "E2"}, {"D1", "E1"}, {"D2", "E3"}, {"D2", "E4"}} {
		isrt(t, s, value.FromPairs("E#", e.e, "ENAME", "N"+e.e), underDept(e.d), hierstore.U("EMP"))
	}
	dst, warnings, err := migrateHier(db, HierReorder{Promote: "EMP"})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Errorf("warnings = %v", warnings)
	}
	want := `EMP{E#=E2, ENAME=NE2}
  DEPT{D#=D1, DNAME=ND1}
EMP{E#=E1, ENAME=NE1}
  DEPT{D#=D1, DNAME=ND1}
EMP{E#=E3, ENAME=NE3}
  DEPT{D#=D2, DNAME=ND2}
EMP{E#=E4, ENAME=NE4}
  DEPT{D#=D2, DNAME=ND2}
`
	if got := dst.DumpSequence(); got != want {
		t.Errorf("reordered database:\n%s\nwant\n%s", got, want)
	}
}

// TestHierReorderKeepsOtherChildren: the old root's non-promoted child
// subtrees stay beneath it in the target schema, so every copy of a
// parent carries a copy of them, in hierarchic order.
func TestHierReorderKeepsOtherChildren(t *testing.T) {
	h := parseHierarchy(t, `HIERARCHY NAME IS PERSONNEL.
SEGMENT DEPT (D# STRING, DNAME STRING) ROOT SEQ D#.
SEGMENT EMP (E# STRING, ENAME STRING) PARENT DEPT SEQ E#.
SEGMENT PROJ (P# STRING, BUDGET INT) PARENT DEPT SEQ P#.
SEGMENT TASK (T# STRING) PARENT PROJ SEQ T#.
END HIERARCHY.`)
	db := hierstore.NewDB(h)
	s := hierstore.NewSession(db)
	for _, d := range []string{"D1", "D2", "D3"} {
		isrt(t, s, value.FromPairs("D#", d, "DNAME", "N"+d), hierstore.U("DEPT"))
	}
	for _, e := range []struct{ d, e string }{{"D1", "E2"}, {"D1", "E1"}, {"D2", "E3"}} {
		isrt(t, s, value.FromPairs("E#", e.e, "ENAME", "N"+e.e), underDept(e.d), hierstore.U("EMP"))
	}
	for _, p := range []struct {
		d, p   string
		budget int
	}{{"D1", "P2", 20}, {"D1", "P1", 10}, {"D2", "P3", 30}, {"D3", "P4", 40}} {
		isrt(t, s, value.FromPairs("P#", p.p, "BUDGET", p.budget), underDept(p.d), hierstore.U("PROJ"))
	}
	for _, tk := range []struct{ d, p, t string }{{"D1", "P1", "T2"}, {"D1", "P1", "T1"}, {"D1", "P2", "T3"}} {
		isrt(t, s, value.FromPairs("T#", tk.t), underDept(tk.d),
			hierstore.Q("PROJ", "P#", hierstore.EQ, value.Str(tk.p)), hierstore.U("TASK"))
	}
	dst, warnings, err := migrateHier(db, HierReorder{Promote: "EMP"})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "D3") {
		t.Errorf("warnings = %v", warnings)
	}
	want := `EMP{E#=E1, ENAME=NE1}
  DEPT{D#=D1, DNAME=ND1}
    PROJ{P#=P1, BUDGET=10}
      TASK{T#=T1}
      TASK{T#=T2}
    PROJ{P#=P2, BUDGET=20}
      TASK{T#=T3}
EMP{E#=E2, ENAME=NE2}
  DEPT{D#=D1, DNAME=ND1}
    PROJ{P#=P1, BUDGET=10}
      TASK{T#=T1}
      TASK{T#=T2}
    PROJ{P#=P2, BUDGET=20}
      TASK{T#=T3}
EMP{E#=E3, ENAME=NE3}
  DEPT{D#=D2, DNAME=ND2}
    PROJ{P#=P3, BUDGET=30}
`
	if got := dst.DumpSequence(); got != want {
		t.Errorf("reordered database:\n%s\nwant\n%s", got, want)
	}
}
