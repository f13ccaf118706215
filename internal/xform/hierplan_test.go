package xform

import (
	"context"
	"strings"
	"testing"

	"progconv/internal/hierstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// TestClassifyHier: equal hierarchies classify to the identity plan, a
// root inversion classifies to the single catalogued reorder, and an
// uncatalogued change names both schemas in its error.
func TestClassifyHier(t *testing.T) {
	src := schema.EmpDeptHierarchy()

	identity, err := ClassifyHier(src, schema.EmpDeptHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if len(identity.Steps) != 0 || !identity.Invertible() {
		t.Errorf("identity plan = %+v", identity)
	}

	dst, err := HierReorder{Promote: "EMP"}.ApplySchema(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ClassifyHier(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Promote != "EMP" {
		t.Fatalf("classified plan = %+v", plan)
	}
	if !strings.Contains(plan.Describe(), "EMP") {
		t.Errorf("plan description: %q", plan.Describe())
	}

	// An uncatalogued change (different segment population) refuses.
	other := schema.EmpDeptHierarchy()
	other.Name = "OTHER"
	if _, err := ClassifyHier(src, other); err == nil {
		t.Error("uncatalogued hierarchy change classified without error")
	}
}

// TestHierPlanApplyAndMigrate: the plan's schema chain matches its
// steps and the data migration carries every record across.
func TestHierPlanApplyAndMigrate(t *testing.T) {
	src := schema.EmpDeptHierarchy()
	plan := &HierPlan{Steps: []HierReorder{{Promote: "EMP"}}}

	got, err := plan.ApplySchema(src)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root.Name != "EMP" {
		t.Errorf("reordered root = %q, want EMP", got.Root.Name)
	}

	db := hierstore.NewDB(src)
	s := hierstore.NewSession(db)
	s.ISRT(value.FromPairs("D#", "D1", "DNAME", "OPS", "MGR", "KAY"), hierstore.U("DEPT"))
	s.ISRT(value.FromPairs("E#", "E1", "ENAME", "LEE", "AGE", 40, "YEAR-OF-SERVICE", 7),
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D1")), hierstore.U("EMP"))

	out, warnings, _, err := plan.Migrate(context.Background(), db, MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().Root.Name != "EMP" {
		t.Errorf("migrated root = %q", out.Schema().Root.Name)
	}
	_ = warnings // the two-level promote migrates without advisories here

	// The identity plan clones rather than aliasing.
	id := &HierPlan{}
	same, _, _, err := id.Migrate(context.Background(), db, MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if same == db {
		t.Error("identity migration aliases the source database")
	}
}
