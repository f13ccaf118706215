package xform

import (
	"errors"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

func TestInversePlanRoundTripsSchema(t *testing.T) {
	src := schema.CompanyV1()
	plan := &Plan{Steps: []Transformation{
		RenameRecord{Old: "EMP", New: "WORKER"},
		RenameField{Record: "WORKER", Old: "AGE", New: "YEARS"},
		RenameSet{Old: "DIV-EMP", New: "DIV-WORKER"},
		AddField{Record: "DIV", Field: "BUDGET", Kind: value.Int, Default: value.Of(0)},
		ChangeSetKeys{Set: "DIV-WORKER", Keys: []string{"YEARS"}},
		ChangeRetention{Set: "DIV-WORKER", Retention: schema.Optional},
	}}
	dst, err := plan.ApplySchema(src)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := plan.InversePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := inv.ApplySchema(dst)
	if err != nil {
		t.Fatal(err)
	}
	if back.DDL() != src.DDL() {
		t.Errorf("round trip:\n%s\nwant:\n%s", back.DDL(), src.DDL())
	}
}

func TestInverseIntroduceCollapsePair(t *testing.T) {
	src := schema.CompanyV1()
	intro := IntroduceIntermediate{Set: "DIV-EMP", Inter: "DEPT",
		GroupField: "DEPT-NAME", Upper: "DIV-DEPT", Lower: "DEPT-EMP"}
	inv, err := Inverse(intro, src)
	if err != nil {
		t.Fatal(err)
	}
	col, ok := inv.(CollapseIntermediate)
	if !ok || col.NewSet != "DIV-EMP" || col.GroupField != "DEPT-NAME" {
		t.Errorf("inverse = %+v", inv)
	}
	v2, _ := intro.ApplySchema(src)
	inv2, err := Inverse(col, v2)
	if err != nil {
		t.Fatal(err)
	}
	intro2, ok := inv2.(IntroduceIntermediate)
	if !ok || intro2.Inter != "DEPT" || intro2.Set != "DIV-EMP" {
		t.Errorf("double inverse = %+v", inv2)
	}
}

func TestInversePlanRoundTripsData(t *testing.T) {
	src := companyV1DB(t)
	plan := &Plan{Steps: []Transformation{figure42to44()}}
	dst := migrate(t, src, plan.Steps...)
	inv, err := plan.InversePlan(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	back := migrate(t, dst, inv.Steps...)
	if back.Count("EMP") != src.Count("EMP") || back.Count("DIV") != src.Count("DIV") {
		t.Error("data round trip lost records")
	}
	for _, id := range back.AllOf("EMP") {
		rec := back.Data(id)
		found := false
		for _, sid := range src.AllOf("EMP") {
			if src.Data(sid).Equal(rec) {
				found = true
			}
		}
		if !found {
			t.Errorf("EMP %v differs after data round trip", rec)
		}
	}
}

func TestInverseDropFieldFails(t *testing.T) {
	_, err := Inverse(DropField{Record: "EMP", Field: "AGE"}, schema.CompanyV1())
	if !errors.Is(err, ErrNotInvertible) {
		t.Errorf("drop-field inverse err = %v, want ErrNotInvertible", err)
	}
	plan := &Plan{Steps: []Transformation{DropField{Record: "EMP", Field: "AGE"}}}
	if _, err := plan.InversePlan(schema.CompanyV1()); !errors.Is(err, ErrNotInvertible) {
		t.Errorf("plan inverse err = %v, want ErrNotInvertible", err)
	}
}

func TestInverseErrorsOnMissingContext(t *testing.T) {
	if _, err := Inverse(ChangeSetKeys{Set: "NOPE"}, schema.CompanyV1()); err == nil {
		t.Error("unknown set in ChangeSetKeys inverse")
	}
	if _, err := Inverse(ChangeRetention{Set: "NOPE"}, schema.CompanyV1()); err == nil {
		t.Error("unknown set in ChangeRetention inverse")
	}
	if _, err := Inverse(CollapseIntermediate{Upper: "NOPE"}, schema.CompanyV1()); err == nil {
		t.Error("unknown upper in Collapse inverse")
	}
	bad := &Plan{Steps: []Transformation{RenameRecord{Old: "NOPE", New: "X"}}}
	if _, err := bad.InversePlan(schema.CompanyV1()); err == nil {
		t.Error("bad plan should fail inversion")
	}
}
