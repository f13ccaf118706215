package xform

import (
	"context"
	"errors"
	"strings"
	"testing"

	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/semantic"
	"progconv/internal/value"
)

// figure42to44 is the paper's flagship transformation.
func figure42to44() IntroduceIntermediate {
	return IntroduceIntermediate{
		Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
		Upper: "DIV-DEPT", Lower: "DEPT-EMP",
	}
}

// migrate runs a plan of the given steps through Migrate, failing the
// test on error.
func migrate(t *testing.T, src *netstore.DB, steps ...Transformation) *netstore.DB {
	t.Helper()
	out, _, err := (&Plan{Steps: steps}).Migrate(context.Background(), src, MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// companyV1DB populates Figure 4.2.
func companyV1DB(t *testing.T) *netstore.DB {
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

// TestIntroduceIntermediateMatchesFigure44 verifies the schema mapping
// reproduces Figure 4.4 exactly (against the hand-built fixture).
func TestIntroduceIntermediateMatchesFigure44(t *testing.T) {
	got, err := figure42to44().ApplySchema(schema.CompanyV1())
	if err != nil {
		t.Fatal(err)
	}
	want := schema.CompanyV2()
	if got.DDL() != want.DDL() {
		t.Errorf("transformed schema:\n%s\nwant (Figure 4.4):\n%s", got.DDL(), want.DDL())
	}
}

func TestIntroduceIntermediateMigration(t *testing.T) {
	out := migrate(t, companyV1DB(t), figure42to44())
	if out.Count("DIV") != 2 || out.Count("EMP") != 4 {
		t.Errorf("counts: DIV=%d EMP=%d", out.Count("DIV"), out.Count("EMP"))
	}
	// MACHINERY has SALES and WELDING; TEXTILES has SALES: 3 DEPTs.
	if out.Count("DEPT") != 3 {
		t.Errorf("DEPT count = %d", out.Count("DEPT"))
	}
	// Logical EMP records are unchanged: DEPT-NAME and DIV-NAME resolve
	// through the chain.
	for _, id := range out.AllOf("EMP") {
		rec := out.Data(id)
		if rec.MustGet("DEPT-NAME").IsNull() || rec.MustGet("DIV-NAME").IsNull() {
			t.Errorf("EMP %v lost logical fields", rec)
		}
		if rec.MustGet("EMP-NAME").AsString() == "CLARK" &&
			rec.MustGet("DEPT-NAME").AsString() != "WELDING" {
			t.Errorf("CLARK regrouped wrongly: %v", rec)
		}
	}
}

func TestIntroduceCollapseRoundTrip(t *testing.T) {
	src := companyV1DB(t)
	intro := figure42to44()
	v2schema, err := intro.ApplySchema(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	v2db := migrate(t, src, intro)
	collapse := figure44to42()
	backSchema, err := collapse.ApplySchema(v2schema)
	if err != nil {
		t.Fatal(err)
	}
	if backSchema.DDL() != src.Schema().DDL() {
		t.Errorf("round trip schema:\n%s\nwant:\n%s", backSchema.DDL(), src.Schema().DDL())
	}
	backDB := migrate(t, v2db, collapse)
	// Same logical EMP records, same counts.
	if backDB.Count("EMP") != 4 || backDB.Count("DIV") != 2 {
		t.Error("round trip lost records")
	}
	for _, id := range backDB.AllOf("EMP") {
		rec := backDB.Data(id)
		name := rec.MustGet("EMP-NAME").AsString()
		found := false
		for _, sid := range src.AllOf("EMP") {
			if src.Data(sid).Equal(rec) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("EMP %s differs after round trip: %v", name, rec)
		}
	}
}

func TestIntroduceIntermediateChecks(t *testing.T) {
	cases := []struct {
		name string
		t    IntroduceIntermediate
		want string
	}{
		{"no set", IntroduceIntermediate{Set: "NOPE", Inter: "X", GroupField: "F", Upper: "U", Lower: "L"}, "no set type"},
		{"system set", IntroduceIntermediate{Set: "ALL-DIV", Inter: "X", GroupField: "F", Upper: "U", Lower: "L"}, "SYSTEM"},
		{"no group field", IntroduceIntermediate{Set: "DIV-EMP", Inter: "X", GroupField: "NOPE", Upper: "U", Lower: "L"}, "no field"},
		{"virtual group", IntroduceIntermediate{Set: "DIV-EMP", Inter: "X", GroupField: "DIV-NAME", Upper: "U", Lower: "L"}, "virtual"},
		{"inter exists", IntroduceIntermediate{Set: "DIV-EMP", Inter: "DIV", GroupField: "DEPT-NAME", Upper: "U", Lower: "L"}, "already exists"},
		{"set exists", IntroduceIntermediate{Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME", Upper: "ALL-DIV", Lower: "L"}, "already exists"},
		{"group is key", IntroduceIntermediate{Set: "DIV-EMP", Inter: "DEPT", GroupField: "EMP-NAME", Upper: "U", Lower: "L"}, "is a key"},
	}
	for _, tc := range cases {
		_, err := tc.t.ApplySchema(schema.CompanyV1())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestRenameTransformations(t *testing.T) {
	src := companyV1DB(t)
	plan := &Plan{Steps: []Transformation{
		RenameRecord{Old: "EMP", New: "WORKER"},
		RenameField{Record: "WORKER", Old: "AGE", New: "YEARS"},
		RenameSet{Old: "DIV-EMP", New: "DIV-WORKER"},
	}}
	dstSchema, err := plan.ApplySchema(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if dstSchema.Record("WORKER") == nil || dstSchema.Record("EMP") != nil {
		t.Error("record rename")
	}
	if dstSchema.Record("WORKER").Field("YEARS") == nil {
		t.Error("field rename")
	}
	if dstSchema.Set("DIV-WORKER") == nil {
		t.Error("set rename")
	}
	// Virtual re-pointed.
	v := dstSchema.Record("WORKER").Field("DIV-NAME").Virtual
	if v == nil || v.ViaSet != "DIV-WORKER" {
		t.Errorf("virtual after set rename: %+v", v)
	}
	out := migrate(t, src, plan.Steps...)
	if out.Count("WORKER") != 4 {
		t.Error("migration lost workers")
	}
	rec := out.Data(out.AllOf("WORKER")[0])
	if !rec.Has("YEARS") || rec.Has("AGE") {
		t.Errorf("field rename in data: %v", rec)
	}
	if !plan.Invertible() {
		t.Error("renames are invertible")
	}
	if !strings.Contains(plan.Describe(), "rename-record") {
		t.Error("Describe")
	}
	rews, err := plan.Rewriters(src.Schema())
	if err != nil || len(rews) != 3 {
		t.Fatalf("%v %v", rews, err)
	}
	if rews[0].MapRecord("EMP") != "WORKER" {
		t.Error("record map")
	}
	if r, f := rews[1].MapField("WORKER", "AGE"); r != "WORKER" || f != "YEARS" {
		t.Error("field map")
	}
	if n, ok := rews[2].MapSet("DIV-EMP"); !ok || n != "DIV-WORKER" {
		t.Error("set map")
	}
}

func TestRenameKeysFollowFieldRename(t *testing.T) {
	tr := RenameField{Record: "EMP", Old: "EMP-NAME", New: "WNAME"}
	out, err := tr.ApplySchema(schema.CompanyV1())
	if err != nil {
		t.Fatal(err)
	}
	if out.Set("DIV-EMP").Keys[0] != "WNAME" {
		t.Errorf("set keys = %v", out.Set("DIV-EMP").Keys)
	}
}

func TestAddDropField(t *testing.T) {
	src := companyV1DB(t)
	add := AddField{Record: "EMP", Field: "SALARY", Kind: value.Int, Default: value.Of(0)}
	s2, err := add.ApplySchema(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	db2 := migrate(t, src, add)
	rec := db2.Data(db2.AllOf("EMP")[0])
	if rec.MustGet("SALARY").AsInt() != 0 {
		t.Errorf("default missing: %v", rec)
	}
	if !add.Invertible() {
		t.Error("add is invertible")
	}

	drop := DropField{Record: "EMP", Field: "AGE"}
	if _, err := drop.ApplySchema(s2); err != nil {
		t.Fatal(err)
	}
	db3 := migrate(t, db2, drop)
	if db3.Data(db3.AllOf("EMP")[0]).Has("AGE") {
		t.Error("AGE survived drop")
	}
	if drop.Invertible() {
		t.Error("drop loses information")
	}
	r, _ := drop.Rewriter(s2)
	if !r.IsDropped("EMP", "AGE") || r.IsDropped("EMP", "SALARY") {
		t.Error("dropped bookkeeping")
	}
}

func TestDropFieldGuards(t *testing.T) {
	if _, err := (DropField{Record: "EMP", Field: "EMP-NAME"}).ApplySchema(schema.CompanyV1()); err == nil {
		t.Error("dropping a set key must fail")
	}
	if _, err := (DropField{Record: "DIV", Field: "DIV-NAME"}).ApplySchema(schema.CompanyV1()); err == nil {
		t.Error("dropping a virtual source must fail")
	}
	if _, err := (DropField{Record: "NOPE", Field: "X"}).ApplySchema(schema.CompanyV1()); err == nil {
		t.Error("unknown record")
	}
	if _, err := (DropField{Record: "EMP", Field: "NOPE"}).ApplySchema(schema.CompanyV1()); err == nil {
		t.Error("unknown field")
	}
}

func TestChangeSetKeysAndRetention(t *testing.T) {
	src := companyV1DB(t)
	keys := ChangeSetKeys{Set: "DIV-EMP", Keys: []string{"AGE"}}
	if _, err := keys.ApplySchema(src.Schema()); err != nil {
		t.Fatal(err)
	}
	db2 := migrate(t, src, keys)
	// MACHINERY employees now ordered by AGE: BAKER(28), CLARK(33), ADAMS(45).
	div := db2.SystemMembers("ALL-DIV")[0]
	emps := db2.Members("DIV-EMP", div)
	var names []string
	for _, id := range emps {
		names = append(names, db2.Data(id).MustGet("EMP-NAME").AsString())
	}
	if strings.Join(names, ",") != "BAKER,CLARK,ADAMS" {
		t.Errorf("reordered = %v", names)
	}
	r, err := keys.Rewriter(src.Schema())
	if err != nil || strings.Join(r.OrderChanged["DIV-EMP"], ",") != "EMP-NAME" {
		t.Errorf("OrderChanged = %v, %v", r.OrderChanged, err)
	}

	ret := ChangeRetention{Set: "DIV-EMP", Retention: schema.Optional}
	s3, err := ret.ApplySchema(src.Schema())
	if err != nil || s3.Set("DIV-EMP").Retention != schema.Optional {
		t.Errorf("retention: %v", err)
	}
	rr, _ := ret.Rewriter(src.Schema())
	if len(rr.Notes) != 1 {
		t.Error("retention note missing")
	}
}

func TestRewriteHopsSplitAndMerge(t *testing.T) {
	intro := figure42to44()
	r, err := intro.Rewriter(schema.CompanyV1())
	if err != nil {
		t.Fatal(err)
	}
	down := r.RewriteHops([]semantic.Hop{{Set: "DIV-EMP", Down: true}})
	if len(down) != 2 || down[0].Set != "DIV-DEPT" || down[1].Set != "DEPT-EMP" {
		t.Errorf("down split = %v", down)
	}
	up := r.RewriteHops([]semantic.Hop{{Set: "DIV-EMP", Down: false}})
	if len(up) != 2 || up[0].Set != "DEPT-EMP" || up[0].Down || up[1].Set != "DIV-DEPT" {
		t.Errorf("up split = %v", up)
	}

	collapse := CollapseIntermediate{Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		GroupField: "DEPT-NAME", NewSet: "DIV-EMP"}
	cr, err := collapse.Rewriter(schema.CompanyV2())
	if err != nil {
		t.Fatal(err)
	}
	merged := cr.RewriteHops([]semantic.Hop{
		{Set: "DIV-DEPT", Down: true}, {Set: "DEPT-EMP", Down: true},
	})
	if len(merged) != 1 || merged[0].Set != "DIV-EMP" || !merged[0].Down {
		t.Errorf("merged = %v", merged)
	}
	mergedUp := cr.RewriteHops([]semantic.Hop{
		{Set: "DEPT-EMP", Down: false}, {Set: "DIV-DEPT", Down: false},
	})
	if len(mergedUp) != 1 || mergedUp[0].Set != "DIV-EMP" || mergedUp[0].Down {
		t.Errorf("merged up = %v", mergedUp)
	}
}

func TestClassifyFigure42to44(t *testing.T) {
	plan, err := Classify(schema.CompanyV1(), schema.CompanyV2())
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("plan = %s", plan.Describe())
	}
	tr, ok := plan.Steps[0].(IntroduceIntermediate)
	if !ok || tr.Set != "DIV-EMP" || tr.Inter != "DEPT" || tr.GroupField != "DEPT-NAME" {
		t.Errorf("classified = %+v", plan.Steps[0])
	}
	// And the reverse direction.
	rev, err := Classify(schema.CompanyV2(), schema.CompanyV1())
	if err != nil {
		t.Fatalf("reverse classify: %v", err)
	}
	if len(rev.Steps) != 1 {
		t.Fatalf("reverse plan = %s", rev.Describe())
	}
	if _, ok := rev.Steps[0].(CollapseIntermediate); !ok {
		t.Errorf("reverse = %+v", rev.Steps[0])
	}
}

func TestClassifyPropertyChanges(t *testing.T) {
	src := schema.CompanyV1()
	dst := schema.CompanyV1()
	dst.Set("DIV-EMP").Keys = []string{"AGE"}
	dst.Set("DIV-EMP").Retention = schema.Optional
	dst.Record("DIV").Fields = append(dst.Record("DIV").Fields,
		schema.Field{Name: "BUDGET", Kind: value.Int})
	plan, err := Classify(src, dst)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	kinds := map[string]bool{}
	for _, s := range plan.Steps {
		kinds[s.Name()] = true
	}
	for _, want := range []string{"change-set-keys", "change-retention", "add-field"} {
		if !kinds[want] {
			t.Errorf("plan missing %s:\n%s", want, plan.Describe())
		}
	}
}

func TestClassifyDropField(t *testing.T) {
	src := schema.CompanyV1()
	dst := schema.CompanyV1()
	emp := dst.Record("EMP")
	var kept []schema.Field
	for _, f := range emp.Fields {
		if f.Name != "AGE" {
			kept = append(kept, f)
		}
	}
	emp.Fields = kept
	plan, err := Classify(src, dst)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Name() != "drop-field" {
		t.Errorf("plan = %s", plan.Describe())
	}
	if plan.Invertible() {
		t.Error("drop plan must not be invertible")
	}
}

func TestClassifyEscalatesUnknownChanges(t *testing.T) {
	src := schema.CompanyV1()
	dst := schema.CompanyV1()
	// A brand-new unrelated record type with its own set: not catalogued.
	dst.Records = append(dst.Records, &schema.RecordType{Name: "AUDIT",
		Fields: []schema.Field{{Name: "NOTE", Kind: value.String}}})
	dst.Sets = append(dst.Sets, &schema.SetType{Name: "ALL-AUDIT",
		Owner: schema.SystemOwner, Member: "AUDIT"})
	_, err := Classify(src, dst)
	if !errors.Is(err, ErrHazardUnresolved) {
		t.Errorf("err = %v, want ErrHazardUnresolved", err)
	}
}

func TestTopoRecordOrder(t *testing.T) {
	order := topoRecordOrder(schema.CompanyV2())
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["DIV"] < pos["DEPT"] && pos["DEPT"] < pos["EMP"]) {
		t.Errorf("order = %v", order)
	}
	// A cyclic ownership still yields all records.
	cyc := &schema.Network{Name: "C", Records: []*schema.RecordType{
		{Name: "A", Fields: []schema.Field{{Name: "X", Kind: value.Int}}},
		{Name: "B", Fields: []schema.Field{{Name: "Y", Kind: value.Int}}},
	}, Sets: []*schema.SetType{
		{Name: "AB", Owner: "A", Member: "B"},
		{Name: "BA", Owner: "B", Member: "A"},
	}}
	if len(topoRecordOrder(cyc)) != 2 {
		t.Error("cycle fallback")
	}
}

func TestTransformationErrorPaths(t *testing.T) {
	v1 := schema.CompanyV1()
	cases := []struct {
		name string
		err  func() error
	}{
		{"rename record missing", func() error { _, e := (RenameRecord{Old: "X", New: "Y"}).ApplySchema(v1); return e }},
		{"rename record clash", func() error { _, e := (RenameRecord{Old: "EMP", New: "DIV"}).ApplySchema(v1); return e }},
		{"rename field missing rec", func() error { _, e := (RenameField{Record: "X", Old: "A", New: "B"}).ApplySchema(v1); return e }},
		{"rename field missing", func() error { _, e := (RenameField{Record: "EMP", Old: "X", New: "B"}).ApplySchema(v1); return e }},
		{"rename field clash", func() error {
			_, e := (RenameField{Record: "EMP", Old: "AGE", New: "EMP-NAME"}).ApplySchema(v1)
			return e
		}},
		{"rename set missing", func() error { _, e := (RenameSet{Old: "X", New: "Y"}).ApplySchema(v1); return e }},
		{"rename set clash", func() error { _, e := (RenameSet{Old: "DIV-EMP", New: "ALL-DIV"}).ApplySchema(v1); return e }},
		{"add field missing rec", func() error { _, e := (AddField{Record: "X", Field: "F"}).ApplySchema(v1); return e }},
		{"add field clash", func() error { _, e := (AddField{Record: "EMP", Field: "AGE"}).ApplySchema(v1); return e }},
		{"change keys missing", func() error { _, e := (ChangeSetKeys{Set: "X"}).ApplySchema(v1); return e }},
		{"change retention missing", func() error { _, e := (ChangeRetention{Set: "X"}).ApplySchema(v1); return e }},
		{"collapse missing", func() error {
			_, e := (CollapseIntermediate{Upper: "X", Lower: "Y", GroupField: "G", NewSet: "Z"}).ApplySchema(v1)
			return e
		}},
	}
	for _, tc := range cases {
		if tc.err() == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestPlanErrorPropagation(t *testing.T) {
	bad := &Plan{Steps: []Transformation{RenameRecord{Old: "NOPE", New: "X"}}}
	if _, err := bad.ApplySchema(schema.CompanyV1()); err == nil {
		t.Error("ApplySchema should propagate")
	}
	if _, _, err := bad.Migrate(context.Background(), companyV1DB(t), MigrateOptions{}); err == nil {
		t.Error("Migrate should propagate")
	}
	if _, err := bad.Rewriters(schema.CompanyV1()); err == nil {
		t.Error("Rewriters should propagate")
	}
}
