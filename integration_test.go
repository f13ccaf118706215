package progconv

// Cross-module integration tests: the properties that hold only when the
// whole system composes correctly.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"progconv/internal/bridge"
	"progconv/internal/core"
	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/emulate"
	"progconv/internal/mdml"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/xform"
)

// TestThreeStrategiesAgree: for the same department-roster query, the
// rewritten program on the target database, the emulated source DML on
// the target database, and the unmodified source sweep on the bridge
// reconstruction all return the same record set — three §2 strategies,
// one answer.
func TestThreeStrategiesAgree(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		prof := corpus.Profile{Seed: seed, Divisions: 5, DeptsPerDiv: 4, EmpsPerDept: 6}
		src := corpus.Database(prof)
		plan := figurePlan()
		target, _, err := plan.Migrate(context.Background(), src, xform.MigrateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		div, dept := "DIV-02", "D-01"

		// Strategy 1: rewritten access path on the target.
		ev := mdml.NewEvaluator(target)
		f, _ := mdml.ParseFind(fmt.Sprintf(
			"FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = '%s'), DIV-DEPT, DEPT(DEPT-NAME = '%s'), DEPT-EMP, EMP)",
			div, dept))
		ids, err := ev.Eval(f)
		if err != nil {
			t.Fatal(err)
		}
		var rewritten []string
		for _, r := range ev.Records(ids) {
			rewritten = append(rewritten, r.MustGet("EMP-NAME").AsString())
		}

		// Strategy 2: emulated source DML against the target.
		em, err := emulate.NewSession(src.Schema(), target, plan)
		if err != nil {
			t.Fatal(err)
		}
		em.FindAny("DIV", value.FromPairs("DIV-NAME", div))
		match := value.FromPairs("DEPT-NAME", dept)
		var emulated []string
		st, err := em.FindInSet("DIV-EMP", netstore.First, match)
		for err == nil && st == netstore.OK {
			rec, _, gerr := em.Get("EMP")
			if gerr != nil {
				t.Fatal(gerr)
			}
			emulated = append(emulated, rec.MustGet("EMP-NAME").AsString())
			st, err = em.FindInSet("DIV-EMP", netstore.Next, match)
		}
		if err != nil {
			t.Fatal(err)
		}

		// Strategy 3: unmodified source navigation on the reconstruction.
		br, err := bridge.New(src.Schema(), target, plan)
		if err != nil {
			t.Fatal(err)
		}
		recon, err := br.Reconstruct()
		if err != nil {
			t.Fatal(err)
		}
		sess := netstore.NewSession(recon)
		sess.FindAny("DIV", value.FromPairs("DIV-NAME", div))
		var bridged []string
		bst, _ := sess.FindInSet("DIV-EMP", netstore.First, match)
		for bst == netstore.OK {
			rec, _, _ := sess.Get("EMP")
			bridged = append(bridged, rec.MustGet("EMP-NAME").AsString())
			bst, _ = sess.FindInSet("DIV-EMP", netstore.Next, match)
		}

		sort.Strings(rewritten)
		sort.Strings(emulated)
		sort.Strings(bridged)
		a, b, c := strings.Join(rewritten, ","), strings.Join(emulated, ","), strings.Join(bridged, ",")
		if a != b || b != c {
			t.Errorf("seed %d: strategies disagree:\nrewrite %s\nemulate %s\nbridge  %s", seed, a, b, c)
		}
		if len(rewritten) == 0 {
			t.Errorf("seed %d: empty roster makes the test vacuous", seed)
		}
	}
}

// TestSupervisorVerifiesEveryAutoConversion: across the whole corpus,
// every automatically converted program is I/O-equivalent against the
// migrated data — the framework's own acceptance test.
func TestSupervisorVerifiesEveryAutoConversion(t *testing.T) {
	prof := corpus.PeriodProfile(7)
	prof.Divisions, prof.DeptsPerDiv, prof.EmpsPerDept = 3, 3, 4
	members, err := corpus.Programs(prof)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]*dbprog.Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	db := corpus.Database(prof)
	sup := core.NewSupervisor()
	report, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, db, progs)
	if err != nil {
		t.Fatal(err)
	}
	auto := 0
	for _, o := range report.Outcomes {
		if o.Disposition != core.Auto {
			continue
		}
		auto++
		if o.Verified == nil {
			t.Fatalf("%s: auto conversion not verified", o.Name)
		}
		if !o.Verified.Equal {
			t.Errorf("%s: DIVERGED: %s", o.Name, o.Verified.Diff())
		}
	}
	if auto < 60 {
		t.Errorf("only %d auto conversions; corpus broken?", auto)
	}
}

// TestMigrationPreservesLogicalRecords: for seeded populations, the
// Figure 4.2→4.4 migration preserves every logical EMP record (including
// the virtualized DEPT-NAME and DIV-NAME), and the intermediate count
// equals the number of distinct (division, department) pairs.
func TestMigrationPreservesLogicalRecords(t *testing.T) {
	for _, seed := range []int64{3, 11, 99} {
		prof := corpus.Profile{Seed: seed, Divisions: 4, DeptsPerDiv: 3, EmpsPerDept: 5}
		src := corpus.Database(prof)
		plan := figurePlan()
		dst, _, err := plan.Migrate(context.Background(), src, xform.MigrateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if dst.Count("EMP") != src.Count("EMP") || dst.Count("DIV") != src.Count("DIV") {
			t.Fatalf("seed %d: counts changed", seed)
		}
		pairs := map[string]bool{}
		srcRecords := map[string]bool{}
		for _, id := range src.AllOf("EMP") {
			rec := src.Data(id)
			srcRecords[rec.String()] = true
			pairs[rec.MustGet("DIV-NAME").String()+"/"+rec.MustGet("DEPT-NAME").String()] = true
		}
		if dst.Count("DEPT") != len(pairs) {
			t.Errorf("seed %d: DEPT count %d, distinct pairs %d", seed, dst.Count("DEPT"), len(pairs))
		}
		for _, id := range dst.AllOf("EMP") {
			rec := dst.Data(id)
			// Field order differs (virtuals); compare by canonical projection.
			proj := value.FromPairs(
				"EMP-NAME", rec.MustGet("EMP-NAME"),
				"DEPT-NAME", rec.MustGet("DEPT-NAME"),
				"AGE", rec.MustGet("AGE"),
				"DIV-NAME", rec.MustGet("DIV-NAME"),
			)
			if !srcRecords[proj.String()] {
				t.Errorf("seed %d: logical record not preserved: %v", seed, rec)
			}
		}
	}
}

// TestMigrationRoundTripProperty: V1 → V2 → V1 is the identity on
// logical records for seeded populations (Housel's inverse-operator
// assumption, validated on data).
func TestMigrationRoundTripProperty(t *testing.T) {
	for _, seed := range []int64{5, 21} {
		prof := corpus.Profile{Seed: seed, Divisions: 3, DeptsPerDiv: 4, EmpsPerDept: 3}
		src := corpus.Database(prof)
		plan := figurePlan()
		mid, _, err := plan.Migrate(context.Background(), src, xform.MigrateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inv, err := plan.InversePlan(src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := inv.Migrate(context.Background(), mid, xform.MigrateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		for _, id := range src.AllOf("EMP") {
			want[src.Data(id).String()]++
		}
		got := map[string]int{}
		for _, id := range back.AllOf("EMP") {
			got[back.Data(id).String()]++
		}
		if len(want) != len(got) {
			t.Fatalf("seed %d: record multiset size changed", seed)
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("seed %d: record %s count %d → %d", seed, k, n, got[k])
			}
		}
	}
}

// TestConvertedCorpusProgramsRunClean: every auto-converted corpus
// program parses back from its generated text and runs without error on
// the migrated database (the Program Generator's output is real source).
func TestConvertedCorpusProgramsRunClean(t *testing.T) {
	prof := corpus.PeriodProfile(13)
	prof.Divisions, prof.DeptsPerDiv, prof.EmpsPerDept = 3, 2, 3
	members, err := corpus.Programs(prof)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]*dbprog.Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	db := corpus.Database(prof)
	sup := core.NewSupervisor()
	report, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, db, progs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range report.Outcomes {
		if o.Disposition != core.Auto || o.Converted == nil {
			continue
		}
		text := dbprog.Format(o.Converted)
		reparsed, err := dbprog.Parse(text)
		if err != nil {
			t.Fatalf("%s: generated text does not reparse: %v\n%s", o.Name, err, text)
		}
		if _, err := dbprog.Run(reparsed, dbprog.Config{Net: report.TargetDB.Clone()}); err != nil {
			t.Errorf("%s: converted program aborted: %v\n%s", o.Name, err, text)
		}
	}
}

// TestClassifierRecoversHandWrittenPlans: Classify(src, plan(src))
// recovers a plan with the same schema effect, for every non-rename
// catalogue entry (renames are fundamentally ambiguous — DESIGN.md).
func TestClassifierRecoversHandWrittenPlans(t *testing.T) {
	src := schema.CompanyV1()
	plans := []*xform.Plan{
		figurePlan(),
		{Steps: []xform.Transformation{
			xform.ChangeSetKeys{Set: "DIV-EMP", Keys: []string{"AGE"}},
			xform.ChangeRetention{Set: "DIV-EMP", Retention: schema.Optional},
		}},
		{Steps: []xform.Transformation{
			xform.AddField{Record: "DIV", Field: "BUDGET", Kind: value.Int, Default: value.Of(0)},
			xform.DropField{Record: "EMP", Field: "AGE"},
		}},
	}
	for i, plan := range plans {
		dst, err := plan.ApplySchema(src)
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := xform.Classify(src, dst)
		if err != nil {
			t.Fatalf("plan %d: classify: %v", i, err)
		}
		redst, err := recovered.ApplySchema(src)
		if err != nil {
			t.Fatalf("plan %d: recovered plan does not apply: %v", i, err)
		}
		if redst.DDL() != dst.DDL() {
			t.Errorf("plan %d: recovered plan has a different effect:\n%s\nvs\n%s",
				i, redst.DDL(), dst.DDL())
		}
	}
}
