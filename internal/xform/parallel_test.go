package xform

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// dumpDB renders a database canonically — schema DDL, every occurrence
// (virtuals resolved) in ID order, every set occurrence's member list —
// so two migrations can be compared byte for byte.
func dumpDB(db *netstore.DB) string {
	var b strings.Builder
	sch := db.Schema()
	b.WriteString(sch.DDL())
	for _, r := range sch.Records {
		fmt.Fprintf(&b, "== %s ==\n", r.Name)
		for _, id := range db.AllOf(r.Name) {
			fmt.Fprintf(&b, "#%d %s\n", id, db.Data(id).String())
		}
	}
	for _, s := range sch.Sets {
		fmt.Fprintf(&b, "set %s\n", s.Name)
		owners := []netstore.RecordID{netstore.OwnerSystem}
		if !s.IsSystem() {
			owners = db.AllOf(s.Owner)
		}
		for _, o := range owners {
			fmt.Fprintf(&b, "  %d -> %v\n", o, db.Members(s.Name, o))
		}
	}
	return b.String()
}

// errString renders an error for comparison, nil as "".
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fourStepFusiblePlan is the benchmark/byte-identity fixture: four
// per-record mapping steps that compose into one pass.
func fourStepFusiblePlan() *Plan {
	return &Plan{Steps: []Transformation{
		RenameRecord{Old: "EMP", New: "EMPLOYEE"},
		RenameField{Record: "DIV", Old: "DIV-LOC", New: "LOCATION"},
		AddField{Record: "EMPLOYEE", Field: "STATUS", Kind: value.String, Default: value.Str("ACTIVE")},
		RenameSet{Old: "DIV-EMP", New: "DIV-EMPLOYEE"},
	}}
}

// figure44to42 collapses the Figure 4.4 chain back into DIV-EMP.
func figure44to42() CollapseIntermediate {
	return CollapseIntermediate{Upper: "DIV-DEPT", Lower: "DEPT-EMP", GroupField: "DEPT-NAME", NewSet: "DIV-EMP"}
}

// randomCompanyDB builds a seeded random CompanyV1 population with a
// MANUAL/OPTIONAL DIV-EMP set, so a third of the employees float free
// of any set occurrence — the memberships must map (or vanish)
// identically across migration paths.
func randomCompanyDB(t *testing.T, seed int64) *netstore.DB {
	t.Helper()
	base := schema.CompanyV1()
	base.Set("DIV-EMP").Insertion = schema.Manual
	base.Set("DIV-EMP").Retention = schema.Optional
	rng := rand.New(rand.NewSource(seed))
	db := netstore.NewDB(base.Clone())
	s := netstore.NewSession(db)
	nDiv := 3 + rng.Intn(4)
	for d := 0; d < nDiv; d++ {
		s.Store("DIV", value.FromPairs(
			"DIV-NAME", fmt.Sprintf("DIV-%02d", d),
			"DIV-LOC", fmt.Sprintf("L%d", rng.Intn(4))))
	}
	nEmp := 100 + rng.Intn(120)
	for e := 0; e < nEmp; e++ {
		s.Store("EMP", value.FromPairs(
			"EMP-NAME", fmt.Sprintf("E-%04d", e),
			"DEPT-NAME", fmt.Sprintf("D%d", rng.Intn(5)),
			"AGE", 20+rng.Intn(45)))
		if rng.Intn(3) > 0 {
			s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%02d", rng.Intn(nDiv))))
			s.FindAny("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", e)))
			s.Connect("DIV-EMP")
		}
	}
	return db
}

// randomCompanyV2DB builds a seeded random Figure 4.4 population: DEPT
// occurrences appear interleaved with the employees, so intermediate and
// member IDs mix, and a third of the employees belong to no DEPT.
func randomCompanyV2DB(t *testing.T, seed int64) *netstore.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := netstore.NewDB(schema.CompanyV2())
	store := func(typ string, rec *value.Record, memberships map[string]netstore.RecordID) netstore.RecordID {
		t.Helper()
		id, err := db.StoreWith(typ, rec, memberships)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var divs, depts []netstore.RecordID
	nDiv := 3 + rng.Intn(4)
	for d := 0; d < nDiv; d++ {
		divs = append(divs, store("DIV", value.FromPairs(
			"DIV-NAME", fmt.Sprintf("DIV-%02d", d),
			"DIV-LOC", fmt.Sprintf("L%d", rng.Intn(4))),
			map[string]netstore.RecordID{"ALL-DIV": netstore.OwnerSystem}))
	}
	deptsOf := make([]int, nDiv)
	nEmp := 100 + rng.Intn(120)
	for e := 0; e < nEmp; e++ {
		if len(depts) == 0 || rng.Intn(8) == 0 {
			d := rng.Intn(nDiv)
			depts = append(depts, store("DEPT", value.FromPairs("DEPT-NAME", fmt.Sprintf("D%d", deptsOf[d])),
				map[string]netstore.RecordID{"DIV-DEPT": divs[d]}))
			deptsOf[d]++
		}
		memberships := map[string]netstore.RecordID{}
		if rng.Intn(3) > 0 {
			memberships["DEPT-EMP"] = depts[rng.Intn(len(depts))]
		}
		store("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", e), "AGE", 20+rng.Intn(45)), memberships)
	}
	return db
}

// migrateCase is one randomized-plan template: a plan and the random
// population it runs over.
type migrateCase struct {
	plan *Plan
	db   func(t *testing.T, seed int64) *netstore.DB
}

// planTemplates is the randomized-plan pool: all-composable runs, a
// mixed plan around the paper's flagship structural step, a collapse
// and an introduce-then-collapse round trip, and a lossy plan with
// drops — every per-record shape the rebuild engine must handle.
func planTemplates() map[string]migrateCase {
	return map[string]migrateCase{
		"fused-run": {fourStepFusiblePlan(), randomCompanyDB},
		"mixed-structural": {&Plan{Steps: []Transformation{
			RenameField{Record: "DIV", Old: "DIV-LOC", New: "LOCATION"},
			AddField{Record: "DIV", Field: "REGION", Kind: value.String, Default: value.Str("NA")},
			figure42to44(),
			RenameRecord{Old: "EMP", New: "EMPLOYEE"},
		}}, randomCompanyDB},
		"collapse":           {&Plan{Steps: []Transformation{figure44to42()}}, randomCompanyV2DB},
		"introduce-collapse": {&Plan{Steps: []Transformation{figure42to44(), figure44to42()}}, randomCompanyDB},
		"lossy-drops": {&Plan{Steps: []Transformation{
			DropField{Record: "EMP", Field: "AGE"},
			RenameSet{Old: "DIV-EMP", New: "STAFF"},
			AddField{Record: "EMP", Field: "GRADE", Kind: value.Int, Default: value.Of(1)},
		}}, randomCompanyDB},
		"lone-step": {&Plan{Steps: []Transformation{
			RenameRecord{Old: "EMP", New: "WORKER"},
		}}, randomCompanyDB},
	}
}

// TestParallelMigrateByteIdentical is the property test: randomized
// databases × randomized plans × shard counts {1, 2, 8}, with Migrate
// compared byte for byte — record IDs, set orderings, index buckets,
// index counters, error text, pass accounting — against the serial
// oracle, and the oracle's composed passes against one pass per step.
func TestParallelMigrateByteIdentical(t *testing.T) {
	for name, tc := range planTemplates() {
		p := tc.plan
		for _, seed := range []int64{41, 42, 43} {
			src := tc.db(t, seed)
			want, wantStats, wantErr := oracleFused(p, src)
			stepwise, stepErr := oracleStepwise(p, src)
			if wantErr != nil || stepErr != nil {
				t.Fatalf("%s seed %d oracle: %v / stepwise: %v", name, seed, wantErr, stepErr)
			}
			wantDump, wantIdx := dumpDB(want), want.IndexDump()
			if d := dumpDB(stepwise); d != wantDump {
				t.Fatalf("%s seed %d: composed passes diverge from one pass per step:\n--- composed ---\n%s\n--- stepwise ---\n%s",
					name, seed, wantDump, d)
			}
			wantProbes, wantScans := want.IndexStatsOf().Snapshot()
			for _, par := range []int{1, 2, 8} {
				got, stats, err := p.Migrate(context.Background(), src, MigrateOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("%s seed %d par %d: %v", name, seed, par, err)
				}
				if d := dumpDB(got); d != wantDump {
					t.Fatalf("%s seed %d par %d: database diverges from the oracle:\n--- engine ---\n%s\n--- oracle ---\n%s",
						name, seed, par, d, wantDump)
				}
				if ix := got.IndexDump(); ix != wantIdx {
					t.Fatalf("%s seed %d par %d: indexes diverge:\n--- engine ---\n%s\n--- oracle ---\n%s",
						name, seed, par, ix, wantIdx)
				}
				if p, s := got.IndexStatsOf().Snapshot(); p != wantProbes || s != wantScans {
					t.Errorf("%s seed %d par %d: index stats (%d, %d), want (%d, %d)",
						name, seed, par, p, s, wantProbes, wantScans)
				}
				if stats.FusedSteps != wantStats.FusedSteps || stats.StepwiseSteps != wantStats.StepwiseSteps ||
					stats.Passes != wantStats.Passes {
					t.Errorf("%s seed %d par %d: pass stats %+v, oracle %+v", name, seed, par, stats, wantStats)
				}
				if stats.Shards < 1 {
					t.Errorf("%s seed %d par %d: stats.Shards = %d", name, seed, par, stats.Shards)
				}
				// The last pass alone loads every record of the result.
				if stats.BulkRecords < got.Len() {
					t.Errorf("%s seed %d par %d: stats.BulkRecords = %d, below %d", name, seed, par, stats.BulkRecords, got.Len())
				}
				if name == "mixed-structural" {
					// Runs of mapping steps compose; the structural step and
					// the trailing run of one each take their own pass.
					if stats.FusedSteps != 2 || stats.StepwiseSteps != 2 || stats.Passes != 3 {
						t.Errorf("mixed plan stats = %+v, want 2 fused, 2 stepwise, 3 passes", stats)
					}
				}
			}
		}
	}
}

// TestParallelMigrateShardStats pins the shard accounting: a type with
// over minShardRecords records fans out when parallelism allows, and
// the bulk-record counter equals the records the rebuild passes stored.
func TestParallelMigrateShardStats(t *testing.T) {
	src := randomCompanyDB(t, 44) // >= 100 EMPs: enough for 2+ shards
	p := fourStepFusiblePlan()

	_, serialStats, err := p.Migrate(context.Background(), src, MigrateOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, parStats, err := p.Migrate(context.Background(), src, MigrateOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	// One pass, two types: serial runs one shard per type.
	if serialStats.Shards != 2 {
		t.Errorf("serial Shards = %d, want 2", serialStats.Shards)
	}
	if parStats.Shards <= serialStats.Shards {
		t.Errorf("parallel Shards = %d, want > %d", parStats.Shards, serialStats.Shards)
	}
	if parStats.BulkRecords != out.Len() || parStats.BulkRecords != serialStats.BulkRecords {
		t.Errorf("BulkRecords = %d (serial %d), want %d",
			parStats.BulkRecords, serialStats.BulkRecords, out.Len())
	}
	if parStats.FusedSteps != 4 || parStats.Passes != 1 {
		t.Errorf("pass stats = %+v, want 4 fused steps in 1 pass", parStats)
	}
}

// TestParallelMigrateErrorParity: a store-time failure surfaces the
// identical error string at every shard count, serial oracle included —
// a default whose kind contradicts the declared field kind inside a
// composed run, and a collapse whose intermediate has no owner.
func TestParallelMigrateErrorParity(t *testing.T) {
	orphaned := randomCompanyV2DB(t, 45)
	dept, err := orphaned.StoreWith("DEPT", value.FromPairs("DEPT-NAME", "ORPHAN"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orphaned.StoreWith("EMP", value.FromPairs("EMP-NAME", "E-9999", "AGE", 30),
		map[string]netstore.RecordID{"DEPT-EMP": dept}); err != nil {
		t.Fatal(err)
	}
	cases := map[string]migrateCase{
		"bad-default": {&Plan{Steps: []Transformation{
			RenameRecord{Old: "EMP", New: "EMPLOYEE"},
			AddField{Record: "EMPLOYEE", Field: "BAD", Kind: value.Int, Default: value.Str("oops")},
		}}, randomCompanyDB},
		"orphaned-intermediate": {&Plan{Steps: []Transformation{figure44to42()}},
			func(*testing.T, int64) *netstore.DB { return orphaned }},
	}
	for name, tc := range cases {
		src := tc.db(t, 45)
		_, _, serr := oracleFused(tc.plan, src)
		if serr == nil {
			t.Fatalf("%s: oracle did not fail", name)
		}
		for _, par := range []int{1, 2, 8} {
			_, _, err := tc.plan.Migrate(context.Background(), src, MigrateOptions{Parallelism: par})
			if errString(err) != serr.Error() {
				t.Errorf("%s par %d error diverges:\nengine: %v\noracle: %v", name, par, err, serr)
			}
		}
	}
}

// TestParallelMigrateContextCanceled: shard workers and the splice poll
// the context; a canceled context aborts every pass shape — a composed
// run, an intermediate introduction, a collapse — with the cause intact.
func TestParallelMigrateContextCanceled(t *testing.T) {
	cases := map[string]migrateCase{
		"fused-run": {fourStepFusiblePlan(), randomCompanyDB},
		"introduce": {&Plan{Steps: []Transformation{figure42to44()}}, randomCompanyDB},
		"collapse":  {&Plan{Steps: []Transformation{figure44to42()}}, randomCompanyV2DB},
	}
	for name, tc := range cases {
		src := tc.db(t, 46)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, par := range []int{1, 4} {
			_, _, err := tc.plan.Migrate(ctx, src, MigrateOptions{Parallelism: par})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s par %d: err = %v, want context.Canceled", name, par, err)
			}
		}
	}
}

// TestParallelHierMigrate: the sharded hierarchical migration matches
// the serial oracle byte for byte — hierarchic sequence and advisory
// warnings — at every shard count, and the identity plan still clones.
func TestParallelHierMigrate(t *testing.T) {
	src := personnelHierDB(t)
	plan := &HierPlan{Steps: []HierReorder{{Promote: "EMP"}}}

	want, wantWarnings, err := oracleHierPlan(plan, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		got, warnings, stats, err := plan.Migrate(context.Background(), src, MigrateOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if got.DumpSequence() != want.DumpSequence() {
			t.Fatalf("par %d: sequence diverges:\n--- engine ---\n%s\n--- oracle ---\n%s",
				par, got.DumpSequence(), want.DumpSequence())
		}
		if strings.Join(warnings, "|") != strings.Join(wantWarnings, "|") {
			t.Errorf("par %d: warnings = %v, want %v", par, warnings, wantWarnings)
		}
		if stats.Shards < 1 || stats.StepwiseSteps != 1 || stats.Passes != 1 {
			t.Errorf("par %d: stats = %+v", par, stats)
		}
	}

	identity := &HierPlan{}
	same, _, _, err := identity.Migrate(context.Background(), src, MigrateOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if same == src {
		t.Error("identity migration aliases the source database")
	}
	if same.DumpSequence() != src.DumpSequence() {
		t.Error("identity migration altered the database")
	}
}

// TestParallelHierMigrateContextCanceled mirrors the network test for
// the hierarchical path.
func TestParallelHierMigrateContextCanceled(t *testing.T) {
	src := personnelHierDB(t)
	plan := &HierPlan{Steps: []HierReorder{{Promote: "EMP"}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := plan.Migrate(ctx, src, MigrateOptions{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
