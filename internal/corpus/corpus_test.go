package corpus

import (
	"context"
	"strings"
	"testing"

	"progconv/internal/core"
	"progconv/internal/dbprog"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

func TestDatabaseScale(t *testing.T) {
	p := Profile{Seed: 7, Divisions: 3, DeptsPerDiv: 2, EmpsPerDept: 4}
	db := Database(p)
	if db.Count("DIV") != 3 || db.Count("EMP") != 24 {
		t.Errorf("DIV=%d EMP=%d", db.Count("DIV"), db.Count("EMP"))
	}
}

func TestDatabaseDeterministic(t *testing.T) {
	p := Profile{Seed: 7, Divisions: 2, DeptsPerDiv: 2, EmpsPerDept: 2}
	a, b := Database(p), Database(p)
	for _, id := range a.AllOf("EMP") {
		if !a.Data(id).Equal(b.Data(id)) {
			t.Fatal("same seed must give the same database")
		}
	}
}

func TestProgramsParseAndMix(t *testing.T) {
	p := PeriodProfile(42)
	members, err := Programs(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != p.Programs {
		t.Fatalf("got %d programs", len(members))
	}
	counts := map[Kind]int{}
	for _, m := range members {
		counts[m.Kind]++
		if m.Program == nil {
			t.Fatalf("%s did not parse", m.Kind)
		}
	}
	if counts[HazardRTV] != 8 || counts[HazardOrder] != 13 || counts[HazardViewUpdate] != 7 {
		t.Errorf("hazard counts = %v", counts)
	}
	if counts[CleanSweepPinned] == 0 || counts[CleanMaryland] == 0 {
		t.Errorf("clean classes missing: %v", counts)
	}
}

func TestProgramsDeterministic(t *testing.T) {
	a, _ := Programs(PeriodProfile(5))
	b, _ := Programs(PeriodProfile(5))
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Fatal("same seed must give the same corpus")
		}
	}
}

// TestPeriodProfileLandsInPaperBand is EXP-C1's core assertion: the
// default mix converts 65–70% of programs automatically under the strict
// policy, reproducing §2.1.1's reported success rate.
func TestPeriodProfileLandsInPaperBand(t *testing.T) {
	p := PeriodProfile(42)
	members, err := Programs(p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.IntroduceIntermediate{
			Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
			Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		},
	}}
	sup := core.NewSupervisor()
	report, err := sup.Run(context.Background(), schema.CompanyV1(), nil, plan, nil, memberPrograms(members))
	if err != nil {
		t.Fatal(err)
	}
	auto, _, _ := report.Counts()
	rate := float64(auto) / float64(len(members))
	if rate < 0.65 || rate > 0.70 {
		t.Errorf("automatic conversion rate = %.0f%%, want the paper's 65-70%% band", rate*100)
	}
	if !strings.Contains(MixDescription(p), "programs=100") {
		t.Error("MixDescription")
	}
}

// memberPrograms extracts the parsed programs from an inventory.
func memberPrograms(members []Member) []*dbprog.Program {
	out := make([]*dbprog.Program, len(members))
	for i, m := range members {
		out[i] = m.Program
	}
	return out
}
