package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/netstore"
	"progconv/internal/plancache"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

// addDivProgram stores a division, finds it again and prints it. It
// converts automatically under COMPANY V1→V2, and because it writes,
// its verification must run on private clones of the job's databases.
const addDivProgram = `
PROGRAM ADD-DIV DIALECT NETWORK.
  MOVE 'NEWDIV' TO DIV-NAME IN DIV.
  MOVE 'RENO' TO DIV-LOC IN DIV.
  STORE DIV.
  MOVE 'NEWDIV' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  IF DB-STATUS = 'OK'
    GET DIV.
    PRINT DIV-NAME IN DIV, DIV-LOC IN DIV.
  ELSE
    PRINT 'NO SUCH DIVISION'.
  END-IF.
END PROGRAM.
`

// netDump renders a network database through its public surface: every
// occurrence with its stored fields and set memberships, every set
// occurrence's member order, and the index contents.
func netDump(db *netstore.DB) string {
	var b strings.Builder
	sch := db.Schema()
	for _, rt := range sch.Records {
		db.EachOf(rt.Name, func(id netstore.RecordID) bool {
			fmt.Fprintf(&b, "#%d %s %s", id, rt.Name, db.StoredData(id))
			for _, set := range sch.SetsWithMember(rt.Name) {
				if owner, ok := db.OwnerOf(set.Name, id); ok {
					fmt.Fprintf(&b, " %s<-%d", set.Name, owner)
				}
			}
			b.WriteByte('\n')
			return true
		})
	}
	for _, set := range sch.Sets {
		if set.IsSystem() {
			fmt.Fprintf(&b, "%s: %v\n", set.Name, db.SystemMembers(set.Name))
			continue
		}
		db.EachOf(set.Owner, func(owner netstore.RecordID) bool {
			fmt.Fprintf(&b, "%s[%d]: %v\n", set.Name, owner, db.Members(set.Name, owner))
			return true
		})
	}
	return b.String() + db.IndexDump()
}

// TestSharedVerificationConcurrent runs one two-model batch whose
// read-only verifications all share the job's databases through views,
// at parallelism 8 for both the worker pool and the migration shards,
// beside a writer that must verify on clones. The report matches the
// serial run byte for byte, the writer verifies equal, and after both
// runs the source databases and the migrated ones are exactly what a
// fresh migration of the untouched source yields.
func TestSharedVerificationConcurrent(t *testing.T) {
	prof := corpus.PeriodProfile(1)
	members, err := corpus.Programs(prof)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*dbprog.Program{parse(t, addDivProgram)}
	for _, m := range members {
		progs = append(progs, m.Program)
	}
	entry := imsEntry(t)
	netDB, hierDB := corpus.Database(prof), entry.Seed()
	netBefore, hierBefore := netDump(netDB), hierDB.DumpSequence()

	run := func(par int) []*Report {
		t.Helper()
		sup := NewSupervisor()
		sup.Parallelism = par
		sup.MigrationParallelism = par
		reports, err := sup.RunJobs(context.Background(), []Job{
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(), DB: netDB}, Programs: progs},
			{Spec: HierSpec{Src: entry.Source, Dst: entry.Target, DB: hierDB}, Programs: entry.Programs()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	serial := run(1)
	reports := run(8)
	for i := range reports {
		if got, want := reports[i].String(), serial[i].String(); got != want {
			t.Errorf("%s report at parallelism 8 differs from parallelism 1:\n%s\nvs\n%s", reports[i].Model, got, want)
		}
	}

	readers, writers := 0, 0
	for _, r := range reports {
		for _, o := range r.Outcomes {
			if o.Disposition != Auto {
				continue
			}
			if o.Verified == nil || !o.Verified.Equal {
				t.Errorf("%s: automatic but not verified equal: %+v", o.Name, o.Verified)
				continue
			}
			if dbprog.Writes(o.Converted) {
				writers++
				// On a view the STORE would have aborted the run; the
				// division it found again proves both runs had clones.
				if got := o.Verified.Source.String(); !strings.Contains(got, "NEWDIV RENO") {
					t.Errorf("%s: the writer did not see its own STORE:\n%s", o.Name, got)
				}
			} else {
				readers++
			}
		}
	}
	if readers < 16 || writers != 1 {
		t.Errorf("batch verified %d read-only and %d writing programs, want >= 16 and 1", readers, writers)
	}

	if got := netDump(netDB); got != netBefore {
		t.Errorf("network source database changed:\n%s\nvs\n%s", got, netBefore)
	}
	if got := hierDB.DumpSequence(); got != hierBefore {
		t.Errorf("hierarchical source database changed:\n%s\nvs\n%s", got, hierBefore)
	}
	netPair, err := plancache.BuildPair(schema.CompanyV1(), schema.CompanyV2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	freshNet, _, err := netPair.Plan.Migrate(context.Background(), netDB, xform.MigrateOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	hierPair, err := plancache.BuildHierPair(entry.Source, entry.Target, nil)
	if err != nil {
		t.Fatal(err)
	}
	freshHier, _, _, err := hierPair.Plan.Migrate(context.Background(), hierDB, xform.MigrateOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range [][]*Report{serial, reports} {
		if got, want := netDump(rs[0].TargetDB), netDump(freshNet); got != want {
			t.Errorf("migrated network database changed by verification:\n%s\nvs\n%s", got, want)
		}
		if got, want := rs[1].TargetHierDB.DumpSequence(), freshHier.DumpSequence(); got != want {
			t.Errorf("migrated hierarchical database changed by verification:\n%s\nvs\n%s", got, want)
		}
	}
}
