package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/xform"
)

// fusiblePlanAndTarget returns a four-step plan of per-record mapping
// steps over CompanyV1 and the schema it produces: the steps compose
// into one migration pass.
func fusiblePlanAndTarget(t *testing.T) (*xform.Plan, *schema.Network) {
	t.Helper()
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameRecord{Old: "EMP", New: "EMPLOYEE"},
		xform.RenameField{Record: "DIV", Old: "DIV-LOC", New: "LOCATION"},
		xform.AddField{Record: "EMPLOYEE", Field: "STATUS", Kind: value.String, Default: value.Str("ACTIVE")},
		xform.RenameSet{Old: "DIV-EMP", New: "DIV-EMPLOYEE"},
	}}
	dst := schema.CompanyV1()
	for _, step := range plan.Steps {
		var err error
		if dst, err = step.ApplySchema(dst); err != nil {
			t.Fatal(err)
		}
	}
	return plan, dst
}

// largeCompanyDB bulk-populates CompanyV1 far past the shard threshold,
// so the sharded migration genuinely fans out and has enough work for a
// stage deadline to interrupt.
func largeCompanyDB(t *testing.T, divisions, empsPerDiv int) *netstore.DB {
	t.Helper()
	db := netstore.NewDB(schema.CompanyV1())
	for d := 0; d < divisions; d++ {
		did, err := db.StoreWith("DIV", value.FromPairs(
			"DIV-NAME", fmt.Sprintf("DIV-%03d", d),
			"DIV-LOC", fmt.Sprintf("L%d", d%7)),
			map[string]netstore.RecordID{"ALL-DIV": netstore.OwnerSystem})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < empsPerDiv; e++ {
			if _, err := db.StoreWith("EMP", value.FromPairs(
				"EMP-NAME", fmt.Sprintf("E-%03d-%04d", d, e),
				"DEPT-NAME", fmt.Sprintf("D%d", e%5),
				"AGE", 20+(d+e)%45),
				map[string]netstore.RecordID{"DIV-EMP": did}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestMigrationParallelismDeterministicReports: the rendered report is
// byte-identical whether the data migration runs serial or sharded
// eight ways — MigrationParallelism changes wall-clock, never output —
// and the data-plane counters account for the fan-out.
func TestMigrationParallelismDeterministicReports(t *testing.T) {
	plan, dst := fusiblePlanAndTarget(t)
	db := largeCompanyDB(t, 3, 60) // 183 records: the EMP pass spans shards
	run := func(par int) *Report {
		t.Helper()
		sup := NewSupervisor()
		sup.MigrationParallelism = par
		report, err := sup.Run(context.Background(),
			schema.CompanyV1(), dst, plan, db, applicationSystem(t))
		if err != nil {
			t.Fatal(err)
		}
		return report
	}

	serial := run(1)
	if serial.DataPlane.MigrationShards < 1 || serial.DataPlane.BulkLoadedRecords < 1 {
		t.Fatalf("serial run recorded no migration activity: %+v", serial.DataPlane)
	}
	for _, par := range []int{2, 8} {
		got := run(par)
		if got.String() != serial.String() {
			t.Errorf("report at migration parallelism %d differs from serial:\n%s\nvs\n%s",
				par, got.String(), serial.String())
		}
		if got.DataPlane.BulkLoadedRecords != serial.DataPlane.BulkLoadedRecords {
			t.Errorf("bulk-loaded records at parallelism %d = %d, serial %d",
				par, got.DataPlane.BulkLoadedRecords, serial.DataPlane.BulkLoadedRecords)
		}
		if got.DataPlane.MigrationShards < serial.DataPlane.MigrationShards {
			t.Errorf("shards at parallelism %d = %d, below serial %d",
				par, got.DataPlane.MigrationShards, serial.DataPlane.MigrationShards)
		}
	}
}

// TestMigrationHonorsStageTimeout is the regression test for the
// unbounded-migration bug: with a deadline that cannot possibly cover a
// five-figure record count, the run must fail in the data translation
// stage with the deadline error — for a composed mapping plan and for
// the classified CompanyV1→CompanyV2 pair, whose intermediate step is
// the paper's own migration — at any shard count.
func TestMigrationHonorsStageTimeout(t *testing.T) {
	plan, dst := fusiblePlanAndTarget(t)
	db := largeCompanyDB(t, 40, 300) // 12040 records
	cases := []struct {
		name string
		dst  *schema.Network
		plan *xform.Plan
	}{
		{"mapping-plan", dst, plan},
		{"classified-v1-v2", schema.CompanyV2(), nil},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 8} {
			sup := NewSupervisor()
			sup.MigrationParallelism = par
			sup.StageTimeout = time.Nanosecond
			_, err := sup.Run(context.Background(),
				schema.CompanyV1(), tc.dst, tc.plan, db, applicationSystem(t))
			if err == nil {
				t.Fatalf("%s par %d: migration outran a 1ns stage deadline", tc.name, par)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s par %d: err = %v, want context.DeadlineExceeded in the chain", tc.name, par, err)
			}
			// The deadline must stop the migration itself, not merely the
			// first program stage after it.
			if !strings.HasPrefix(err.Error(), "core: data translation: ") {
				t.Errorf("%s par %d: err = %v, want the data translation stage to fail", tc.name, par, err)
			}
		}
	}
}
