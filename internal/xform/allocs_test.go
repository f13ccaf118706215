package xform

import (
	"context"
	"testing"
)

// TestMigrateAllocs pins what a migrated record costs in allocations:
// a bulk network migration (the fused four-step plan over a random
// COMPANY population) and the hierarchical reorder (8 DEPT roots of 16
// EMPs each, 256 segments out), both at parallelism 1. A network record
// is shaped once into its destination (the record and its two slices)
// and wired through set links carved from a slab; a segment is read in
// place and copied once, by Insert, into a segment taken from a slab.
// With a set-link map per record, and a clone of every source segment
// ahead of Insert's own copy, they cost 9.85 and 7.31.
func TestMigrateAllocs(t *testing.T) {
	ctx := context.Background()
	opts := MigrateOptions{Parallelism: 1}
	netDB := randomCompanyDB(t, 1)
	netPlan := fourStepFusiblePlan()
	hierDB := seedDeptEmp(t, 8, 16)
	hierPlan := &HierPlan{Steps: []HierReorder{{Promote: "EMP"}}}
	for _, tc := range []struct {
		name string
		want float64
		// migrate runs the migration and returns how many records it
		// stored.
		migrate func() (int, error)
	}{
		{"network", 6.75, func() (int, error) {
			out, _, err := netPlan.Migrate(ctx, netDB, opts)
			if err != nil {
				return 0, err
			}
			return out.Len(), nil
		}},
		{"reorder", 3.3, func() (int, error) {
			out, _, _, err := hierPlan.Migrate(ctx, hierDB, opts)
			if err != nil {
				return 0, err
			}
			return out.Count("EMP") + out.Count("DEPT"), nil
		}},
	} {
		records, err := tc.migrate()
		if err != nil {
			t.Fatal(err)
		}
		perRecord := testing.AllocsPerRun(20, func() { tc.migrate() }) / float64(records)
		if perRecord > tc.want {
			t.Errorf("%s migration allocated %.2f times per migrated record, want at most %.2f",
				tc.name, perRecord, tc.want)
		}
	}
}
