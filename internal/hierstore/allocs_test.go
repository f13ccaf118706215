package hierstore

import (
	"fmt"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// TestInsertAndCloneAllocs pins what a segment costs the table. Insert
// allocates the shaped copy of its record (the record and its two
// slices), and takes the segment, its parent's child-list headers and
// the first slot of its twin list from slabs. Clone allocates each
// segment's record copy and a fixed number of tables beside them (18
// here: the schema, the ID table, and one slab each for segments,
// child-list headers and child IDs). With a segment struct of its own
// and a child map per parent, Insert cost 5.68 allocations per segment
// and Clone 343 beside the record copies.
func TestInsertAndCloneAllocs(t *testing.T) {
	const depts = 64 // each with one EMP: 128 segments
	recs := make([]*value.Record, 0, 2*depts)
	for d := 0; d < depts; d++ {
		recs = append(recs,
			value.FromPairs("D#", fmt.Sprintf("D%03d", d), "DNAME", "N", "MGR", "M"),
			value.FromPairs("E#", fmt.Sprintf("E%03d", d), "ENAME", "X", "AGE", 30, "YEAR-OF-SERVICE", 1))
	}
	h := schema.EmpDeptHierarchy()
	var db *DB
	build := func() {
		db = NewDB(h)
		for i := 0; i < len(recs); i += 2 {
			dept, _ := db.Insert(0, "DEPT", recs[i])
			db.Insert(dept, "EMP", recs[i+1])
		}
	}
	build()
	if got := db.Count("DEPT") + db.Count("EMP"); got != 2*depts {
		t.Fatalf("built %d segments, want %d", got, 2*depts)
	}
	if n := testing.AllocsPerRun(20, build) / (2 * depts); n > 3.3 {
		t.Errorf("Insert allocated %.2f times per segment, want at most 3.3", n)
	}
	if n := testing.AllocsPerRun(20, func() { db.Clone() }) - 3*2*depts; n > 20 {
		t.Errorf("Clone allocated %.0f times beside its 3 per segment record copies, want at most 20", n)
	}
}
