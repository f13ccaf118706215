package xform

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"progconv/internal/hierstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// seedDeptEmp builds a PERSONNEL hierarchy of depts DEPT roots with
// perDept EMP children each, every EMP inserted through ISRT under a
// qualified parent path, as a DL/I load program would.
func seedDeptEmp(t *testing.T, depts, perDept int) *hierstore.DB {
	t.Helper()
	db := hierstore.NewDB(schema.EmpDeptHierarchy())
	s := hierstore.NewSession(db)
	for d := 0; d < depts; d++ {
		dno := fmt.Sprintf("D%d", d)
		isrt(t, s, value.FromPairs("D#", dno, "DNAME", "N"+dno, "MGR", "M"+dno), hierstore.U("DEPT"))
		for e := 0; e < perDept; e++ {
			isrt(t, s, value.FromPairs("E#", fmt.Sprintf("E%d", d*perDept+e), "ENAME", "X",
				"AGE", 20+e, "YEAR-OF-SERVICE", e), underDept(dno), hierstore.U("EMP"))
		}
	}
	return db
}

// TestHierSeedAndMigrateGrowth is the hierarchical data plane's growth
// curve: seeding a DEPT × 32 EMP hierarchy through ISRT and reordering
// it with HierPlan.Migrate must cost near-linear time and bytes.
// Quadrupling the hierarchy from 1,056 to 4,224 segments costs about 4×
// when parent paths are found by descent and the splice places segments
// by ID; whole-sequence scans per insert cost about 16×. Each run starts
// from a collected heap with the collector off, so the time measures the
// algorithm rather than the collector's work on a heap that grows with
// the input. The bounds — under 5× in bytes allocated, under 8× in
// best-of-3 time — leave room for a noisy machine while still failing
// quadratic code.
func TestHierSeedAndMigrateGrowth(t *testing.T) {
	plan := &HierPlan{Steps: []HierReorder{{Promote: "EMP"}}}
	// run seeds and migrates once, returning the bytes allocated and the
	// time taken.
	run := func(depts int) (uint64, time.Duration) {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20)) // a backstop for runaway code
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		db := seedDeptEmp(t, depts, 32)
		out, _, _, err := plan.Migrate(context.Background(), db, MigrateOptions{Parallelism: 1})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := out.Count("EMP") + out.Count("DEPT"); n != depts*64 {
			t.Fatalf("migrated %d segments, want %d", n, depts*64)
		}
		return after.TotalAlloc - before.TotalAlloc, elapsed
	}
	// The two sizes alternate, so a burst of load on a shared machine
	// lands on both rather than on one size's every repetition.
	var bytes [2]uint64
	var best [2]time.Duration
	for rep := 0; rep < 3; rep++ {
		for i, depts := range []int{32, 128} { // 1,056 and 4,224 segments
			b, d := run(depts)
			if rep == 0 || b < bytes[i] {
				bytes[i] = b
			}
			if rep == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	byteGrowth := float64(bytes[1]) / float64(bytes[0])
	timeGrowth := float64(best[1]) / float64(best[0])
	t.Logf("1,056 → 4,224 segments: bytes %d → %d (%.1f×), best time %v → %v (%.1f×)",
		bytes[0], bytes[1], byteGrowth, best[0], best[1], timeGrowth)
	if byteGrowth >= 5 {
		t.Errorf("bytes allocated grew %.1f× for 4× the segments, want < 5×", byteGrowth)
	}
	if timeGrowth >= 8 {
		t.Errorf("best-of-3 time grew %.1f× for 4× the segments, want < 8×", timeGrowth)
	}
}
