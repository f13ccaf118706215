package hierstore

import (
	"fmt"
	"runtime"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// TestGNSweepGrowth is the growth curve of a read-only DL/I sweep: GN
// over every EMP of DEPT roots with 16 EMPs each, and GNP over every
// EMP beneath one DEPT. Each call walks from its position through the
// child lists and parent links, so quadrupling the segments costs the
// sweep about 4× the bytes, the record copy each call returns; a call
// that rebuilds the hierarchic sequence (GN) or the parent's subtree
// (GNP) to find its position costs about 16×. Bytes allocated, unlike
// time, do not vary with the machine's load; the best of 3 runs per
// size must grow less than 6×.
func TestGNSweepGrowth(t *testing.T) {
	build := func(depts, perDept int) *DB {
		db := NewDB(schema.EmpDeptHierarchy())
		for d := 0; d < depts; d++ {
			dept, st := db.Insert(0, "DEPT", value.FromPairs("D#", fmt.Sprintf("D%04d", d), "DNAME", "N", "MGR", "M"))
			if st != OK {
				t.Fatalf("insert DEPT: %v", st)
			}
			for e := 0; e < perDept; e++ {
				emp := value.FromPairs("E#", fmt.Sprintf("E%06d", d*perDept+e), "ENAME", "X", "AGE", 30, "YEAR-OF-SERVICE", e)
				if _, st := db.Insert(dept, "EMP", emp); st != OK {
					t.Fatalf("insert EMP: %v", st)
				}
			}
		}
		return db
	}
	for _, tc := range []struct {
		name  string
		sizes [2][2]int // (DEPTs, EMPs per DEPT) at 1× and 4×
		start func(s *Session)
		call  func(s *Session) Status
	}{
		{"GN", [2][2]int{{32, 16}, {128, 16}}, func(s *Session) {},
			func(s *Session) Status { _, st := s.GN(U("EMP")); return st }},
		{"GNP", [2][2]int{{1, 512}, {1, 2048}},
			func(s *Session) {
				if _, st := s.GU(U("DEPT")); st != OK {
					t.Fatalf("GU DEPT: %v", st)
				}
			},
			func(s *Session) Status { _, st := s.GNP(U("EMP")); return st }},
	} {
		var bytes [2]uint64
		for rep := 0; rep < 3; rep++ {
			for i, size := range tc.sizes {
				db := build(size[0], size[1])
				s := NewSession(db)
				tc.start(s)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				n := 0
				for tc.call(s) == OK {
					n++
				}
				runtime.ReadMemStats(&after)
				if n != size[0]*size[1] || s.Status() != GE {
					t.Fatalf("%s swept %d EMPs ending with %v, want %d ending with GE", tc.name, n, s.Status(), size[0]*size[1])
				}
				if b := after.TotalAlloc - before.TotalAlloc; rep == 0 || b < bytes[i] {
					bytes[i] = b
				}
			}
		}
		growth := float64(bytes[1]) / float64(bytes[0])
		t.Logf("%s sweep: bytes %d → %d (%.1f×) for 4× the segments", tc.name, bytes[0], bytes[1], growth)
		if growth >= 6 {
			t.Errorf("%s sweep allocated %.1f× the bytes for 4× the segments, want < 6×", tc.name, growth)
		}
	}
}
