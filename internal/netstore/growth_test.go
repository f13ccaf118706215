package netstore

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// TestKeyedStoreGrowth is the network data plane's growth curve for
// keyed STORE: seeding COMPANY V1 through Session.Store with 4 DIVs of n
// EMPs each, in key order, as corpus.Database does. Going from n = 500
// to n = 4,000 (2,004 to 16,004 records, 8×) costs about 9–10× when the
// §4.2 duplicate check bisects each DIV-EMP occurrence, and about 64×
// when it scans it. The scan allocates nothing, so only time shows it.
// Each run starts from a collected heap with the collector off, so the
// ratio measures the algorithm rather than the collector's work on a
// heap that grows with n; the best of 3 alternating runs per size then
// stays under 24× on a noisy machine and quadratic code does not.
func TestKeyedStoreGrowth(t *testing.T) {
	run := func(n int) time.Duration {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20)) // a backstop for runaway code
		start := time.Now()
		db := NewDB(schema.CompanyV1())
		s := NewSession(db)
		for d := 0; d < 4; d++ {
			div := value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%d", d), "DIV-LOC", "X")
			if _, st, err := s.Store("DIV", div); err != nil || st != OK {
				t.Fatalf("store DIV: %v %v", st, err)
			}
			for e := 0; e < n; e++ {
				emp := value.FromPairs("EMP-NAME", fmt.Sprintf("E-%05d", e), "DEPT-NAME", "D", "AGE", 30)
				if _, st, err := s.Store("EMP", emp); err != nil || st != OK {
					t.Fatalf("store EMP: %v %v", st, err)
				}
			}
		}
		elapsed := time.Since(start)
		if got := db.Len(); got != 4+4*n {
			t.Fatalf("stored %d records, want %d", got, 4+4*n)
		}
		return elapsed
	}
	var best [2]time.Duration
	for rep := 0; rep < 3; rep++ {
		for i, n := range []int{500, 4000} {
			if d := run(n); rep == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	growth := float64(best[1]) / float64(best[0])
	t.Logf("2,004 → 16,004 records: best time %v → %v (%.1f×)", best[0], best[1], growth)
	if growth >= 24 {
		t.Errorf("best-of-3 keyed STORE time grew %.1f× for 8× the records, want < 24×", growth)
	}
}
