package obs

import (
	"testing"
	"time"
)

func testTally() *Tally {
	tally := NewTally()
	e := NewEmitter(tally)
	e.Outcome("A", "auto", "r")
	e.Outcome("B", "manual", "r")
	e.Outcome("C", "auto", "r")
	e.Hazard("B", "order-dependence", "m")
	e.Rewrite("A", "get", "EMP")
	e.Rewrite("A", "move", "EMP")
	e.Rewrite("C", "get", "EMP")
	e.Verify("A", true, "ok")
	e.Verify("C", false, "diff")
	return tally
}

func TestTallySnapshot(t *testing.T) {
	snap := testTally().Snapshot()
	want := map[string]int64{
		"programs/auto": 2, "programs/manual": 1,
		"hazards/order-dependence": 1,
		"rewrites/get":             2, "rewrites/move": 1,
		"verifications/pass": 1, "verifications/fail": 1,
		// The data-plane totals are always present, zeros included — a
		// scraper must never see keys appear or vanish between samples.
		"dataplane/index_probes": 0, "dataplane/index_scans": 0,
		"dataplane/migration_fused_steps": 0, "dataplane/migration_stepwise_steps": 0,
		"dataplane/migration_shards": 0, "dataplane/bulk_loaded_records": 0,
	}
	for k, n := range want {
		if snap[k] != n {
			t.Errorf("snapshot[%q] = %d, want %d", k, snap[k], n)
		}
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d keys, want %d: %v", len(snap), len(want), snap)
	}
}

// TestTallyFaultCounters: retry/panic/timeout events fold into the
// faults family, surfaced by Faults() and Snapshot().
func TestTallyFaultCounters(t *testing.T) {
	tally := NewTally()
	e := NewEmitter(tally)
	e.Retry("A", "analyze", 1, 50*time.Millisecond, "transient: boom")
	e.Retry("B", "generate", 1, 50*time.Millisecond, "transient: boom")
	e.Panic("C", "convert", "injected")
	e.Timeout("D", "analyze", 25*time.Millisecond)
	e.Timeout("E", "program", time.Second)

	faults := tally.Faults()
	for kind, want := range map[string]int64{"retry": 2, "panic": 1, "timeout": 2} {
		if faults[kind] != want {
			t.Errorf("Faults()[%q] = %d, want %d", kind, faults[kind], want)
		}
	}
	snap := tally.Snapshot()
	if snap["faults/retry"] != 2 || snap["faults/panic"] != 1 || snap["faults/timeout"] != 2 {
		t.Errorf("snapshot faults = %v", snap)
	}
	if (*Tally)(nil).Faults() != nil {
		t.Error("nil tally returned counters")
	}
}
