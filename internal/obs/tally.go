package obs

import "sync"

// Tally is a Sink that folds the event stream into counters: programs
// by disposition, hazard findings by kind, DML rewrites by verb,
// verification verdicts, resilience faults (retries, recovered
// panics, expired budgets) by kind, and conversion-cache probes by
// scope. Snapshot is its read side: the expvar debug endpoint serves
// it as is, and internal/telemetry renders it as Prometheus counters.
type Tally struct {
	mu           sync.Mutex
	dispositions map[string]int64
	hazards      map[string]int64
	rewrites     map[string]int64
	verdicts     map[string]int64
	faults       map[string]int64
	cacheHits    map[string]int64
	cacheMisses  map[string]int64
	cacheEvicts  map[string]int64
	// dataplane holds report-level counters folded in via AddDataPlane
	// (not event-derived: reports carry totals, the stream carries
	// occurrences).
	dataplane DataPlane
}

// NewTally returns an empty counter collector.
func NewTally() *Tally {
	return &Tally{
		dispositions: map[string]int64{},
		hazards:      map[string]int64{},
		rewrites:     map[string]int64{},
		verdicts:     map[string]int64{},
		faults:       map[string]int64{},
		cacheHits:    map[string]int64{},
		cacheMisses:  map[string]int64{},
		cacheEvicts:  map[string]int64{},
	}
}

// Emit implements Sink.
func (t *Tally) Emit(ev Event) {
	t.mu.Lock()
	switch ev.Kind {
	case EvOutcome:
		t.dispositions[ev.Label]++
	case EvHazard:
		t.hazards[ev.Label]++
	case EvRewrite:
		t.rewrites[ev.Label]++
	case EvVerify:
		t.verdicts[ev.Label]++
	case EvRetry, EvPanic, EvTimeout:
		t.faults[ev.Kind.String()]++
	case EvCacheHit:
		t.cacheHits[ev.Label]++
	case EvCacheMiss:
		t.cacheMisses[ev.Label]++
	case EvCacheEvict:
		t.cacheEvicts[ev.Label]++
	}
	t.mu.Unlock()
}

// Faults returns the resilience counters keyed by event kind ("retry",
// "panic", "timeout") — the numbers chaos tests reconcile against the
// injected fault plan.
func (t *Tally) Faults() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cloneCounts(t.faults)
}

// Snapshot flattens the counters into "family/label" keys — the shape
// served live by the expvar debug endpoint, and the one
// internal/telemetry maps onto Prometheus counter families.
func (t *Tally) Snapshot() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int64{}
	for _, f := range []struct {
		name string
		m    map[string]int64
	}{
		{"programs", t.dispositions},
		{"hazards", t.hazards},
		{"rewrites", t.rewrites},
		{"verifications", t.verdicts},
		{"faults", t.faults},
		{"cache_hits", t.cacheHits},
		{"cache_misses", t.cacheMisses},
		{"cache_evictions", t.cacheEvicts},
	} {
		for label, n := range f.m {
			out[f.name+"/"+label] = n
		}
	}
	// Data-plane totals are always present — a scraper watching the
	// debug endpoint must never see a key appear or vanish between
	// samples just because activity started or stopped.
	out["dataplane/index_probes"] = t.dataplane.IndexProbes
	out["dataplane/index_scans"] = t.dataplane.IndexScans
	out["dataplane/migration_fused_steps"] = t.dataplane.FusedSteps
	out["dataplane/migration_stepwise_steps"] = t.dataplane.StepwiseSteps
	out["dataplane/migration_shards"] = t.dataplane.MigrationShards
	out["dataplane/bulk_loaded_records"] = t.dataplane.BulkLoadedRecords
	return out
}

func cloneCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
