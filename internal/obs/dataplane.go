package obs

// DataPlane aggregates the data-plane fast-path counters of one batch:
// how FIND requests were answered (exact-key index probe vs full scan)
// and how migration steps executed (fused into single passes vs one
// pass per step). It is carried on the conversion Report rather than
// the event stream — the counters are totals, not occurrences, and the
// event wire format is pinned by golden-file tests.
type DataPlane struct {
	IndexProbes   int64 `json:"index_probes"`
	IndexScans    int64 `json:"index_scans"`
	FusedSteps    int64 `json:"fused_steps"`
	StepwiseSteps int64 `json:"stepwise_steps"`
	// MigrationShards counts the shards the sharded rebuild passes
	// fanned out into; BulkLoadedRecords counts records that went
	// through the bulk-load merge phase.
	MigrationShards   int64 `json:"migration_shards"`
	BulkLoadedRecords int64 `json:"bulk_loaded_records"`
}

// Zero reports whether no data-plane activity was recorded.
func (d DataPlane) Zero() bool { return d == DataPlane{} }

// Add returns the element-wise sum.
func (d DataPlane) Add(o DataPlane) DataPlane {
	return DataPlane{
		IndexProbes:       d.IndexProbes + o.IndexProbes,
		IndexScans:        d.IndexScans + o.IndexScans,
		FusedSteps:        d.FusedSteps + o.FusedSteps,
		StepwiseSteps:     d.StepwiseSteps + o.StepwiseSteps,
		MigrationShards:   d.MigrationShards + o.MigrationShards,
		BulkLoadedRecords: d.BulkLoadedRecords + o.BulkLoadedRecords,
	}
}

// AddDataPlane folds a report's data-plane counters into the tally so
// they surface through Snapshot alongside the event-derived families.
func (t *Tally) AddDataPlane(d DataPlane) {
	if t == nil || d.Zero() {
		return
	}
	t.mu.Lock()
	t.dataplane = t.dataplane.Add(d)
	t.mu.Unlock()
}
