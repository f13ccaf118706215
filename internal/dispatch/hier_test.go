package dispatch

// Mixed-model fleet tests: hierarchical (DL/I) jobs route, run, and
// fail over through the same coordinator as network jobs, with reports
// byte-identical to single-node ground truth.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"progconv/internal/corpus"
	"progconv/internal/leakcheck"
	"progconv/internal/wire"
)

// hierFleetSpec is the corpus.IMSReorder workload as a coordinator
// submission.
func hierFleetSpec(t *testing.T) wire.JobSpec {
	t.Helper()
	entry, err := corpus.IMSReorder()
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.JobSpec{
		V:         wire.Version,
		Model:     wire.ModelHierarchical,
		SourceDDL: entry.Source.DDL(),
		TargetDDL: entry.Target.DDL(),
		Options:   wire.JobOptions{Parallelism: 1},
	}
	for _, m := range entry.Members {
		spec.Programs = append(spec.Programs, wire.ProgramSpec{Source: m.Source})
	}
	return spec
}

// TestHierPairRouting: hierarchical specs produce a routing fingerprint
// (from the hier key domain) that is stable across identical specs, so
// a pair's jobs share a home worker like network pairs do.
func TestHierPairRouting(t *testing.T) {
	a := hierFleetSpec(t)
	b := hierFleetSpec(t)
	pa, err := PairFor(&a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PairFor(&b)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Error("identical hierarchical specs produced distinct routing fingerprints")
	}
	net := fleetSpec(0)
	pn, err := PairFor(&net)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pn {
		t.Error("hierarchical and network pairs share a routing fingerprint")
	}
	// A malformed hierarchy DDL is a routing-time error naming the field.
	bad := hierFleetSpec(t)
	bad.SourceDDL = "HIERARCHY BROKEN"
	if _, err := PairFor(&bad); err == nil {
		t.Error("malformed hierarchy DDL routed without error")
	}
}

// TestMixedModelFleet submits an interleaved network + hierarchical
// batch through a two-worker fleet; every report is byte-identical to
// a standalone daemon running the same spec.
func TestMixedModelFleet(t *testing.T) {
	f := newFleet(t, 2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	specs := []wire.JobSpec{fleetSpec(0), hierFleetSpec(t), fleetSpec(1), hierFleetSpec(t)}
	ids := make([]string, len(specs))
	for i := range specs {
		st, err := f.cli.Submit(ctx, &specs[i])
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		body, status, err := f.cli.WaitReport(ctx, id, 0)
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, id, err)
		}
		direct, directStatus := directReport(t, specs[i])
		if status != directStatus || !bytes.Equal(body, direct) {
			t.Fatalf("job %d: fleet report (HTTP %d, %d bytes) != direct (HTTP %d, %d bytes)\nfleet:  %.200s\ndirect: %.200s",
				i, status, len(body), directStatus, len(direct), body, direct)
		}
	}

	// The routed counters account for the whole batch.
	list, err := f.cli.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var routed int64
	for _, w := range list.Workers {
		routed += w.Routed
	}
	if routed != int64(len(specs)) {
		t.Errorf("routed = %d, want %d", routed, len(specs))
	}
}

// TestHierFailoverDeterminism: a hierarchical job whose home worker
// dies mid-run is re-dispatched and still produces bytes identical to
// the single-node run — the model flows through the failover path.
func TestHierFailoverDeterminism(t *testing.T) {
	leakcheck.Check(t)
	f := newFleet(t, 2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := hierFleetSpec(t)
	spec.Options.Inject = "delay=150ms@*/analyze"
	victim := f.ownerOf(t, spec)

	st, err := f.cli.Submit(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := f.cli.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", st.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.killWorker(t, victim)

	body, status, err := f.cli.WaitReport(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, directStatus := directReport(t, hierFleetSpec(t))
	if status != directStatus || !bytes.Equal(body, direct) {
		t.Fatalf("failover report (HTTP %d) != direct (HTTP %d)\nfleet:  %.300s\ndirect: %.300s",
			status, directStatus, body, direct)
	}
}
