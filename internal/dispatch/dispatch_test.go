package dispatch

// Coordinator tests: transparent proxying (a client cannot tell the
// coordinator from a standalone daemon), pair-affinity routing, the
// health-checked registry, and the PR's headline invariant — a worker
// killed mid-batch changes nothing about the bytes callers receive.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"progconv/client"
	"progconv/internal/leakcheck"
	"progconv/internal/serve"
	"progconv/internal/wire"
)

func TestCoordinatorProxiesTransparently(t *testing.T) {
	f := newFleet(t, 2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := fleetSpec(0)
	st, err := f.cli.Submit(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "c-") {
		t.Fatalf("coordinator job ID = %q, want c- prefix", st.ID)
	}
	body, status, err := f.cli.WaitReport(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, directStatus := directReport(t, fleetSpec(0))
	if status != directStatus || !bytes.Equal(body, direct) {
		t.Fatalf("coordinator report (HTTP %d, %d bytes) != standalone report (HTTP %d, %d bytes)",
			status, len(body), directStatus, len(direct))
	}

	// The terminal status carries the exit code and survives the report
	// being frozen.
	final, err := f.cli.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.ExitCode == nil || *final.ExitCode != 0 {
		t.Fatalf("final status = %+v", final)
	}

	// The event stream proxies through with deterministic bytes.
	stream, err := f.cli.Events(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	lines := 0
	sc := bufio.NewScanner(stream)
	for sc.Scan() {
		lines++
	}
	if lines == 0 || sc.Err() != nil {
		t.Fatalf("events: %d lines, err %v", lines, sc.Err())
	}

	// The trace proxies too.
	if trace, err := f.cli.Trace(ctx, st.ID, true); err != nil || len(trace) == 0 {
		t.Fatalf("trace: %d bytes, err %v", len(trace), err)
	}
}

func TestPairAffinityRouting(t *testing.T) {
	f := newFleet(t, 3, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Three jobs of one pair must all land on that pair's home worker.
	home := f.ownerOf(t, fleetSpec(1))
	var ids []string
	for i := 0; i < 3; i++ {
		spec := fleetSpec(1)
		st, err := f.cli.Submit(ctx, &spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if _, err := f.cli.Wait(ctx, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	list, err := f.cli.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range list.Workers {
		want := int64(0)
		if doc.URL == f.workers[home].URL {
			want = 3
		}
		if doc.Routed != want {
			t.Fatalf("worker %s routed=%d, want %d (home=%s)",
				doc.URL, doc.Routed, want, f.workers[home].URL)
		}
	}

	// Distinct pairs spread: with 8 pairs over 3 workers at least two
	// workers see traffic (the rendezvous spread test pins this harder
	// at the unit level).
	for i := 2; i < 10; i++ {
		spec := fleetSpec(i)
		st, err := f.cli.Submit(ctx, &spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if _, err := f.cli.Wait(ctx, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	list, err = f.cli.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, doc := range list.Workers {
		if doc.Routed > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("8 distinct pairs all routed to %d worker(s)", busy)
	}
}

// The failover-determinism criterion: kill a worker while its jobs are
// mid-batch; the re-dispatched jobs' reports must be byte-identical to
// a direct single-node run — at parallelism 1 and at parallelism 8.
func TestFailoverDeterminism(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		t.Run("parallel="+itoa(parallel), func(t *testing.T) {
			leakcheck.Check(t)
			f := newFleet(t, 2, Config{})
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()

			// Build a batch whose pads cover both workers, slow enough
			// that the kill lands mid-run.
			specs := make([]wire.JobSpec, 6)
			victimOwned := -1
			for i := range specs {
				specs[i] = slowFleetSpec(i, "150ms")
				specs[i].Options.Parallelism = parallel
				if victimOwned == -1 && f.ownerOf(t, specs[i]) == 0 {
					victimOwned = i
				}
			}
			if victimOwned == -1 {
				t.Skip("no pad in range routes to worker 0; rendezvous degenerate")
			}

			ids := make([]string, len(specs))
			for i := range specs {
				st, err := f.cli.Submit(ctx, &specs[i])
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = st.ID
			}

			// Wait until the victim's job is actually running over
			// there, then pull the plug.
			deadline := time.Now().Add(10 * time.Second)
			for {
				st, err := f.cli.Status(ctx, ids[victimOwned])
				if err != nil {
					t.Fatal(err)
				}
				if st.State == "running" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s never started on the victim worker", ids[victimOwned])
				}
				time.Sleep(5 * time.Millisecond)
			}
			f.killWorker(t, 0)

			// Every job still completes, and every report matches the
			// single-node ground truth byte for byte.
			for i, id := range ids {
				body, status, err := f.cli.WaitReport(ctx, id, 0)
				if err != nil {
					t.Fatalf("job %d (%s): %v", i, id, err)
				}
				direct, directStatus := directReport(t, specs[i])
				if status != directStatus || !bytes.Equal(body, direct) {
					t.Fatalf("job %d: failover report (HTTP %d, %d bytes) != direct (HTTP %d, %d bytes)",
						i, status, len(body), directStatus, len(direct))
				}
			}

			// The kill is visible in the registry: the dead worker is
			// quarantined with failovers recorded.
			list, err := f.cli.Workers(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var dead *wire.WorkerDoc
			for i := range list.Workers {
				if list.Workers[i].URL == f.workers[0].URL {
					dead = &list.Workers[i]
				}
			}
			if dead == nil || dead.State != "quarantined" {
				t.Fatalf("victim worker doc = %+v", dead)
			}
		})
	}
}

func TestCoordinatorListPaginates(t *testing.T) {
	f := newFleet(t, 2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var ids []string
	for i := 0; i < 5; i++ {
		spec := fleetSpec(i % 2)
		st, err := f.cli.Submit(ctx, &spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if _, err := f.cli.Wait(ctx, id, 0); err != nil {
			t.Fatal(err)
		}
	}

	var got []string
	token := ""
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination never terminated")
		}
		page, err := f.cli.List(ctx, client.ListOptions{Limit: 2, PageToken: token})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range page.Jobs {
			got = append(got, st.ID)
		}
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if len(got) != len(ids) {
		t.Fatalf("paged listing returned %d jobs, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("page order[%d] = %s, want %s", i, got[i], ids[i])
		}
	}

	// State filtering works through the proxy.
	page, err := f.cli.List(ctx, client.ListOptions{State: "done"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 5 {
		t.Fatalf("state=done listed %d, want 5", len(page.Jobs))
	}
}

func TestCoordinatorErrorCodesAndDrain(t *testing.T) {
	leakcheck.Check(t)
	f := newFleet(t, 1, Config{RetryAfter: 2 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Unknown job: 404 not_found.
	_, err := f.cli.Status(ctx, "c-999999")
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != wire.CodeNotFound {
		t.Fatalf("unknown job error = %v", err)
	}

	// Malformed spec: 400 bad_spec (the coordinator validates before
	// routing, so a bad job never burns a worker round-trip).
	bad := fleetSpec(0)
	bad.SourceDDL = "NOT DDL"
	if _, err := f.cli.Submit(ctx, &bad); !asAPIError(err, &apiErr) ||
		apiErr.Status != http.StatusBadRequest || apiErr.Code != wire.CodeBadSpec {
		t.Fatalf("bad spec error = %v", err)
	}

	// Draining: 503 + draining code; /readyz flips; status still works.
	f.co.StartDrain()
	spec := fleetSpec(0)
	noRetry := client.New(f.ts.URL, client.WithRetries(0, 0))
	if _, err := noRetry.Submit(ctx, &spec); !asAPIError(err, &apiErr) ||
		apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != wire.CodeDraining {
		t.Fatalf("draining error = %v", err)
	}
	if code := getJSON(t, f.ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: HTTP %d", code)
	}
}

func TestNoHealthyWorker(t *testing.T) {
	f := newFleet(t, 1, Config{RetryAfter: 1 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	f.killWorker(t, 0)
	spec := fleetSpec(0)
	noRetry := client.New(f.ts.URL, client.WithRetries(0, 0))
	_, err := noRetry.Submit(ctx, &spec)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != wire.CodeNoWorker {
		t.Fatalf("no-worker error = %v", err)
	}
	// An empty fleet is not ready.
	if code := getJSON(t, f.ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: HTTP %d", code)
	}
	// And the phantom submission does not linger in the listing.
	page, err := f.cli.List(ctx, client.ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 0 {
		t.Fatalf("rejected submission left %d jobs listed", len(page.Jobs))
	}
}

func TestRegistryRegisterAndReadmit(t *testing.T) {
	f := newFleet(t, 1, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Grow the fleet at runtime.
	extra := newExtraWorker(t)
	doc, err := f.cli.RegisterWorker(ctx, extra.URL)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != "healthy" {
		t.Fatalf("registered worker state = %q", doc.State)
	}
	list, err := f.cli.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 2 {
		t.Fatalf("registry has %d workers, want 2", len(list.Workers))
	}

	// Kill the original worker; jobs still run on the new one.
	f.killWorker(t, 0)
	spec := fleetSpec(0)
	st, err := f.cli.Submit(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.cli.WaitReport(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}

	// Probing a live worker re-admits nothing it shouldn't: the extra
	// worker stays healthy, the dead one stays quarantined.
	f.co.ProbeOnce(ctx)
	list, err = f.cli.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range list.Workers {
		wantState := "healthy"
		if w.URL == f.workers[0].URL {
			wantState = "quarantined"
		}
		if w.State != wantState {
			t.Fatalf("worker %s state = %q, want %q", w.URL, w.State, wantState)
		}
	}

	// A malformed registration is rejected with a code.
	resp, err := http.Post(f.ts.URL+"/v1/workers", "application/json",
		strings.NewReader(`{"v":1,"url":"not-a-url"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad registration: HTTP %d", resp.StatusCode)
	}
}

// newExtraWorker boots one more worker outside the fleet helper.
func newExtraWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{QueueDepth: 64, Runners: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainWorker(t, srv)
	})
	return ts
}

func asAPIError(err error, target **client.APIError) bool {
	return errors.As(err, target)
}
