package serve

// Tests for the telemetry plane: traceparent propagation, the trace
// endpoint, the extended /metrics exposition, /statusz, and mid-run
// scrapes racing a live job.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"progconv"
	"progconv/internal/telemetry"
	"progconv/internal/telemetry/promlint"
	"progconv/internal/wire"
)

// submitWithHeader posts a spec with extra request headers and returns
// the response.
func submitWithHeader(t *testing.T, base string, spec wire.JobSpec, headers map[string]string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getTrace(t *testing.T, base, id string) wire.TraceDoc {
	t.Helper()
	code, body := getBody(t, base+"/v1/jobs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace endpoint: HTTP %d: %s", code, body)
	}
	var doc wire.TraceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, body)
	}
	return doc
}

// TestTraceparentPropagation is the ISSUE's propagation acceptance
// criterion: a submission carrying a W3C traceparent yields a job whose
// trace continues the caller's trace ID, records the caller's span as
// the remote parent, and has at least one span per pipeline stage.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	inbound := "00-" + callerTrace + "-" + callerSpan + "-01"

	resp := submitWithHeader(t, ts.URL, testSpec(), map[string]string{"traceparent": inbound})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// The response traceparent continues the caller's trace and names
	// the job's root span.
	echo := resp.Header.Get("traceparent")
	echoT, echoS, err := telemetry.ParseTraceparent(echo)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", echo, err)
	}
	if echoT.String() != callerTrace {
		t.Errorf("response trace ID = %s, want %s", echoT, callerTrace)
	}
	var st wire.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != callerTrace {
		t.Errorf("status trace_id = %q, want %q", st.TraceID, callerTrace)
	}

	done := waitTerminal(t, ts.URL, st.ID)
	if done.State != "done" {
		t.Fatalf("job state = %q, error %q", done.State, done.Error)
	}
	if done.TraceID != callerTrace {
		t.Errorf("terminal status trace_id = %q, want %q", done.TraceID, callerTrace)
	}

	doc := getTrace(t, ts.URL, st.ID)
	if doc.V != wire.Version {
		t.Errorf("trace doc v = %d, want %d", doc.V, wire.Version)
	}
	if doc.TraceID != callerTrace {
		t.Errorf("trace doc trace_id = %q, want %q", doc.TraceID, callerTrace)
	}
	if doc.RemoteParentID != callerSpan {
		t.Errorf("remote_parent_id = %q, want %q", doc.RemoteParentID, callerSpan)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	root := doc.Spans[0]
	if root.Kind != "job" || root.ParentID != callerSpan {
		t.Errorf("root = %+v, want a job span parented to the caller", root)
	}
	if root.ID != echoS.String() {
		t.Errorf("root span %s, but response traceparent named %s", root.ID, echoS)
	}
	// At least one stage attempt per pipeline stage, and a queue-wait
	// phase.
	byStage := map[string]int{}
	phases := 0
	for _, sp := range doc.Spans {
		if sp.Kind == "stage" {
			byStage[sp.Stage]++
		}
		if sp.Kind == "phase" && sp.Name == "queue-wait" {
			phases++
		}
	}
	for _, stage := range []string{"analyze", "convert", "optimize", "generate", "verify"} {
		if byStage[stage] == 0 {
			t.Errorf("no %s stage span in trace; got %v", stage, byStage)
		}
	}
	if phases != 1 {
		t.Errorf("queue-wait phases = %d, want 1", phases)
	}
	// Every program of the spec has a program span.
	progs := map[string]bool{}
	for _, sp := range doc.Spans {
		if sp.Kind == "program" {
			progs[sp.Name] = true
		}
	}
	for _, name := range []string{"LIST-OLD", "COUNT-SALES", "ROSTER"} {
		if !progs[name] {
			t.Errorf("no program span for %s; got %v", name, progs)
		}
	}
}

// TestTraceWithoutTraceparent: no inbound header still yields a trace,
// with a deterministic content-derived trace ID and no remote parent.
func TestTraceWithoutTraceparent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submitOK(t, ts.URL, testSpec())
	waitTerminal(t, ts.URL, id)

	doc := getTrace(t, ts.URL, id)
	if doc.TraceID == "" || doc.TraceID == strings.Repeat("0", 32) {
		t.Fatalf("trace_id = %q, want a non-zero derived ID", doc.TraceID)
	}
	if doc.RemoteParentID != "" {
		t.Errorf("remote_parent_id = %q, want empty without an inbound header", doc.RemoteParentID)
	}
	// A malformed header is ignored, not an error.
	resp := submitWithHeader(t, ts.URL, testSpec(), map[string]string{"traceparent": "garbage"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with malformed traceparent: HTTP %d", resp.StatusCode)
	}
	var st wire.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	if st.TraceID == doc.TraceID {
		t.Error("same spec resubmitted got the same trace ID; submission index must differentiate")
	}
	if _, _, err := telemetry.ParseTraceparent(resp.Header.Get("traceparent")); err != nil {
		t.Errorf("response traceparent invalid: %v", err)
	}

	// Unknown job: 404.
	code, _ := getBody(t, ts.URL+"/v1/jobs/j-999999/trace")
	if code != http.StatusNotFound {
		t.Errorf("unknown job trace = HTTP %d, want 404", code)
	}
}

// TestTraceOmitTimingDeterministic: the ?omit_timing=1 rendering is
// byte-identical across parallelism 1 and 8 — the trace-side analogue
// of the events endpoint's determinism guarantee.
func TestTraceOmitTimingDeterministic(t *testing.T) {
	run := func(parallelism int) []byte {
		_, ts := newTestServer(t, Config{})
		spec := testSpec()
		spec.Options.Parallelism = parallelism
		// Pin the trace ID so the two runs derive identical span IDs.
		resp := submitWithHeader(t, ts.URL, spec, map[string]string{
			"traceparent": "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		})
		defer resp.Body.Close()
		var st wire.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, ts.URL, st.ID)
		code, body := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace?omit_timing=1")
		if code != http.StatusOK {
			t.Fatalf("trace: HTTP %d", code)
		}
		return body
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("omit_timing trace differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if strings.Contains(string(serial), "start_ns") || strings.Contains(string(serial), "dur_ns") {
		t.Error("omit_timing output still carries wall-clock fields")
	}
}

// TestMetricsAndStatusz: the daemon's /metrics serves the four
// histogram families plus gauges alongside the tally counters, and
// /statusz renders the human snapshot.
func TestMetricsAndStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{Cache: newTestCache()})
	id := submitOK(t, ts.URL, testSpec())
	waitTerminal(t, ts.URL, id)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	out := string(body)
	for _, want := range []string{
		// Tally counter families.
		"progconv_programs_total",
		// Data-plane counters export even before/without traffic.
		"progconv_index_probes_total",
		// The four histogram families with deterministic buckets.
		`progconv_queue_wait_seconds_bucket{le="1e-06"}`,
		`progconv_job_duration_seconds_bucket{le="+Inf"} 1`,
		`progconv_stage_latency_seconds_bucket{stage="analyze",le="1e-06"}`,
		`progconv_dataplane_probe_count_bucket{op="probe",le="1"}`,
		// Gauges.
		"progconv_queue_depth",
		"progconv_inflight_jobs",
		"progconv_jobs_total 1",
		"progconv_cache_entries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if n := strings.Count(out, " histogram\n"); n < 4 {
		t.Errorf("/metrics histogram families = %d, want >= 4\n%s", n, out)
	}

	code, body = getBody(t, ts.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz: HTTP %d", code)
	}
	for _, want := range []string{"== server ==", "== cache ==", "== histograms ==", "admitted", "progconv_job_duration_seconds"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/statusz missing %q:\n%s", want, body)
		}
	}
}

// TestScrapeMidRun hammers /metrics and the trace endpoint while a
// delayed job is converting — the serve-layer half of satellite 3.
func TestScrapeMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Runners: 1})
	spec := testSpec()
	spec.Options.Parallelism = 2
	spec.Options.Inject = "delay=30ms@*/analyze"
	id := submitOK(t, ts.URL, spec)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{"/metrics", "/v1/jobs/" + id + "/trace", "/v1/jobs/" + id + "/trace?omit_timing=1", "/statusz"}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				code, body := getBody(t, ts.URL+paths[(i+n)%len(paths)])
				if code != http.StatusOK {
					t.Errorf("mid-run scrape: HTTP %d: %s", code, body)
					return
				}
			}
		}(i)
	}
	st := waitTerminal(t, ts.URL, id)
	close(stop)
	wg.Wait()
	if st.State != "done" {
		t.Fatalf("job state = %q, error %q", st.State, st.Error)
	}
	// After the run the trace is complete and internally consistent.
	doc := getTrace(t, ts.URL, id)
	ids := map[string]bool{}
	for _, sp := range doc.Spans {
		ids[sp.ID] = true
	}
	for i, sp := range doc.Spans {
		if i == 0 {
			continue
		}
		if sp.ParentID != "" && sp.ParentID != doc.RemoteParentID && !ids[sp.ParentID] {
			t.Errorf("span %s has dangling parent %s", sp.ID, sp.ParentID)
		}
	}
}

// TestTraceBuiltOnReadMatchesEagerBuilder: the daemon keeps no span
// tree; it folds the job's retained events when /trace is read. At
// parallelism 8 that fold serves exactly the omit-timing bytes an
// eager builder installed on the same conversion at parallelism 1
// holds.
func TestTraceBuiltOnReadMatchesEagerBuilder(t *testing.T) {
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, remote, err := progconv.ParseTraceparent(inbound)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	spec := testSpec()
	spec.Options.Parallelism = 8
	resp := submitWithHeader(t, ts.URL, spec, map[string]string{"traceparent": inbound})
	var st wire.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, ts.URL, st.ID); done.State != "done" {
		t.Fatalf("job ended %q: %s", done.State, done.Error)
	}
	code, served := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace?omit_timing=1")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}

	b := progconv.NewTraceBuilder(tid, st.ID)
	b.SetRemoteParent(remote)
	b.Phase("queue-wait", 0, 0)
	directRun(t, 1, progconv.WithMetrics(), progconv.WithTraceSink(b))
	var want bytes.Buffer
	if err := progconv.EncodeTraceJSON(&want, b.Snapshot(), true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), served) {
		t.Errorf("trace folded on read differs from the eager builder's:\n--- eager ---\n%s\n--- served ---\n%s",
			want.Bytes(), served)
	}
}

// TestMetricsExpositionFormat lints the daemon's /metrics after a job
// and pins its families and their order: the event tally's counters,
// the four histograms, then the gauges.
func TestMetricsExpositionFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	waitTerminal(t, ts.URL, submitOK(t, ts.URL, testSpec()))
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, err := range promlint.Lint(string(body)) {
		t.Error(err)
	}
	var families []string
	for _, line := range strings.Split(string(body), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(name)[0])
		}
	}
	want := []string{
		"progconv_programs_total", "progconv_hazards_total", "progconv_dml_rewrites_total",
		"progconv_verifications_total", "progconv_faults_total", "progconv_cache_hits_total",
		"progconv_cache_misses_total", "progconv_cache_evictions_total",
		"progconv_index_probes_total", "progconv_index_scans_total",
		"progconv_migration_fused_steps_total", "progconv_migration_stepwise_steps_total",
		"progconv_migration_shards_total", "progconv_bulk_loaded_records_total",
		"progconv_queue_wait_seconds", "progconv_job_duration_seconds",
		"progconv_stage_latency_seconds", "progconv_dataplane_probe_count",
		"progconv_queue_depth", "progconv_inflight_jobs", "progconv_jobs_total",
		"progconv_cache_entries",
	}
	if strings.Join(families, " ") != strings.Join(want, " ") {
		t.Errorf("/metrics families = %v\nwant %v", families, want)
	}
}

// newTestCache builds a small conversion cache for gauge coverage.
func newTestCache() *progconv.Cache { return progconv.NewCache(4) }
