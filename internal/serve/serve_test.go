package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"progconv"
	"progconv/internal/leakcheck"
	"progconv/internal/schema"
	"progconv/internal/wire"
)

const initProgram = `
PROGRAM INIT-DB DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  MOVE 'DETROIT' TO DIV-LOC IN DIV.
  STORE DIV.
  MOVE 'TEXTILES' TO DIV-NAME IN DIV.
  MOVE 'ATLANTA' TO DIV-LOC IN DIV.
  STORE DIV.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  MOVE 'ADAMS' TO EMP-NAME IN EMP.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  MOVE 45 TO AGE IN EMP.
  STORE EMP.
  MOVE 'BAKER' TO EMP-NAME IN EMP.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  MOVE 28 TO AGE IN EMP.
  STORE EMP.
  MOVE 'CLARK' TO EMP-NAME IN EMP.
  MOVE 'WELDING' TO DEPT-NAME IN EMP.
  MOVE 33 TO AGE IN EMP.
  STORE EMP.
  MOVE 'TEXTILES' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  MOVE 'DAVIS' TO EMP-NAME IN EMP.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  MOVE 51 TO AGE IN EMP.
  STORE EMP.
END PROGRAM.
`

var testPrograms = []string{`
PROGRAM LIST-OLD DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO OLD.
  FOR EACH E IN OLD
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
END PROGRAM.
`, `
PROGRAM COUNT-SALES DIALECT NETWORK.
  LET N = 0.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP USING DEPT-NAME.
    IF DB-STATUS = 'OK'
      GET EMP.
      LET N = N + 1.
    END-IF.
  END-PERFORM.
  PRINT 'SALES EMPLOYEES', N.
END PROGRAM.
`, `
PROGRAM ROSTER DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`}

// testSpec is the canonical COMPANY job every test submits.
func testSpec() wire.JobSpec {
	spec := wire.JobSpec{
		V:         wire.Version,
		SourceDDL: schema.CompanyV1().DDL(),
		TargetDDL: schema.CompanyV2().DDL(),
		Options:   wire.JobOptions{Parallelism: 1, VerifyInit: initProgram},
	}
	for _, src := range testPrograms {
		spec.Programs = append(spec.Programs, wire.ProgramSpec{Source: src})
	}
	return spec
}

// newTestServer boots a Server over httptest and registers cleanup:
// close the listener, then drain the runner pool and wait for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Error(err)
		}
	})
	return srv, ts
}

func submit(t *testing.T, base string, spec wire.JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func submitOK(t *testing.T, base string, spec wire.JobSpec) string {
	t.Helper()
	resp := submit(t, base, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: got HTTP %d: %s", resp.StatusCode, b)
	}
	var st wire.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.V != wire.Version || st.ID == "" || st.State != "queued" {
		t.Fatalf("submit status = %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	return st.ID
}

func getStatus(t *testing.T, base, id string) wire.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wire.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job reports an exit code.
func waitTerminal(t *testing.T, base, id string) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.ExitCode != nil {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return wire.JobStatus{}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestSubmitStatusReportEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submitOK(t, ts.URL, testSpec())

	st := waitTerminal(t, ts.URL, id)
	if st.State != "done" || *st.ExitCode != 0 {
		t.Fatalf("terminal status = %+v", st)
	}

	// The listing knows the job.
	code, body := getBody(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || !strings.Contains(string(body), id) {
		t.Fatalf("list: HTTP %d %s", code, body)
	}

	// The report is a wire-v1 document served with the exit-table status.
	code, body = getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: HTTP %d", code)
	}
	if !bytes.HasPrefix(body, []byte("{\n  \"v\": 1,")) {
		t.Fatalf("report does not lead with the wire version: %.60s", body)
	}
	var rep wire.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 3 || rep.Auto+rep.Qualified+rep.Manual+rep.Failed != 3 {
		t.Fatalf("report tallies = %d auto %d qualified %d manual %d failed",
			rep.Auto, rep.Qualified, rep.Manual, rep.Failed)
	}

	// Events replay as NDJSON; every line is versioned.
	code, body = getBody(t, ts.URL+"/v1/jobs/"+id+"/events?omit_timing=1")
	if code != http.StatusOK {
		t.Fatalf("events: HTTP %d", code)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < len(testPrograms) {
		t.Fatalf("only %d event lines", len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `{"v":1,`) {
			t.Fatalf("unversioned event line: %s", ln)
		}
		if strings.Contains(ln, `"t_ns"`) {
			t.Fatalf("omit_timing leaked a timestamp: %s", ln)
		}
	}

	// The same stream over SSE frames each event as a data: line.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events?omit_timing=1", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	for _, ln := range strings.Split(strings.TrimRight(string(sse), "\n"), "\n") {
		if ln != "" && !strings.HasPrefix(ln, "data: ") {
			t.Fatalf("SSE line without data prefix: %s", ln)
		}
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name    string
		breakIt func(*wire.JobSpec)
	}{
		{"missing DDL", func(s *wire.JobSpec) { s.SourceDDL = "" }},
		{"unparsable DDL", func(s *wire.JobSpec) { s.SourceDDL = "SCHEMA NONSENSE" }},
		{"unparsable program", func(s *wire.JobSpec) { s.Programs[0].Source = "NOT A PROGRAM" }},
		{"bad fail_on", func(s *wire.JobSpec) { s.Options.FailOn = "always" }},
		{"bad deadline", func(s *wire.JobSpec) { s.Options.Deadline = "soon" }},
		{"bad verify_init", func(s *wire.JobSpec) { s.Options.VerifyInit = "BROKEN" }},
		{"future version", func(s *wire.JobSpec) { s.V = wire.Version + 1 }},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.breakIt(&spec)
		resp := submit(t, ts.URL, spec)
		var ed wire.ErrorDoc
		json.NewDecoder(resp.Body).Decode(&ed)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
		if ed.V != wire.Version || ed.Error == "" {
			t.Errorf("%s: error doc = %+v", tc.name, ed)
		}
	}

	// Malformed JSON is also a 400, and unknown jobs are 404 everywhere.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: HTTP %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/report", "/v1/jobs/nope/events"} {
		if code, _ := getBody(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, code)
		}
	}
}

func TestFailOnGateMapsToConflict(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := testSpec()
	spec.Options.FailOn = "qualified"
	id := submitOK(t, ts.URL, spec)
	st := waitTerminal(t, ts.URL, id)
	if st.State != "done" || *st.ExitCode != int(wire.ExitFailOn) {
		t.Fatalf("status = %+v, want done with exit %d", st, wire.ExitFailOn)
	}
	if !strings.Contains(st.Error, "fail-on qualified") {
		t.Fatalf("gate message = %q", st.Error)
	}
	// The report still renders — HTTP status carries the gate.
	code, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusConflict || !bytes.HasPrefix(body, []byte("{\n  \"v\": 1,")) {
		t.Fatalf("report: HTTP %d %.60s", code, body)
	}
}

// slowSpec delays every analyze stage so jobs stay in flight long
// enough to observe queue overflow, cancellation and drain.
func slowSpec(delay string) wire.JobSpec {
	spec := testSpec()
	spec.Options.Inject = "delay=" + delay + "@*/analyze"
	return spec
}

func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 1, Runners: 1, RetryAfter: 3 * time.Second})
	var ids []string
	rejected := 0
	for i := 0; i < 8; i++ {
		resp := submit(t, ts.URL, slowSpec("150ms"))
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st wire.JobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			ids = append(ids, st.ID)
		case http.StatusTooManyRequests:
			rejected++
			if ra := resp.Header.Get("Retry-After"); ra != "3" {
				t.Fatalf("Retry-After = %q, want seconds hint \"3\"", ra)
			}
		default:
			t.Fatalf("submission %d: HTTP %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if rejected == 0 {
		t.Fatal("a depth-1 queue admitted 8 concurrent slow jobs without a 429")
	}
	// Everything admitted still completes.
	for _, id := range ids {
		if st := waitTerminal(t, ts.URL, id); st.State != "done" {
			t.Fatalf("admitted job %s ended %q (%s)", id, st.State, st.Error)
		}
	}
}

func TestCancel(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{QueueDepth: 4, Runners: 1})
	running := submitOK(t, ts.URL, slowSpec("400ms"))
	queued := submitOK(t, ts.URL, slowSpec("400ms"))

	// Cancel the queued job before a runner reaches it.
	resp, err := http.Post(ts.URL+"/v1/jobs/"+queued+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Give the first job time to start, then cancel it mid-run.
	for getStatus(t, ts.URL, running).State == "queued" {
		time.Sleep(2 * time.Millisecond)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs/"+running+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if st := waitTerminal(t, ts.URL, running); st.State != "canceled" || *st.ExitCode != int(wire.ExitError) {
		t.Fatalf("running job after cancel = %+v", st)
	}
	st := waitTerminal(t, ts.URL, queued)
	if st.State != "canceled" || !strings.Contains(st.Error, "before the run started") {
		t.Fatalf("queued job after cancel = %+v", st)
	}
	// A canceled job's report endpoint carries the error document.
	code, body := getBody(t, ts.URL+"/v1/jobs/"+queued+"/report")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "before the run started") {
		t.Fatalf("canceled report: HTTP %d %s", code, body)
	}
}

func TestJobDeadline(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	spec := slowSpec("30s")
	spec.Options.Deadline = "50ms"
	id := submitOK(t, ts.URL, spec)
	st := waitTerminal(t, ts.URL, id)
	if st.State != "failed" || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("deadline job = %+v", st)
	}
}

func TestMaxDeadlineClamps(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{MaxDeadline: 50 * time.Millisecond})
	spec := slowSpec("30s")
	spec.Options.Deadline = "1h"
	id := submitOK(t, ts.URL, spec)
	st := waitTerminal(t, ts.URL, id)
	if st.State != "failed" || !strings.Contains(st.Error, "deadline 50ms") {
		t.Fatalf("clamped job = %+v", st)
	}
}

func TestGracefulDrain(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, Config{Runners: 1})
	slow := submitOK(t, ts.URL, slowSpec("100ms"))
	quick := submitOK(t, ts.URL, testSpec())

	srv.StartDrain()

	// New submissions bounce with 503; readiness flips; liveness stays.
	resp := submit(t, ts.URL, testSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d", resp.StatusCode)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: HTTP %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining: HTTP %d", code)
	}

	// The admitted jobs run to completion before the pool exits.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{slow, quick} {
		st := getStatus(t, ts.URL, id)
		if st.State != "done" {
			t.Fatalf("job %s after drain: %+v", id, st)
		}
	}
	// Reports stay readable after the drain.
	if code, _ := getBody(t, ts.URL+"/v1/jobs/"+quick+"/report"); code != http.StatusOK {
		t.Fatalf("report after drain: HTTP %d", code)
	}
	// Metrics exported something for the finished jobs.
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "progconv_programs_total") {
		t.Fatalf("metrics: HTTP %d %.80s", code, body)
	}
}

func TestCacheSharedAcrossJobs(t *testing.T) {
	cache := progconv.NewCache(0)
	_, ts := newTestServer(t, Config{Cache: cache})
	a := submitOK(t, ts.URL, testSpec())
	waitTerminal(t, ts.URL, a)
	b := submitOK(t, ts.URL, testSpec())
	waitTerminal(t, ts.URL, b)
	stats := cache.Stats()
	if stats.PairHits == 0 {
		t.Fatalf("second identical job did not hit the pair cache: %+v", stats)
	}
	_, bodyA := getBody(t, ts.URL+"/v1/jobs/"+a+"/report")
	_, bodyB := getBody(t, ts.URL+"/v1/jobs/"+b+"/report")
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("cache hit changed the report bytes")
	}
}
