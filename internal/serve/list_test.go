package serve

// Tests for the API-hardening surface: cursor pagination and state
// filters on GET /v1/jobs, the machine-readable error codes every
// non-2xx body carries, and the Retry-After hint on 503 drain
// responses (mirroring the 429 queue-full path).

import (
	"encoding/json"
	"net/http"
	"testing"

	"progconv/internal/wire"
)

func getList(t *testing.T, url string) wire.JobList {
	t.Helper()
	code, body := getBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("list %s: HTTP %d %s", url, code, body)
	}
	var doc wire.JobList
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("list %s: %v", url, err)
	}
	if doc.V != wire.Version {
		t.Fatalf("list version = %d", doc.V)
	}
	return doc
}

func errorDoc(t *testing.T, body []byte) wire.ErrorDoc {
	t.Helper()
	var doc wire.ErrorDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("error body %s: %v", body, err)
	}
	return doc
}

func TestListPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, Runners: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, submitOK(t, ts.URL, testSpec()))
	}
	for _, id := range ids {
		waitTerminal(t, ts.URL, id)
	}

	// Page through with limit=2: 2+2+1 in submission order, then no
	// token on the final page.
	var got []string
	url := ts.URL + "/v1/jobs?limit=2"
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination never terminated")
		}
		doc := getList(t, url)
		for _, st := range doc.Jobs {
			got = append(got, st.ID)
		}
		if doc.NextPageToken == "" {
			break
		}
		if len(doc.Jobs) != 2 {
			t.Fatalf("non-final page had %d jobs", len(doc.Jobs))
		}
		url = ts.URL + "/v1/jobs?limit=2&page_token=" + doc.NextPageToken
	}
	if len(got) != len(ids) {
		t.Fatalf("paged listing returned %d jobs, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("page order[%d] = %s, want %s (submission order)", i, got[i], ids[i])
		}
	}

	// The state filter partitions the listing.
	if doc := getList(t, ts.URL+"/v1/jobs?state=done"); len(doc.Jobs) != 5 {
		t.Fatalf("state=done listed %d jobs, want 5", len(doc.Jobs))
	}
	if doc := getList(t, ts.URL+"/v1/jobs?state=failed"); len(doc.Jobs) != 0 {
		t.Fatalf("state=failed listed %d jobs, want 0", len(doc.Jobs))
	}

	// Malformed query parameters are usage errors with a code.
	for _, q := range []string{"?limit=0", "?limit=x", "?state=bogus", "?page_token=@@"} {
		code, body := getBody(t, ts.URL+"/v1/jobs"+q)
		if code != http.StatusBadRequest {
			t.Fatalf("list %s: HTTP %d", q, code)
		}
		if doc := errorDoc(t, body); doc.Code != wire.CodeBadSpec {
			t.Fatalf("list %s: code = %q, want %q", q, doc.Code, wire.CodeBadSpec)
		}
	}
}

func TestErrorCodes(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueDepth: 1, Runners: 1})

	// 400 bad_spec on a malformed submission.
	resp := submit(t, ts.URL, wire.JobSpec{})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: HTTP %d", resp.StatusCode)
	}
	if doc := errorDoc(t, body); doc.Code != wire.CodeBadSpec {
		t.Fatalf("bad spec code = %q", doc.Code)
	}

	// 404 not_found on an unknown job.
	code, b := getBody(t, ts.URL+"/v1/jobs/j-999999")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", code)
	}
	if doc := errorDoc(t, b); doc.Code != wire.CodeNotFound {
		t.Fatalf("unknown job code = %q", doc.Code)
	}

	// Fill the queue; the 429 carries queue_full.
	sawQueueFull := false
	for i := 0; i < 8 && !sawQueueFull; i++ {
		resp := submit(t, ts.URL, slowSpec("150ms"))
		b := readAll(t, resp)
		if resp.StatusCode == http.StatusTooManyRequests {
			sawQueueFull = true
			if doc := errorDoc(t, b); doc.Code != wire.CodeQueueFull {
				t.Fatalf("queue-full code = %q", doc.Code)
			}
		}
	}
	if !sawQueueFull {
		t.Fatal("never saw a 429 from a depth-1 queue")
	}

	// Draining: 503 with the draining code AND the same Retry-After
	// hint the 429 path sends — a drain is usually a rolling restart,
	// so the client should know when to come back.
	srv.StartDrain()
	resp = submit(t, ts.URL, testSpec())
	b = readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain submit: HTTP %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("drain Retry-After = %q, want \"1\"", ra)
	}
	if doc := errorDoc(t, b); doc.Code != wire.CodeDraining {
		t.Fatalf("drain code = %q", doc.Code)
	}
}

func TestTerminalStatusCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 4, Runners: 1})

	// A deadline kill is classified distinctly from a cancel.
	spec := slowSpec("30s")
	spec.Options.Deadline = "50ms"
	dead := submitOK(t, ts.URL, spec)
	if st := waitTerminal(t, ts.URL, dead); st.State != "failed" {
		t.Fatalf("deadline job = %+v", st)
	}
	code, b := getBody(t, ts.URL+"/v1/jobs/"+dead+"/report")
	if code != http.StatusInternalServerError {
		t.Fatalf("deadline report: HTTP %d", code)
	}
	if doc := errorDoc(t, b); doc.Code != wire.CodeDeadline {
		t.Fatalf("deadline report code = %q, want %q", doc.Code, wire.CodeDeadline)
	}

	// A canceled job's report carries the canceled code.
	canceled := submitOK(t, ts.URL, slowSpec("400ms"))
	resp, err := http.Post(ts.URL+"/v1/jobs/"+canceled+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitTerminal(t, ts.URL, canceled); st.State != "canceled" {
		t.Fatalf("canceled job = %+v", st)
	}
	code, b = getBody(t, ts.URL+"/v1/jobs/"+canceled+"/report")
	if code != http.StatusInternalServerError {
		t.Fatalf("canceled report: HTTP %d", code)
	}
	if doc := errorDoc(t, b); doc.Code != wire.CodeCanceled {
		t.Fatalf("canceled report code = %q, want %q", doc.Code, wire.CodeCanceled)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b := make([]byte, 0, 512)
	buf := make([]byte, 512)
	for {
		n, err := resp.Body.Read(buf)
		b = append(b, buf[:n]...)
		if err != nil {
			return b
		}
	}
}
