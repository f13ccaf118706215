package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"progconv"
	"progconv/internal/schema"
	"progconv/internal/serve"
)

const testProgram = `
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
`

func testSpec() *progconv.JobSpec {
	return &progconv.JobSpec{
		V:         progconv.WireVersion,
		SourceDDL: schema.CompanyV1().DDL(),
		TargetDDL: schema.CompanyV2().DDL(),
		Programs:  []progconv.ProgramSpec{{Source: testProgram}},
		Options:   progconv.JobOptions{Parallelism: 1},
	}
}

func newDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{QueueDepth: 16, Runners: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.StartDrain()
	})
	return ts
}

func TestSubmitWaitReport(t *testing.T) {
	ts := newDaemon(t)
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != "queued" {
		t.Fatalf("submit status = %+v", st)
	}

	// Report before the job finishes is ErrNotFinished, not an error
	// document (the job may already be done on a fast machine, so only
	// assert the classification when it fires).
	if _, _, err := c.Report(ctx, st.ID); err != nil && err != ErrNotFinished {
		t.Fatalf("early report: %v", err)
	}

	body, status, err := c.WaitReport(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("report HTTP %d", status)
	}
	// The SDK's bytes are exactly what raw HTTP serves.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, raw) {
		t.Fatalf("SDK report (%d bytes) != raw HTTP report (%d bytes)", len(body), len(raw))
	}

	// Terminal status, events and trace all decode.
	final, err := c.Status(ctx, st.ID)
	if err != nil || final.State != "done" {
		t.Fatalf("status = %+v, %v", final, err)
	}
	stream, err := c.Events(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := io.ReadAll(stream)
	stream.Close()
	if len(lines) == 0 {
		t.Fatal("events stream was empty")
	}
	if trace, err := c.Trace(ctx, st.ID, true); err != nil || len(trace) == 0 {
		t.Fatalf("trace: %d bytes, %v", len(trace), err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}
}

func TestListPagination(t *testing.T) {
	ts := newDaemon(t)
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var ids []string
	for i := 0; i < 5; i++ {
		st, err := c.Submit(ctx, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if _, err := c.Wait(ctx, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	token := ""
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination never terminated")
		}
		page, err := c.List(ctx, ListOptions{Limit: 2, PageToken: token})
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
	if len(got) != 5 {
		t.Fatalf("paged %d jobs, want 5", len(got))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("order[%d] = %s, want %s", i, got[i], ids[i])
		}
	}
	if page, err := c.List(ctx, ListOptions{State: "failed"}); err != nil || len(page.Jobs) != 0 {
		t.Fatalf("state=failed: %d jobs, %v", len(page.Jobs), err)
	}
}

func TestTraceparentPropagation(t *testing.T) {
	ts := newDaemon(t)
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	c := New(ts.URL, WithTraceparent(inbound))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace_id = %q, want the propagated one", st.TraceID)
	}
}

func TestAPIErrorCodes(t *testing.T) {
	ts := newDaemon(t)
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	_, err := c.Status(ctx, "j-999999")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusNotFound || apiErr.Code != progconv.CodeNotFound {
		t.Fatalf("unknown job error = %#v", err)
	}

	bad := testSpec()
	bad.Programs = nil
	if _, err := c.Submit(ctx, bad); err == nil {
		t.Fatal("empty inventory was accepted")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Code != progconv.CodeBadSpec {
		t.Fatalf("bad spec error = %#v", err)
	}
}

// The retry loop retries 429/503, waits at least the server's
// Retry-After hint, and surfaces the last error when attempts run out.
func TestRetriesHonorRetryAfter(t *testing.T) {
	var calls int
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"v":1,"code":"queue_full","error":"queue is full"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"v":1,"id":"j-000001","state":"queued"}`)
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	var pauses []time.Duration
	c := New(ts.URL, WithRetries(3, time.Millisecond))
	c.sleep = func(ctx context.Context, d time.Duration) error {
		pauses = append(pauses, d)
		return nil
	}
	st, err := c.Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j-000001" || calls != 3 {
		t.Fatalf("status = %+v after %d calls", st, calls)
	}
	for i, p := range pauses {
		if p < 7*time.Second {
			t.Fatalf("pause %d = %v, shorter than the Retry-After hint", i, p)
		}
	}

	// With retries exhausted the typed error comes back.
	calls = 0
	exhausted := New(ts.URL, WithRetries(1, time.Millisecond))
	exhausted.sleep = func(context.Context, time.Duration) error { return nil }
	// Two rejections beat one retry.
	_, err = exhausted.Submit(context.Background(), testSpec())
	if apiErr, ok := err.(*APIError); !ok || apiErr.Code != progconv.CodeQueueFull {
		t.Fatalf("exhausted retries error = %#v", err)
	}
}

func TestCancelAndErrorReport(t *testing.T) {
	ts := newDaemon(t)
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := testSpec()
	spec.Options.Inject = "delay=400ms@*/analyze"
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "canceled" {
		t.Fatalf("state after cancel = %q", final.State)
	}
	// A canceled job's report is a typed error, not report bytes.
	_, _, err = c.Report(ctx, st.ID)
	if apiErr, ok := err.(*APIError); !ok || apiErr.Code != progconv.CodeCanceled {
		t.Fatalf("canceled report error = %#v", err)
	}
}

func TestListDecode(t *testing.T) {
	// The SDK decodes JobList wire documents exactly.
	doc := progconv.JobList{V: 1, NextPageToken: "o2"}
	b, _ := json.Marshal(doc)
	var back progconv.JobList
	if err := json.Unmarshal(b, &back); err != nil || back.NextPageToken != "o2" {
		t.Fatalf("round-trip: %+v, %v", back, err)
	}
}

// TestReportContentLength: Report reads a body of declared length
// into one buffer, reads a chunked body whole, and fails on a body
// shorter than its Content-Length rather than return it truncated.
func TestReportContentLength(t *testing.T) {
	report := []byte("{\n  \"v\": 1,\n  \"outcomes\": []\n}\n")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/sized/report", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(report)))
		w.Write(report)
	})
	mux.HandleFunc("GET /v1/jobs/chunked/report", func(w http.ResponseWriter, r *http.Request) {
		w.Write(report[:5])
		w.(http.Flusher).Flush() // no length yet: the response goes chunked
		w.Write(report[5:])
	})
	mux.HandleFunc("GET /v1/jobs/short/report", func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(report))
		buf.Write(report[:len(report)-3])
		buf.Flush()
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL, WithRetries(0, 0))
	ctx := context.Background()

	for _, id := range []string{"sized", "chunked"} {
		body, status, err := c.Report(ctx, id)
		if err != nil || status != http.StatusOK || !bytes.Equal(body, report) {
			t.Errorf("%s: %q, HTTP %d, %v", id, body, status, err)
		}
	}
	if body, _, err := c.Report(ctx, "short"); err == nil {
		t.Errorf("a short body read as %q with no error", body)
	}
}
