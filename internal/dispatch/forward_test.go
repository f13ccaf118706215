package dispatch

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"progconv/internal/schema"
	"progconv/internal/wire"
)

// stubWorker accepts every submission and records its body; each job
// stays running forever.
type stubWorker struct {
	ts     *httptest.Server
	mu     sync.Mutex
	bodies [][]byte
}

func newStubWorker(t *testing.T) *stubWorker {
	w := &stubWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(rw http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		w.mu.Lock()
		w.bodies = append(w.bodies, body)
		w.mu.Unlock()
		wire.WriteJSON(rw, http.StatusAccepted, wire.JobStatus{V: wire.Version, ID: "w-1", State: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(rw, http.StatusOK, wire.JobStatus{V: wire.Version, ID: r.PathValue("id"), State: "running"})
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) { io.WriteString(rw, "ready\n") })
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

func (w *stubWorker) received() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.bodies...)
}

// TestCoordinatorForwardsBodyVerbatim: a worker receives the bytes the
// caller submitted, unknown fields, folded keys, whitespace and
// trailing bytes included, both on first dispatch and when failover
// re-dispatches the job to the next-ranked worker.
func TestCoordinatorForwardsBodyVerbatim(t *testing.T) {
	workers := []*stubWorker{newStubWorker(t), newStubWorker(t)}
	co := New(Config{Workers: []string{workers[0].ts.URL, workers[1].ts.URL}, ProbeInterval: -1, ProbeFailures: 1})
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() { ts.Close(); co.Close() })

	quote := strconv.Quote
	body := []byte("\r\n {\t\"V\" :1,\"SOURCE_DDL\":" + quote(schema.CompanyV1().DDL()) +
		" , \"target_ddl\"\n:" + quote(schema.CompanyV2().DDL()) +
		",\"x-unknown\":{\"nested\":[1,2.5e3,null,\"\\u00e9\"]},\n\"programs\":[{\"source\":" + quote(fleetPrograms[1]) +
		",\"note\":true}],\"options\":{\"Parallelism\":1}}  trailing")
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	home := 0
	if len(workers[1].received()) > 0 {
		home = 1
	}
	first := workers[home].received()
	if len(first) != 1 || !bytes.Equal(first[0], body) {
		t.Fatalf("the home worker received %q, want the submitted bytes %q", first, body)
	}

	// The home worker dies; the probe quarantines it and fails its job
	// over to the other worker, which must receive the same bytes.
	workers[home].ts.CloseClientConnections()
	workers[home].ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	co.ProbeOnce(ctx)
	again := workers[1-home].received()
	if len(again) != 1 || !bytes.Equal(again[0], body) {
		t.Fatalf("failover delivered %q, want the submitted bytes %q", again, body)
	}
}

// TestReportContentLength: the coordinator serves a report it froze
// with the report's Content-Length, as the worker did.
func TestReportContentLength(t *testing.T) {
	f := newFleet(t, 1, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := fleetSpec(0)
	st, err := f.cli.Submit(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := f.cli.WaitReport(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !strings.HasPrefix(string(got), "{") {
		t.Fatalf("report bytes differ between reads")
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
		t.Fatalf("Content-Length %q for a %d-byte report", cl, len(got))
	}
}
