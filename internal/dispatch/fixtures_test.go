package dispatch

// Shared fleet-test fixtures: COMPANY job specs (with a PAD-field
// mutation to manufacture distinct schema pairs, so affinity routing
// has something to spread), and an in-process fleet of httptest
// workers behind one coordinator.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"progconv/client"
	"progconv/internal/schema"
	"progconv/internal/serve"
	"progconv/internal/wire"
)

var fleetPrograms = []string{`
PROGRAM LIST-OLD DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO OLD.
  FOR EACH E IN OLD
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
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

// fleetSpec is the canonical COMPANY job. pad > 0 inserts a PAD-<n>
// field into both schemas, producing a distinct (but still
// classifiable) schema pair per pad value — distinct pair
// fingerprints, hence distinct rendezvous rankings.
func fleetSpec(pad int) wire.JobSpec {
	spec := wire.JobSpec{
		V:         wire.Version,
		SourceDDL: padDDL(schema.CompanyV1().DDL(), pad),
		TargetDDL: padDDL(schema.CompanyV2().DDL(), pad),
		Options:   wire.JobOptions{Parallelism: 1},
	}
	for _, src := range fleetPrograms {
		spec.Programs = append(spec.Programs, wire.ProgramSpec{Source: src})
	}
	return spec
}

func padDDL(ddl string, pad int) string {
	if pad == 0 {
		return ddl
	}
	return strings.Replace(ddl, "AGE INT.",
		"AGE INT.\n    PAD-"+itoa(pad)+" CHAR.", 1)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// slowFleetSpec delays every analyze stage, keeping jobs in flight
// long enough to kill their worker under them, or making them
// latency-bound for the scaling benchmark.
func slowFleetSpec(pad int, delay string) wire.JobSpec {
	spec := fleetSpec(pad)
	spec.Options.Inject = "delay=" + delay + "@*/analyze"
	return spec
}

// fleet is one coordinator over n in-process workers.
type fleet struct {
	co      *Coordinator
	ts      *httptest.Server // the coordinator's listener
	cli     *client.Client   // SDK client pointed at the coordinator
	workers []*httptest.Server
	servers []*serve.Server
}

// newFleet boots n workers and a coordinator with the background
// prober disabled — tests drive ProbeOnce for deterministic schedules.
func newFleet(t testing.TB, n int, cfg Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{QueueDepth: 64, Runners: 4})
		ts := httptest.NewServer(srv.Handler())
		f.servers = append(f.servers, srv)
		f.workers = append(f.workers, ts)
		cfg.Workers = append(cfg.Workers, ts.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.ProbeFailures == 0 {
		cfg.ProbeFailures = 1
	}
	f.co = New(cfg)
	f.ts = httptest.NewServer(f.co.Handler())
	f.cli = client.New(f.ts.URL)
	t.Cleanup(func() {
		f.ts.Close()
		f.co.Close()
		for i, ts := range f.workers {
			ts.Close()
			drainWorker(t, f.servers[i])
		}
	})
	return f
}

// drainWorker stops a worker's admissions and waits for its runners to
// finish what it admitted, so no runner outlives the test.
func drainWorker(t testing.TB, srv *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Error(err)
	}
}

// killWorker tears down worker i mid-flight and lets the coordinator
// notice through probes (ProbeFailures defaults to 1 in tests).
func (f *fleet) killWorker(t *testing.T, i int) {
	t.Helper()
	f.workers[i].CloseClientConnections()
	f.workers[i].Close()
	f.co.ProbeOnce(context.Background())
}

// ownerOf returns the index of the worker a pair's jobs route to.
func (f *fleet) ownerOf(t testing.TB, spec wire.JobSpec) int {
	t.Helper()
	pair, err := PairFor(&spec)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(f.workers))
	for i, ts := range f.workers {
		urls[i] = ts.URL
	}
	home := Rank(pair, urls)[0]
	for i, u := range urls {
		if u == home {
			return i
		}
	}
	t.Fatalf("home %s not in fleet", home)
	return -1
}

// directReport runs a spec on a fresh standalone daemon and returns
// the report bytes and HTTP status — the ground truth the coordinator
// path must reproduce byte for byte.
func directReport(t *testing.T, spec wire.JobSpec) ([]byte, int) {
	t.Helper()
	srv := serve.New(serve.Config{QueueDepth: 64, Runners: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		drainWorker(t, srv)
	}()
	cli := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := cli.Submit(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	body, status, err := cli.WaitReport(ctx, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	return body, status
}

func getJSON(t *testing.T, url string, doc any) int {
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
	if doc != nil {
		if err := json.Unmarshal(b, doc); err != nil {
			t.Fatalf("GET %s: %v: %s", url, err, b)
		}
	}
	return resp.StatusCode
}
