// Package dispatch is the scale-out layer behind `progconvd -mode
// coordinator`: it routes submitted conversion jobs to a fleet of
// worker daemons (`progconvd -mode worker`) over the same versioned v1
// wire schema the workers serve, so a client cannot tell a
// coordinator from a standalone daemon.
//
// Placement is pair-affine: jobs are ranked onto workers by rendezvous
// hashing of the job's pair fingerprint (the plancache PairKey), so
// every job for one schema pair lands on the same worker and that
// worker's conversion cache stays warm — the fleet-level analogue of
// PR 4's in-process pair cache. The coordinator keeps a health-checked
// worker registry (periodic /readyz probes through the client SDK;
// a run of failed probes quarantines a worker, a later success
// re-admits it) and transparently re-dispatches the jobs of a dead
// worker to the next-ranked one. Re-dispatch is safe because jobs are
// identified by content fingerprint and reports are deterministic: the
// re-run produces byte-identical report JSON, so callers never observe
// which worker (or how many) actually ran their job.
//
// The coordinator serves the complete v1 job API — submit, status,
// paginated listing, report, NDJSON/SSE event streaming, trace,
// cancel — by proxying to the owning worker, plus the registry
// endpoints GET/POST /v1/workers. Routing and failover are observable:
// per-worker routed/failover counters and fleet gauges on /metrics,
// and a worker table on /statusz.
package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"progconv/client"
	"progconv/internal/serve"
	"progconv/internal/telemetry"
	"progconv/internal/wire"
)

// Config tunes a Coordinator. The zero value is usable for tests; real
// deployments list at least one worker.
type Config struct {
	// Workers are the initial worker base URLs, registered in order.
	// More can join later via POST /v1/workers.
	Workers []string
	// ProbeInterval paces the health prober; 0 means 2s. A negative
	// interval disables the background prober — tests drive ProbeOnce
	// themselves.
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive failed probes quarantine a
	// worker; 0 means 2.
	ProbeFailures int
}

// probeTimeout bounds one /readyz probe.
const probeTimeout = time.Second

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval == 0 {
		return 2 * time.Second
	}
	return c.ProbeInterval
}

func (c Config) probeFailures() int {
	if c.ProbeFailures <= 0 {
		return 2
	}
	return c.ProbeFailures
}

// worker is one registry entry. Fields are guarded by the
// coordinator's mutex; the client is immutable after creation.
type worker struct {
	url string
	cli *client.Client

	quarantined bool
	consecFails int
	routed      int64 // jobs dispatched here (including failover arrivals)
	failovers   int64 // jobs re-dispatched away after this worker died
}

func (w *worker) doc() wire.WorkerDoc {
	state := "healthy"
	if w.quarantined {
		state = "quarantined"
	}
	return wire.WorkerDoc{
		V: wire.Version, URL: w.url, State: state,
		Routed: w.routed, Failovers: w.failovers,
		ConsecutiveFailures: w.consecFails,
	}
}

// Coordinator routes jobs across the worker fleet. Create with New,
// mount Handler, and Drain + Close on shutdown.
type Coordinator struct {
	cfg   Config
	start time.Time

	reg       *telemetry.Registry
	routedC   *telemetry.Counters // progconv_dispatch_routed_total{worker}
	failoverC *telemetry.Counters // progconv_dispatch_failovers_total{worker}
	probeC    *telemetry.Counters // progconv_dispatch_probe_failures_total{worker}

	mu       sync.Mutex
	workers  []*worker // registration order
	byURL    map[string]*worker
	jobs     map[string]*cjob
	order    []string // submission order, for deterministic listings
	nextID   int
	draining bool

	stopProbe chan struct{}
	probeDone chan struct{}
	stopOnce  sync.Once
}

// New returns a Coordinator with its health prober started (unless
// the config disables it).
func New(cfg Config) *Coordinator {
	co := &Coordinator{
		cfg:       cfg,
		start:     time.Now(),
		reg:       telemetry.NewRegistry(),
		byURL:     map[string]*worker{},
		jobs:      map[string]*cjob{},
		stopProbe: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	co.routedC = co.reg.Counters("progconv_dispatch_routed_total",
		"Jobs dispatched to each worker, including failover re-dispatches.",
		"worker", cfg.Workers...)
	co.failoverC = co.reg.Counters("progconv_dispatch_failovers_total",
		"Jobs re-dispatched away from each worker after it was found dead.",
		"worker", cfg.Workers...)
	co.probeC = co.reg.Counters("progconv_dispatch_probe_failures_total",
		"Failed /readyz probes per worker.",
		"worker", cfg.Workers...)
	co.reg.Gauge("progconv_dispatch_workers",
		"Registered workers.",
		func() float64 { co.mu.Lock(); defer co.mu.Unlock(); return float64(len(co.workers)) })
	co.reg.Gauge("progconv_dispatch_healthy_workers",
		"Registered workers currently healthy (not quarantined).",
		func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			n := 0
			for _, w := range co.workers {
				if !w.quarantined {
					n++
				}
			}
			return float64(n)
		})
	co.reg.Gauge("progconv_dispatch_jobs_total",
		"Jobs admitted by the coordinator since it started.",
		func() float64 { co.mu.Lock(); defer co.mu.Unlock(); return float64(len(co.jobs)) })
	for _, u := range cfg.Workers {
		co.register(u)
	}
	if cfg.ProbeInterval >= 0 {
		go co.probeLoop()
	} else {
		close(co.probeDone)
	}
	return co
}

// register adds a worker (or re-admits an existing one) and returns
// its registry entry. Safe to call with the coordinator running.
func (co *Coordinator) register(url string) wire.WorkerDoc {
	// The coordinator owns failover, so the client's per-request
	// retries stay off.
	cli := client.New(url, client.WithRetries(0, 0))
	co.mu.Lock()
	defer co.mu.Unlock()
	if w := co.byURL[url]; w != nil {
		// Re-registration is the operator's re-admit lever: clear the
		// quarantine and let the prober confirm.
		w.quarantined = false
		w.consecFails = 0
		return w.doc()
	}
	w := &worker{url: url, cli: cli}
	co.workers = append(co.workers, w)
	co.byURL[url] = w
	return w.doc()
}

// probeLoop runs the background health prober until Close.
func (co *Coordinator) probeLoop() {
	defer close(co.probeDone)
	t := time.NewTicker(co.cfg.probeInterval())
	defer t.Stop()
	for {
		select {
		case <-co.stopProbe:
			return
		case <-t.C:
			co.ProbeOnce(context.Background())
		}
	}
}

// ProbeOnce probes every registered worker's /readyz exactly once,
// quarantining workers that reached the failure threshold (and
// re-dispatching their jobs) and re-admitting quarantined workers that
// answered. The background prober calls this on its interval; tests
// call it directly for deterministic schedules.
func (co *Coordinator) ProbeOnce(ctx context.Context) {
	co.mu.Lock()
	workers := append([]*worker(nil), co.workers...)
	co.mu.Unlock()

	var dead []string
	for _, w := range workers {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := w.cli.Ready(pctx)
		cancel()
		co.mu.Lock()
		if err != nil {
			w.consecFails++
			co.probeC.Add(w.url, 1)
			if !w.quarantined && w.consecFails >= co.cfg.probeFailures() {
				w.quarantined = true
				dead = append(dead, w.url)
			}
		} else {
			w.consecFails = 0
			w.quarantined = false
		}
		co.mu.Unlock()
	}
	for _, url := range dead {
		co.failoverWorker(context.Background(), url)
	}
}

// Close stops the health prober. It does not drain jobs; see Drain.
func (co *Coordinator) Close() {
	co.stopOnce.Do(func() { close(co.stopProbe) })
	<-co.probeDone
}

// StartDrain stops admissions: new submissions answer 503 draining
// while status, report and event requests keep working.
func (co *Coordinator) StartDrain() {
	co.mu.Lock()
	co.draining = true
	co.mu.Unlock()
}

// Wait blocks until every admitted job is terminal or ctx ends. It
// polls through the status proxy, so dead workers fail over while
// draining.
func (co *Coordinator) Wait(ctx context.Context) error {
	for {
		co.mu.Lock()
		var pending []*cjob
		for _, id := range co.order {
			if j := co.jobs[id]; !j.isTerminal() {
				pending = append(pending, j)
			}
		}
		co.mu.Unlock()
		if len(pending) == 0 {
			return nil
		}
		for _, j := range pending {
			co.jobStatus(ctx, j)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dispatch: drain interrupted with jobs still in flight")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Drain is StartDrain followed by Wait.
func (co *Coordinator) Drain(ctx context.Context) error {
	co.StartDrain()
	return co.Wait(ctx)
}

// Handler returns the coordinator's HTTP handler — the complete v1
// job API plus the worker-registry endpoints.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", co.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", co.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", co.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", co.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", co.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", co.handleTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", co.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", co.handleCancel)
	mux.HandleFunc("GET /v1/workers", co.handleWorkers)
	mux.HandleFunc("POST /v1/workers", co.handleRegister)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		co.mu.Lock()
		draining, healthy := co.draining, 0
		for _, wk := range co.workers {
			if !wk.quarantined {
				healthy++
			}
		}
		co.mu.Unlock()
		switch {
		case draining:
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case healthy == 0:
			http.Error(w, "no healthy workers", http.StatusServiceUnavailable)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ready")
		}
	})
	mux.Handle("GET /metrics", co.MetricsHandler())
	mux.Handle("GET /statusz", co.Statusz())
	return mux
}

// MetricsHandler returns the Prometheus scrape handler for the
// coordinator's routing counters and fleet gauges.
func (co *Coordinator) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := co.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Statusz returns the human-readable snapshot handler: fleet health,
// the worker table, and the routing counters.
func (co *Coordinator) Statusz() http.Handler {
	return telemetry.StatuszHandler(co.start,
		telemetry.StatusSection{Title: "coordinator", Write: func(w io.Writer) {
			co.mu.Lock()
			jobs, terminal := len(co.jobs), 0
			for _, j := range co.jobs {
				if j.isTerminal() {
					terminal++
				}
			}
			draining := co.draining
			co.mu.Unlock()
			fmt.Fprintf(w, "  jobs        %d admitted, %d terminal\n", jobs, terminal)
			fmt.Fprintf(w, "  draining    %v\n", draining)
		}},
		telemetry.StatusSection{Title: "workers", Write: func(w io.Writer) {
			co.mu.Lock()
			docs := make([]wire.WorkerDoc, 0, len(co.workers))
			for _, wk := range co.workers {
				docs = append(docs, wk.doc())
			}
			co.mu.Unlock()
			for _, d := range docs {
				fmt.Fprintf(w, "  %-40s %-12s routed=%d failovers=%d consec_fails=%d\n",
					d.URL, d.State, d.Routed, d.Failovers, d.ConsecutiveFailures)
			}
		}},
		telemetry.StatusSection{Title: "counters", Write: co.reg.WriteSummary},
	)
}

func (co *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	co.mu.Lock()
	list := wire.WorkerList{V: wire.Version, Workers: make([]wire.WorkerDoc, 0, len(co.workers))}
	for _, wk := range co.workers {
		list.Workers = append(list.Workers, wk.doc())
	}
	co.mu.Unlock()
	wire.WriteJSON(w, http.StatusOK, list)
}

func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec wire.WorkerSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, "decoding worker: "+err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, co.register(spec.URL))
}

// handleList pages through the coordinator's job table with the same
// limit/page_token/state grammar the standalone daemon serves, so SDK
// pagination works identically against either front end. Non-terminal
// jobs are refreshed through the status proxy (triggering failover if
// their worker died), terminal ones serve their frozen status.
func (co *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	start, limit, state, err := serve.ListPage(r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, err.Error())
		return
	}
	co.mu.Lock()
	order := append([]string(nil), co.order...)
	co.mu.Unlock()
	doc := wire.JobList{V: wire.Version, Jobs: []wire.JobStatus{}}
	for i := start; i < len(order); i++ {
		if len(doc.Jobs) == limit {
			doc.NextPageToken = serve.PageToken(i)
			break
		}
		co.mu.Lock()
		j := co.jobs[order[i]]
		co.mu.Unlock()
		if j == nil {
			continue
		}
		st := co.jobStatus(r.Context(), j)
		if state != "" && st.State != state {
			continue
		}
		doc.Jobs = append(doc.Jobs, st)
	}
	wire.WriteJSON(w, http.StatusOK, doc)
}
