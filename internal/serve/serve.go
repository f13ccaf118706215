// Package serve is the conversion service behind cmd/progconvd: an
// HTTP/JSON facade over the progconv pipeline that accepts conversion
// jobs (schema pair + programs + options, the wire.JobSpec shape),
// runs them on a shared runner pool through the conversion cache, and
// streams each job's structured event log as NDJSON or SSE.
//
// The paper's Conversion Supervisor is an operator-facing facility,
// not a one-shot batch tool; this package gives it the operational
// contract such a facility needs:
//
//   - admission control: a bounded job queue; a full queue rejects the
//     submission with 429 and a Retry-After hint instead of queueing
//     unbounded work;
//   - per-job deadlines clamped to a server maximum, mapped onto the
//     supervisor's timeout/retry/failure-policy options;
//   - observability: /healthz, /readyz, and the Prometheus text
//     exporter at /metrics folding every job's event tally;
//   - graceful drain: StartDrain (wired to SIGTERM in cmd/progconvd)
//     stops admissions with 503 while in-flight and queued jobs run to
//     completion, then the runner pool exits.
//
// Every response body is a versioned wire-v1 document, and a finished
// job's report endpoint serves exactly the bytes the CLI's
// -report-json flag writes for the same inputs at any parallelism.
package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progconv"
	"progconv/internal/telemetry"
	"progconv/internal/wire"
)

// Config tunes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// QueueDepth bounds the admission queue (jobs accepted but not yet
	// running); 0 means 16. A full queue answers 429.
	QueueDepth int
	// Runners is how many jobs convert concurrently; 0 means 2.
	Runners int
	// DefaultDeadline bounds jobs that request no deadline; 0 means
	// unbounded.
	DefaultDeadline time.Duration
	// MaxDeadline clamps the per-job deadline option; 0 means
	// unclamped.
	MaxDeadline time.Duration
	// DefaultMigrateParallel bounds the data-migration shard workers of
	// jobs that leave migrate_parallel unset; 0 means GOMAXPROCS.
	// Results are byte-identical at any setting.
	DefaultMigrateParallel int
	// Cache, when non-nil, is the shared conversion cache every job
	// runs through, so repeated pairs and programs convert once.
	Cache *progconv.Cache
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 16
	}
	return c.QueueDepth
}

func (c Config) runners() int {
	if c.Runners <= 0 {
		return 2
	}
	return c.Runners
}

// Server is the conversion service. Create with New, mount Handler,
// and call StartDrain/Wait (or Drain) to shut down gracefully.
type Server struct {
	cfg   Config
	tally *progconv.Tally
	start time.Time

	// The telemetry plane: histogram instruments and gauges exported
	// at /metrics alongside the tally counters, and summarized on
	// /statusz. inflight counts jobs currently on a runner.
	reg      *telemetry.Registry
	inst     *telemetry.Instruments
	inflight atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for deterministic listings
	nextID   int
	draining bool
	queue    chan *job

	runnersDone chan struct{}
}

// New returns a Server with its runner pool started.
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		tally:       progconv.NewTally(),
		start:       time.Now(),
		reg:         telemetry.NewRegistry(),
		jobs:        make(map[string]*job),
		queue:       make(chan *job, cfg.queueDepth()),
		runnersDone: make(chan struct{}),
	}
	s.reg.Tally(s.tally)
	s.inst = telemetry.NewInstruments(s.reg)
	s.reg.Gauge("progconv_queue_depth",
		"Jobs admitted but not yet picked up by a runner.",
		func() float64 { return float64(len(s.queue)) })
	s.reg.Gauge("progconv_inflight_jobs",
		"Jobs currently converting on a runner.",
		func() float64 { return float64(s.inflight.Load()) })
	s.reg.Gauge("progconv_jobs_total",
		"Jobs admitted since the server started.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.jobs)) })
	s.reg.Gauge("progconv_cache_entries",
		"Live conversion-cache entries (pair contexts plus memos).",
		func() float64 {
			if s.cfg.Cache == nil {
				return 0
			}
			return float64(s.cfg.Cache.Stats().Entries())
		})
	var wg sync.WaitGroup
	for i := 0; i < cfg.runners(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(s.runnersDone)
	}()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("GET /metrics", s.MetricsHandler())
	mux.Handle("GET /statusz", s.Statusz())
	return mux
}

// MetricsHandler returns the Prometheus scrape handler: the event
// tally's counter families followed by the telemetry registry's
// histograms and gauges. cmd/progconvd mounts it on -debug-addr too.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Statusz returns the human-readable snapshot handler: build info,
// uptime, queue and pool occupancy, cache counters, and histogram
// summaries.
func (s *Server) Statusz() http.Handler {
	return telemetry.StatuszHandler(s.start,
		telemetry.StatusSection{Title: "server", Write: func(w io.Writer) {
			s.mu.Lock()
			jobs, draining := len(s.jobs), s.draining
			s.mu.Unlock()
			fmt.Fprintf(w, "  jobs        %d admitted, %d queued, %d in flight\n",
				jobs, len(s.queue), s.inflight.Load())
			fmt.Fprintf(w, "  queue cap   %d\n", s.cfg.queueDepth())
			fmt.Fprintf(w, "  runners     %d\n", s.cfg.runners())
			fmt.Fprintf(w, "  draining    %v\n", draining)
		}},
		telemetry.StatusSection{Title: "cache", Write: func(w io.Writer) {
			if s.cfg.Cache == nil {
				fmt.Fprintf(w, "  disabled\n")
				return
			}
			st := s.cfg.Cache.Stats()
			fmt.Fprintf(w, "  entries     %d (%d pairs, %d memos)\n", st.Entries(), st.Pairs, st.Memos)
			fmt.Fprintf(w, "  pair        %d hits / %d misses / %d evictions\n", st.PairHits, st.PairMisses, st.PairEvictions)
			fmt.Fprintf(w, "  analysis    %d hits / %d misses / %d evictions\n", st.AnalysisHits, st.AnalysisMisses, st.AnalysisEvictions)
			fmt.Fprintf(w, "  conversion  %d hits / %d misses / %d evictions\n", st.ConversionHits, st.ConversionMisses, st.ConversionEvictions)
			fmt.Fprintf(w, "  codegen     %d hits / %d misses / %d evictions\n", st.CodegenHits, st.CodegenMisses, st.CodegenEvictions)
		}},
		telemetry.StatusSection{Title: "histograms", Write: s.reg.WriteSummary},
	)
}

// StartDrain stops admissions: new submissions answer 503 while
// in-flight and queued jobs run to completion. Safe to call more than
// once.
func (s *Server) StartDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	// Submissions check the flag under the same lock before sending, so
	// nothing can race this close.
	close(s.queue)
}

// Wait blocks until every admitted job has finished and the runner
// pool has exited, or ctx ends. Call StartDrain first.
func (s *Server) Wait(ctx context.Context) error {
	select {
	case <-s.runnersDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with jobs still in flight")
	}
}

// Drain is StartDrain followed by Wait.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	return s.Wait(ctx)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	_, spec, err := wire.ReadJobSpec(w, r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, "decoding job: "+err.Error())
		return
	}
	run, opts, err := progconv.NewJob(&spec)
	if err != nil {
		// The spec is invalid or its schemas or programs do not parse: a
		// client error, found before the job consumes a queue slot.
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, err.Error())
		return
	}
	names := make([]string, len(run.Programs))
	for i, p := range run.Programs {
		names[i] = p.Name
	}
	j := &job{spec: &spec, hub: newHub(), names: names, run: run, opts: opts}

	// An inbound W3C traceparent continues the caller's trace; anything
	// malformed (or absent) falls back to a trace ID derived from the
	// job content and submission index — deterministic, per the repo's
	// no-wall-clock-IDs contract.
	tid, remote, tpErr := telemetry.ParseTraceparent(r.Header.Get("traceparent"))

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// Mirror the 429 admission path: a drain is usually a rolling
		// restart, so tell the client when to come back.
		wire.WriteRetry(w, http.StatusServiceUnavailable, wire.CodeDraining,
			"server is draining; not accepting jobs")
		return
	}
	// Register before enqueueing so a runner can never observe a job the
	// status endpoints do not know; the send is under the same lock that
	// guards draining, so it cannot race StartDrain's close.
	s.nextID++
	j.id = fmt.Sprintf("j-%06d", s.nextID)
	if tpErr != nil {
		tid = telemetry.DeriveTraceID(append(j.traceSeed(), strconv.Itoa(s.nextID))...)
		remote = telemetry.SpanID{}
	}
	j.tid, j.remote = tid, remote
	j.submitted = time.Now()
	// The 202 body reports the admission itself: snapshot it before a
	// runner can pick the job up, or a fast job could already read done.
	accepted := j.status()
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	default:
		s.nextID--
		s.mu.Unlock()
		wire.WriteRetry(w, http.StatusTooManyRequests, wire.CodeQueueFull,
			fmt.Sprintf("job queue is full (%d queued); retry later", s.cfg.queueDepth()))
		return
	}
	s.mu.Unlock()

	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.Header().Set("traceparent", telemetry.Traceparent(j.tid, telemetry.RootSpanID(j.tid)))
	wire.WriteJSON(w, http.StatusAccepted, accepted)
}

// handleTrace serves the job's span tree as a wire-v1 document. A
// running job yields a consistent partial tree, a finished one the
// full trace; ?omit_timing=1 drops the wall-clock fields, leaving the
// parallelism-independent bytes.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("traceparent", telemetry.Traceparent(j.tid, telemetry.RootSpanID(j.tid)))
	omit := r.URL.Query().Get("omit_timing") != ""
	if err := wire.EncodeTrace(w, j.trace(), omit); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "no such job")
	}
	return j
}

// Listing limits: pages default to defaultListLimit entries and are
// clamped to maxListLimit, so the listing is never the unbounded full
// job table however long the daemon has been up.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// ListPage parses the pagination query parameters shared by the
// daemon's and the coordinator's GET /v1/jobs: limit (page size),
// page_token (opaque resume cursor) and state (filter). It reports the
// scan start index, the page size, and the filter.
func ListPage(r *http.Request) (start, limit int, state string, err error) {
	q := r.URL.Query()
	limit = defaultListLimit
	if ls := q.Get("limit"); ls != "" {
		n, perr := strconv.Atoi(ls)
		if perr != nil || n < 1 {
			return 0, 0, "", fmt.Errorf("limit must be a positive integer, got %q", ls)
		}
		limit = n
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	state = q.Get("state")
	switch state {
	case "", "queued", "running", "done", "failed", "canceled":
	default:
		return 0, 0, "", fmt.Errorf("state must be one of queued, running, done, failed or canceled, got %q", state)
	}
	if tok := q.Get("page_token"); tok != "" {
		n, perr := parsePageToken(tok)
		if perr != nil {
			return 0, 0, "", perr
		}
		start = n
	}
	return start, limit, state, nil
}

// Page tokens are an opaque cursor into the submission order; clients
// must not construct or interpret them.
func PageToken(next int) string { return fmt.Sprintf("o%d", next) }

func parsePageToken(tok string) (int, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(tok, "o"))
	if err != nil || !strings.HasPrefix(tok, "o") || n < 0 {
		return 0, fmt.Errorf("invalid page_token %q", tok)
	}
	return n, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	start, limit, state, err := ListPage(r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, err.Error())
		return
	}
	doc := wire.JobList{V: wire.Version, Jobs: []wire.JobStatus{}}
	s.mu.Lock()
	for i := start; i < len(s.order); i++ {
		if len(doc.Jobs) == limit {
			doc.NextPageToken = PageToken(i)
			break
		}
		st := s.jobs[s.order[i]].status()
		if state != "" && st.State != state {
			continue
		}
		doc.Jobs = append(doc.Jobs, st)
	}
	s.mu.Unlock()
	wire.WriteJSON(w, http.StatusOK, doc)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		wire.WriteJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	st := j.snapshot()
	switch st.state {
	case stateQueued, stateRunning:
		wire.WriteJSON(w, http.StatusAccepted, j.status())
	case stateDone:
		// The body is exactly what the CLI's -report-json writes for the
		// same inputs; the HTTP status comes from the shared exit table.
		wire.WriteReport(w, st.exit.HTTPStatus(), st.reportJSON)
	default: // failed, canceled
		wire.WriteError(w, st.exit.HTTPStatus(), st.errCode, st.errMsg)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	wire.WriteJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	omitTiming := r.URL.Query().Get("omit_timing") != ""
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	bp := eventBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledEvents {
			eventBufs.Put(bp)
		}
	}()
	from := 0
	for {
		events, changed, closed := j.hub.since(from)
		if len(events) > 0 {
			// Every event the wake delivered goes out in one write and
			// one flush, or in one per chunk the batch spans.
			b := (*bp)[:0]
			for _, ev := range events {
				if sse {
					b = append(b, "data: "...)
				}
				b = wire.AppendEvent(b, ev, omitTiming)
				if sse {
					b = append(b, '\n')
				}
			}
			*bp = b
			if _, err := w.Write(b); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			from += len(events)
		}
		if closed {
			return
		}
		if changed == nil {
			continue // the view ended at a chunk boundary: read on
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// maxPooledEvents bounds the event batch buffers returned to
// eventBufs. A batch holds at most one chunk of a hub's log, hubChunk
// events, but an event's detail text has no bound.
const maxPooledEvents = 1 << 20

var eventBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}
