// Command progconvd is the conversion service daemon: the progconv
// pipeline behind a versioned HTTP/JSON API.
//
//	progconvd [-mode standalone|worker|coordinator] [-addr :8080]
//	          [-queue N] [-runners N]
//	          [-deadline d] [-max-deadline d] [-drain-timeout d]
//	          [-cache] [-cache-size N] [-debug-addr :8081]
//	          [-workers url,url,...] [-probe-interval d] [-probe-failures N]
//
// Endpoints (all documents are wire v1, see internal/wire):
//
//	POST   /v1/jobs             submit a job (wire.JobSpec); 202 with a
//	                            status document and Location header,
//	                            429 + Retry-After when the queue is
//	                            full, 503 + Retry-After while draining
//	GET    /v1/jobs             list submitted jobs, paginated
//	                            (?limit, ?page_token, ?state)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/report the finished report — byte-identical to
//	                            progconv convert -report-json for the
//	                            same inputs; HTTP status follows the
//	                            shared exit-code table
//	GET    /v1/jobs/{id}/events the job's structured event log as
//	                            NDJSON (or SSE with Accept:
//	                            text/event-stream); streams live while
//	                            the job runs, replays when finished;
//	                            ?omit_timing=1 drops wall-clock fields
//	POST   /v1/jobs/{id}/cancel cancel a queued or running job
//	GET    /v1/jobs/{id}/trace  the job's span tree as wire trace JSON
//	                            (?omit_timing=1 for the deterministic
//	                            bytes); live partial trees while running
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 while draining)
//	GET    /metrics             Prometheus text exposition (counters,
//	                            latency histograms, gauges)
//	GET    /statusz             human-readable server snapshot
//
// Submissions honor an inbound W3C traceparent header: the job's trace
// continues the caller's trace ID and records the caller's span as the
// remote parent; the response echoes a traceparent naming the job's
// root span. Without one, the trace ID is derived deterministically
// from the job content and submission index.
//
// # Modes
//
// The default mode, standalone, is the daemon described above. -mode
// worker is the same daemon under a different name — the label workers
// print so fleet logs read correctly. -mode coordinator serves the
// identical v1 API but runs no conversions itself: it routes each job
// to one of the workers named by -workers (pair-affine rendezvous
// hashing, so same-pair jobs share a worker and its conversion cache),
// health-checks the fleet every -probe-interval (a worker is
// quarantined after -probe-failures consecutive failed /readyz probes
// and re-admitted when it answers again), and transparently
// re-dispatches the jobs of a dead worker — reports stay
// byte-identical because conversions are deterministic. A coordinator
// additionally serves:
//
//	GET    /v1/workers          the worker registry with health and
//	                            routing counters
//	POST   /v1/workers          register a worker (wire.WorkerSpec) or
//	                            re-admit a quarantined one
//
// With -debug-addr a second listener serves net/http/pprof under
// /debug/pprof/, expvar under /debug/vars, and mirrors /metrics and
// /statusz — keep it on loopback; it is unauthenticated.
//
// On SIGTERM or SIGINT the daemon drains gracefully: new submissions
// get 503, in-flight and queued jobs run to completion (bounded by
// -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"progconv"
	"progconv/internal/dispatch"
	"progconv/internal/serve"
	"progconv/internal/telemetry"
)

// newServer builds each of progconvd's listeners. Slow readers time
// out: headers must arrive within 10 s, the whole request, an 8 MiB job
// body included, within a minute. No WriteTimeout, because event
// streams are long GETs; net/http lifts the read deadline once a
// request's body is consumed, so the read timeout spares them too.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h,
		ReadHeaderTimeout: 10 * time.Second, ReadTimeout: time.Minute}
}

// service is what main drains and serves, whichever mode built it.
type service interface {
	Handler() http.Handler
	MetricsHandler() http.Handler
	Statusz() http.Handler
	Drain(context.Context) error
}

func main() {
	fs := flag.NewFlagSet("progconvd", flag.ExitOnError)
	mode := fs.String("mode", "standalone",
		`"standalone" (serve and convert), "worker" (same, fleet naming) or "coordinator" (route to -workers)`)
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 16, "admission queue depth; a full queue answers 429")
	runners := fs.Int("runners", 2, "jobs converting concurrently")
	migrateParallel := fs.Int("migrate-parallel", 0,
		"default data-migration shard workers for jobs that leave\n"+
			"migrate_parallel unset (0 = GOMAXPROCS); output is byte-identical")
	deadline := fs.Duration("deadline", 0,
		"default per-job deadline for jobs that request none (0 = unbounded)")
	maxDeadline := fs.Duration("max-deadline", 0,
		"clamp applied to requested job deadlines (0 = unclamped)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute,
		"how long a SIGTERM drain waits for in-flight jobs before giving up")
	useCache := fs.Bool("cache", true,
		"share a content-addressed conversion cache across jobs")
	cacheSize := fs.Int("cache-size", 0,
		"with -cache: retained pair contexts (0 = the default 64)")
	debugAddr := fs.String("debug-addr", "",
		"serve pprof, expvar, /metrics and /statusz on this address (unauthenticated; keep on loopback)")
	workers := fs.String("workers", "",
		"coordinator mode: comma-separated worker base URLs")
	probeInterval := fs.Duration("probe-interval", 2*time.Second,
		"coordinator mode: /readyz health-probe period")
	probeFailures := fs.Int("probe-failures", 2,
		"coordinator mode: consecutive failed probes that quarantine a worker")
	fs.Parse(os.Args[1:])

	name := "progconvd"
	var svc service
	switch *mode {
	case "standalone", "worker":
		if *mode == "worker" {
			name = "progconvd[worker]"
		}
		cfg := serve.Config{
			QueueDepth:             *queue,
			Runners:                *runners,
			DefaultDeadline:        *deadline,
			MaxDeadline:            *maxDeadline,
			DefaultMigrateParallel: *migrateParallel,
		}
		if *useCache {
			cfg.Cache = progconv.NewCache(*cacheSize)
		}
		svc = serve.New(cfg)
	case "coordinator":
		name = "progconvd[coordinator]"
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			fmt.Fprintln(os.Stderr, "progconvd: -mode coordinator requires -workers url[,url...]")
			os.Exit(2)
		}
		co := dispatch.New(dispatch.Config{
			Workers:       urls,
			ProbeInterval: *probeInterval,
			ProbeFailures: *probeFailures,
		})
		defer co.Close()
		svc = co
	default:
		fmt.Fprintf(os.Stderr, "progconvd: unknown -mode %q\n", *mode)
		os.Exit(2)
	}

	hs := newServer(*addr, svc.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if *debugAddr != "" {
		dbg := newServer(*debugAddr, telemetry.DebugMux(svc.MetricsHandler(), svc.Statusz()))
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "%s: debug listener: %v\n", name, err)
			}
		}()
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "%s: debug endpoints (pprof, expvar, metrics, statusz) on %s\n", name, *debugAddr)
	}
	fmt.Fprintf(os.Stderr, "%s: serving wire v%d on %s\n", name, progconv.WireVersion, *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "%s: %s: draining (new submissions get 503)\n", name, sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}

	// Drain order matters: stop admitting first (handlers keep answering
	// status/stream requests), let in-flight jobs finish everywhere, then
	// close the listeners.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		hs.Close()
		os.Exit(1)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", name)
}
