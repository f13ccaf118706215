// Package progconv reproduces "Database Program Conversion: A Framework
// for Research" (Database Program Conversion Task Group of the CODASYL
// Systems Committee; Taylor, Fry, Shneiderman, Smith, Su; VLDB/IEEE
// 1979): the Figure 4.1 conversion pipeline — Conversion Analyzer,
// Program Analyzer, Program Converter, Optimizer, Program Generator,
// Conversion Supervisor — together with every substrate the paper
// presupposes: relational, CODASYL network and hierarchical engines, the
// SEQUEL subset, the Maryland FIND-path DML, DL/I, a database-program
// host language with four embedded DML dialects, a transformation
// catalogue with data restructuring, and the §2 baseline strategies (DML
// emulation and bridge programs).
//
// # Options
//
// Convert, ConvertJob and ConvertJobs accept functional options. This
// table is the complete set; each option's own doc comment carries the
// details.
//
//	WithAnalyst(a)         who answers qualified-conversion questions
//	                       (default: reject every proposal)
//	WithParallelism(n)     worker-pool bound for the inventory
//	                       (0 = GOMAXPROCS)
//	WithMigrationParallelism(n)
//	                       shard-worker bound for the data migration
//	                       pass (0 = GOMAXPROCS); output is
//	                       byte-identical at any setting
//	WithVerifyDB(db)       Convert only: migrate db through the plan
//	                       and verify each automatic conversion against
//	                       it. ConvertJob and ConvertJobs take a job's
//	                       database from its spec, in either model
//	                       (NetworkSpec.DB, HierSpec.DB): a job verifies
//	                       if and only if its spec carries one
//	WithMetrics()          time every stage attempt: durations ride the
//	                       stage-end events (and so traces and stage
//	                       histograms); Convert and ConvertJob
//	                       summarize them per stage in Report.Metrics
//	WithEventSink(s)       stream the structured event log to s
//	                       (RingSink, JSONLSink, Tally, MultiSink)
//	WithTraceSink(tb)      fold the event log into tb's span tree
//	                       (NewTraceBuilder, DeriveTraceID); the
//	                       finished trace lands on Report.Trace
//	WithProgramTimeout(d)  budget one program's whole analyze → verify
//	                       pipeline (0 = unbounded)
//	WithStageTimeout(d)    budget each pipeline stage attempt
//	WithAnalystTimeout(d)  budget each Analyst.Decide call; an
//	                       unresponsive analyst rejects by timeout
//	WithRetries(n, base)   retry Transient stage errors up to n times
//	                       with deterministic backoff from base
//	WithFailurePolicy(p)   what a Failed program does to the rest of
//	                       the batch: FailFast, CollectErrors, Budget(n)
//	WithCache(c)           share a conversion cache (NewCache) across
//	                       calls: pair-scoped planning and per-program
//	                       conversions are reused, never recomputed
//
// The run's context is a parameter, not an option: cancel it to stop
// the batch with ErrCanceled. NewJob turns a wire JobSpec into a Job
// and the options its run options name; the CLI and the daemon both
// run a JobSpec that way.
//
// # Wire schema
//
// Every machine-readable artifact the toolchain emits — event-log JSONL
// lines (EncodeJSONL, NewJSONLSink), report documents
// (EncodeReportJSON), trace documents (EncodeTraceJSON, the daemon's
// GET /v1/jobs/{id}/trace), and the conversion daemon's
// job/status/error bodies — is versioned: a leading "v" field holds
// WireVersion. The
// bytes are deterministic for the same inputs at any parallelism, so
// cmd/progconvd's report endpoint and the CLI's -report-json flag
// produce identical documents. ExitCodeFor maps a finished Report onto
// the shared process exit-code table (ExitOK, ExitFailOn,
// ExitPipeline, ...) that the CLI exits with and the daemon translates
// to HTTP statuses.
//
// Job submissions carry an optional "model" field naming the data
// model of the conversion pair: "network" (CODASYL; the default when
// the field is absent, so v1 clients keep working unchanged) or
// "hierarchical" (IMS / DL/I). The source_ddl and target_ddl texts are
// in the model's canonical DDL form — Figure 4.3 network DDL (SCHEMA
// ... RECORD ... SET ...) or SEGMENT-form hierarchy DDL (HIERARCHY ...
// SEGMENT ... ROOT|PARENT). An unknown model is rejected at submission
// with error code bad_spec. Report documents echo non-default models
// in their own "model" field (absent for network runs, preserving the
// historical network document bytes).
//
// Collection endpoints paginate: GET /v1/jobs takes limit and
// page_token query parameters and answers with a JobList whose
// NextPageToken, when non-empty, is the cursor for the next page; a
// state parameter filters by job state. GET /v1/workers answers a
// WorkerList describing a dispatch coordinator's fleet (see
// internal/dispatch and the client package for the typed SDK both
// coordinator and end users share).
//
// # Error codes
//
// Every non-2xx daemon response is an ErrorDoc carrying a stable
// machine-readable Code alongside the human-readable message, and the
// CLI prefixes its stderr line with the same token. ErrorCodeFor maps
// an exit code onto its token. The complete set:
//
//	bad_spec    400  malformed or invalid job spec / query
//	not_found   404  unknown job ID
//	queue_full  429  admission queue at capacity (has Retry-After)
//	draining    503  daemon is draining for shutdown (has Retry-After)
//	no_worker   503  coordinator has no healthy worker (has Retry-After)
//	deadline    500  job exceeded its deadline
//	canceled    500  job was canceled
//	fail_on     500  report tripped the job's -fail-on threshold
//	pipeline    500  a pipeline stage failed
//	failed      500  one or more programs failed to convert
//	internal    500  unexpected daemon error
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// per-figure and per-claim reproduction record, cmd/exper for the
// experiment harness, cmd/progconvd for the HTTP/JSON conversion
// service (standalone, worker, or coordinator mode), and bench_test.go
// (this directory) for the testing.B benchmarks backing each
// experiment.
package progconv
