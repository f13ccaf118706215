// Public API: the progconv package is the supported facade over the
// internal conversion framework. External callers convert a program
// inventory with Convert and never import internal/ packages — the
// types they need are re-exported here as aliases, so values returned
// by one facade function can be passed to another.
//
// # Error contract
//
// Convert fails with typed sentinel errors, checkable via errors.Is:
//
//   - ErrCanceled when ctx is canceled or its deadline passes mid-batch
//     (the error also matches ctx.Err());
//   - ErrHazardUnresolved when no explicit plan was given and the schema
//     diff is not explained by the transformation catalogue — a
//     Conversion Analyst must author the plan;
//   - ErrNotInvertible from plan-inversion helpers (InversePlan) when a
//     step loses information (Housel's restriction);
//   - ErrFailureBudget when the failure policy's tolerance is exhausted
//     — under the default FailFast policy, on the first program whose
//     pipeline broke (panic, expired budget, or retries-exhausted
//     error).
//
// All other errors wrap the failing stage's error via %w with the
// program name in the message.
//
// Convert is configured by functional options; doc.go holds the
// complete option table.
//
// # Resilience
//
// The supervisor isolates per-program faults: a panicking stage, an
// expired budget, or an error outlasting its retry allowance becomes a
// Failed outcome whose Audit.Failure records the evidence — under
// CollectErrors (or within Budget(n)'s tolerance) the rest of the batch
// still converts, and the Report stays byte-deterministic at any
// parallelism. Custom pipeline extensions signal retryable errors by
// wrapping them with Transient.
package progconv

import (
	"context"
	"fmt"
	"io"
	"time"

	"progconv/internal/analyzer"
	"progconv/internal/core"
	"progconv/internal/dbprog"
	"progconv/internal/fault"
	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/obs"
	"progconv/internal/plancache"
	"progconv/internal/schema"
	"progconv/internal/schema/ddl"
	"progconv/internal/telemetry"
	"progconv/internal/wire"
	"progconv/internal/xform"
)

// Re-exported conversion results: a Report is one run's full record,
// one Outcome per submitted program, classified by Disposition.
type (
	Report      = core.Report
	Outcome     = core.Outcome
	Disposition = core.Disposition

	// Analyst answers the questions automation cannot; Policy is the
	// replayable non-interactive analyst. Issue (with its IssueKind
	// constants below) is the finding a Decide call is asked about, so
	// custom analysts are implementable without internal/ imports.
	Analyst   = core.Analyst
	Policy    = core.Policy
	Issue     = analyzer.Issue
	IssueKind = analyzer.IssueKind

	// The resilience surface: FailurePolicy decides what a Failed
	// program does to the batch; Failure and Retry are the audit
	// evidence behind Failed outcomes and transient-error retries.
	FailurePolicy = core.FailurePolicy
	Failure       = core.Failure
	FailureKind   = core.FailureKind
	Retry         = core.Retry

	// Metrics is the per-stage timing summary embedded in a Report when
	// the run was timed with WithMetrics.
	Metrics = obs.Metrics

	// The structured event log: Events of the listed EventKinds flow to a
	// Sink installed via WithEventSink. RingSink, JSONLSink and Tally are
	// the provided sinks; Audit and Decision are the per-outcome decision
	// trail.
	Event     = obs.Event
	EventKind = obs.EventKind
	Sink      = obs.Sink
	RingSink  = obs.RingSink
	JSONLSink = wire.JSONLSink
	Tally     = obs.Tally
	Audit     = core.Audit
	Decision  = core.Decision

	// The versioned wire schema (see internal/wire): JobSpec is the
	// conversion daemon's submission body, ProgramSpec one program of
	// its inventory, JobOptions the run options, JobStatus the status
	// document, WireReport the JSON rendering of a Report, and ExitCode
	// the exit-code table shared by the CLIs and the daemon's HTTP
	// status mapping. Re-exported here so servers and clients built on
	// the facade never import internal/ packages.
	JobSpec     = wire.JobSpec
	ProgramSpec = wire.ProgramSpec
	JobOptions  = wire.JobOptions
	JobStatus   = wire.JobStatus
	WireReport  = wire.Report
	ExitCode    = wire.ExitCode

	// The scale-out additions to the wire schema: JobList is one page
	// of GET /v1/jobs, ErrorDoc the body of every non-2xx response with
	// its machine-readable ErrorCode, and WorkerSpec/WorkerDoc/
	// WorkerList the coordinator's worker-registry documents (POST and
	// GET /v1/workers). The client package speaks these types.
	JobList    = wire.JobList
	ErrorDoc   = wire.ErrorDoc
	ErrorCode  = wire.ErrorCode
	WorkerSpec = wire.WorkerSpec
	WorkerDoc  = wire.WorkerDoc
	WorkerList = wire.WorkerList

	// Schema is a CODASYL network schema; Plan an ordered transformation
	// sequence; Program a parsed database program; Database a network
	// database instance. Aliases let external callers name values that
	// flow between facade functions.
	Schema   = schema.Network
	Plan     = xform.Plan
	Program  = dbprog.Program
	Database = netstore.DB

	// The hierarchical (IMS / DL/I) model's counterparts: Hierarchy is a
	// segment-tree schema, HierPlan an ordered sequence of hierarchical
	// reorders, HierDatabase a hierarchical database instance.
	Hierarchy    = schema.Hierarchy
	HierPlan     = xform.HierPlan
	HierDatabase = hierstore.DB

	// PairSpec describes one conversion pair in some data model for a
	// ConvertJobs batch; NetworkSpec and HierSpec are the two
	// implementations.
	PairSpec    = core.PairSpec
	NetworkSpec = core.NetworkSpec
	HierSpec    = core.HierSpec

	// Cache is the shared conversion cache installed with WithCache:
	// pair-scoped artifacts plus per-program memos, content-addressed
	// and safe for concurrent Convert calls. CacheStats is its counter
	// snapshot. Job is one schema pair's workload for ConvertJobs.
	Cache      = plancache.Cache
	CacheStats = plancache.Stats
	Job        = core.Job

	// DataPlane is the data-plane fast-path counter block carried on a
	// Report: index probes vs full scans answering FIND requests during
	// verification, and fused vs stepwise migration passes.
	DataPlane = obs.DataPlane

	// The tracing surface: a TraceBuilder (WithTraceSink) folds the
	// event stream into a Trace — a span tree with one TraceID per run,
	// one TraceSpan per program, and child spans for stage attempts,
	// retries, cache probes, and verification passes. Span IDs derive
	// from the TraceID and each span's structural path, so the tree is
	// byte-identical at any parallelism once timing is omitted.
	Trace        = telemetry.Trace
	TraceBuilder = telemetry.TraceBuilder
	TraceSpan    = telemetry.Span
	SpanKind     = telemetry.SpanKind
	TraceID      = telemetry.TraceID
	SpanID       = telemetry.SpanID
)

// The span kinds a Trace contains.
const (
	SpanJob      = telemetry.KindJob
	SpanPhase    = telemetry.KindPhase
	SpanProgram  = telemetry.KindProgram
	SpanStage    = telemetry.KindStage
	SpanRetry    = telemetry.KindRetry
	SpanCache    = telemetry.KindCache
	SpanVerdict  = telemetry.KindVerdict
	SpanDecision = telemetry.KindDecision
	SpanHazard   = telemetry.KindHazard
	SpanFault    = telemetry.KindFault
)

// The dispositions.
const (
	Auto      = core.Auto
	Qualified = core.Qualified
	Manual    = core.Manual
	Failed    = core.Failed
)

// The issue kinds an Analyst may be consulted about (§3.2's
// automation-defeating features).
const (
	RunTimeVariability   = analyzer.RunTimeVariability
	OrderDependence      = analyzer.OrderDependence
	ProcessFirst         = analyzer.ProcessFirst
	StatusCodeDependence = analyzer.StatusCodeDependence
)

// The failure kinds recorded in Audit.Failure.
const (
	FailError   = core.FailError
	FailPanic   = core.FailPanic
	FailTimeout = core.FailTimeout
)

// WireVersion is the JSON wire schema generation ("v" field) stamped
// into every versioned document and event line the toolchain emits.
const WireVersion = wire.Version

// The data models the pipeline converts under, as named in job specs,
// audits, and reports.
const (
	ModelNetwork      = core.ModelNetwork
	ModelHierarchical = core.ModelHierarchical
)

// The shared exit-code table: what a CLI run exits with, and — via
// ExitCode.HTTPStatus — what the daemon serves a finished job's report
// with.
const (
	ExitOK       = wire.ExitOK
	ExitError    = wire.ExitError
	ExitUsage    = wire.ExitUsage
	ExitFailOn   = wire.ExitFailOn
	ExitPipeline = wire.ExitPipeline
)

// The machine-readable error codes carried on every non-2xx ErrorDoc;
// see the wire-schema section of the package documentation for the
// full table with HTTP statuses.
const (
	CodeBadSpec   = wire.CodeBadSpec
	CodeNotFound  = wire.CodeNotFound
	CodeQueueFull = wire.CodeQueueFull
	CodeDraining  = wire.CodeDraining
	CodeNoWorker  = wire.CodeNoWorker
	CodeDeadline  = wire.CodeDeadline
	CodeCanceled  = wire.CodeCanceled
	CodeFailed    = wire.CodeFailed
	CodeFailOn    = wire.CodeFailOn
	CodePipeline  = wire.CodePipeline
	CodeInternal  = wire.CodeInternal
)

// ErrorCodeFor maps an exit code onto the error-code table — the token
// CLI exit paths print and the daemon serves for the same condition.
func ErrorCodeFor(c ExitCode) ErrorCode { return wire.CodeFor(c) }

// The failure policies; Budget(n) builds the bounded-tolerance one.
var (
	FailFast      = core.FailFast
	CollectErrors = core.CollectErrors
)

// Budget returns a failure policy tolerating up to n-1 Failed programs
// and aborting the batch on the nth.
func Budget(n int) FailurePolicy { return core.Budget(n) }

// Transient marks a stage error as retryable; see WithRetries.
func Transient(err error) error { return core.Transient(err) }

// The event kinds.
const (
	EvStageStart = obs.EvStageStart
	EvStageEnd   = obs.EvStageEnd
	EvHazard     = obs.EvHazard
	EvRewrite    = obs.EvRewrite
	EvDecision   = obs.EvDecision
	EvVerify     = obs.EvVerify
	EvOutcome    = obs.EvOutcome
	EvRetry      = obs.EvRetry
	EvPanic      = obs.EvPanic
	EvTimeout    = obs.EvTimeout
	EvCacheHit   = obs.EvCacheHit
	EvCacheMiss  = obs.EvCacheMiss
	EvCacheEvict = obs.EvCacheEvict
)

// The sentinel errors; see the package error contract.
var (
	ErrCanceled         = core.ErrCanceled
	ErrNotInvertible    = xform.ErrNotInvertible
	ErrHazardUnresolved = xform.ErrHazardUnresolved
	ErrFailureBudget    = core.ErrFailureBudget
	ErrTransient        = core.ErrTransient
)

// options collects functional-option state for Convert.
type options struct {
	analyst              Analyst
	parallelism          int
	migrationParallelism int
	metrics              bool
	verifyDB             *Database
	sink                 Sink
	programTimeout       time.Duration
	stageTimeout         time.Duration
	analystTimeout       time.Duration
	retries              int
	retryBackoff         time.Duration
	failurePolicy        FailurePolicy
	cache                *Cache
	trace                *TraceBuilder
	// inject arms a job's fault injector (JobOptions.Inject); only
	// NewJob sets it.
	inject *fault.Injector
}

// Option configures one Convert run.
type Option func(*options)

// WithAnalyst supplies the Conversion Analyst consulted for qualified
// conversions (default: the strict Policy that accepts nothing). Decide
// calls are serialized even during parallel runs.
func WithAnalyst(a Analyst) Option {
	return func(o *options) { o.analyst = a }
}

// WithParallelism bounds the worker pool converting the inventory.
// Zero or negative (and the default) means runtime.GOMAXPROCS(0); 1
// forces a serial run. Reports are deterministic at any setting.
func WithParallelism(n int) Option {
	return func(o *options) { o.parallelism = n }
}

// WithMigrationParallelism bounds the shard workers of the data
// migration pass. Zero or negative (and the default) means
// runtime.GOMAXPROCS(0); 1 forces a serial migration. The migrated
// database, reports, event streams, and traces are byte-identical at
// any setting.
func WithMigrationParallelism(n int) Option {
	return func(o *options) { o.migrationParallelism = n }
}

// WithMetrics times the run: every stage attempt of each program's
// analyze → convert → optimize → generate → verify chain is measured,
// its duration rides the attempt's stage-end event (EvStageEnd's Dur,
// and so the trace's stage spans and any stage-latency histogram fed
// from the events), and Convert and ConvertJob summarize the durations
// per stage in Report.Metrics. Untimed runs carry zero durations.
func WithMetrics() Option {
	return func(o *options) { o.metrics = true }
}

// WithVerifyDB supplies a populated source database: Convert migrates
// it through the plan (Report.TargetDB) and verifies every automatic
// conversion I/O-equivalent against the migrated data (§1.1).
// ConvertJob and ConvertJobs ignore it: there each Job's spec carries
// its own database, in its own model.
func WithVerifyDB(db *Database) Option {
	return func(o *options) { o.verifyDB = db }
}

// WithEventSink installs a structured event-log sink: every stage
// boundary, hazard finding, DML rewrite, Analyst decision, verification
// verdict and outcome is emitted as a typed Event. Within one program
// the events arrive in pipeline order at any parallelism. Compose sinks
// with MultiSink; a nil sink leaves the run unobserved.
func WithEventSink(s Sink) Option {
	return func(o *options) { o.sink = s }
}

// WithProgramTimeout budgets one program's whole analyze → verify
// chain; an expiry fails that program (Failed, FailTimeout evidence in
// its Audit), never the batch. Zero (the default) means unbounded.
func WithProgramTimeout(d time.Duration) Option {
	return func(o *options) { o.programTimeout = d }
}

// WithStageTimeout budgets each pipeline stage attempt. Zero (the
// default) means unbounded.
func WithStageTimeout(d time.Duration) Option {
	return func(o *options) { o.stageTimeout = d }
}

// WithAnalystTimeout budgets each Analyst.Decide call. An unresponsive
// analyst degrades to the strict-policy fallback: the consultation is
// recorded as a declined, timed-out Decision and the program routes to
// Manual. Zero (the default) means unbounded.
func WithAnalystTimeout(d time.Duration) Option {
	return func(o *options) { o.analystTimeout = d }
}

// WithRetries retries stage errors wrapped with Transient up to n
// times, pausing with capped exponential backoff starting at base (0 =
// the 50ms default). Backoff is deliberately jitter-free so audit
// trails and reports stay deterministic.
func WithRetries(n int, base time.Duration) Option {
	return func(o *options) { o.retries, o.retryBackoff = n, base }
}

// WithFailurePolicy decides what a Failed program does to the rest of
// the batch: FailFast (the default) aborts with ErrFailureBudget,
// CollectErrors completes the run around broken programs, Budget(n)
// tolerates n-1 failures.
func WithFailurePolicy(p FailurePolicy) Option {
	return func(o *options) { o.failurePolicy = p }
}

// WithCache installs a shared conversion cache: the pair-scoped
// artifacts (classified plan, target schema, rewrite rules, path
// graph, cost tables) and per-program analysis/conversion memos are
// computed once per content fingerprint and reused across Convert and
// ConvertJobs calls. Reports are byte-identical with or without a
// cache. A nil cache leaves conversion uncached.
func WithCache(c *Cache) Option {
	return func(o *options) { o.cache = c }
}

// WithTraceSink installs a trace builder (NewTraceBuilder): the run's
// event stream is folded into its span tree alongside any WithEventSink
// sink, and Convert attaches the finished tree as Report.Trace. The tree's
// structure — span IDs, parentage, order — is byte-identical at any
// parallelism; only the timing fields vary. ConvertJobs routes events
// into the builder too but leaves Report.Trace nil: one batch is one
// trace, and the caller holds the builder to Snapshot it.
func WithTraceSink(b *TraceBuilder) Option {
	return func(o *options) { o.trace = b }
}

// Convert is ConvertJob over a network-model pair: it classifies the
// src → dst schema change (or follows plan when non-nil, in which case
// dst may be nil), restructures the data given via WithVerifyDB, and
// converts every program.
func Convert(ctx context.Context, src, dst *Schema, plan *Plan,
	programs []*Program, opts ...Option) (*Report, error) {
	o := collect(opts)
	return o.convertJob(ctx, Job{Spec: NetworkSpec{Src: src, Dst: dst, Plan: plan, DB: o.verifyDB}, Programs: programs})
}

// ConvertJob converts one job in any data model: it classifies the
// spec's schema change (or follows its explicit plan), restructures the
// spec's database when it carries one, and converts every program
// concurrently on a bounded worker pool. Automatic conversions are
// verified if and only if the spec carries a database. The Report lists
// outcomes in submission order and is byte-identical across
// parallelism settings. NewJob builds a Job and its options from a
// wire JobSpec.
func ConvertJob(ctx context.Context, job Job, opts ...Option) (*Report, error) {
	return collect(opts).convertJob(ctx, job)
}

// NewJob loads a job submission: it validates spec, parses its schema
// pair in the spec's data model and its programs, and, when the spec
// carries a verify_init program, runs it against an empty source
// database that the returned Job then carries for migration and
// verification. The options map the spec's run options, inject
// included; callers append their own observers, cache and defaults,
// placing a default before these options so the spec's value wins.
// The daemon and the CLI both run a JobSpec this way, through
// ConvertJob. Errors name the spec field at fault.
func NewJob(spec *JobSpec) (Job, []Option, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, nil, err
	}
	var (
		net  NetworkSpec
		hier HierSpec
		err  error
	)
	hierarchical := spec.ModelName() == wire.ModelHierarchical
	if hierarchical {
		hier.Src, hier.Dst, err = parsePair(spec, ddl.ParseHierarchy)
	} else {
		net.Src, net.Dst, err = parsePair(spec, ddl.ParseNetwork)
	}
	if err != nil {
		return Job{}, nil, err
	}
	job := Job{Programs: make([]*Program, len(spec.Programs))}
	for i, p := range spec.Programs {
		if job.Programs[i], err = dbprog.Parse(p.Source); err != nil {
			return Job{}, nil, fmt.Errorf("programs[%d]: %w", i, err)
		}
	}
	if spec.Options.VerifyInit != "" {
		init, err := dbprog.Parse(spec.Options.VerifyInit)
		if err != nil {
			return Job{}, nil, fmt.Errorf("verify_init: %w", err)
		}
		var cfg dbprog.Config
		if hierarchical {
			hier.DB = hierstore.NewDB(hier.Src)
			cfg.Hier = hier.DB
		} else {
			net.DB = netstore.NewDB(net.Src)
			cfg.Net = net.DB
		}
		if _, err := dbprog.Run(init, cfg); err != nil {
			return Job{}, nil, fmt.Errorf("verify_init program: %w", err)
		}
	}
	job.Spec = net
	if hierarchical {
		job.Spec = hier
	}
	return job, jobOptions(&spec.Options), nil
}

// parsePair parses a spec's source and target DDL with parse.
func parsePair[S any](spec *JobSpec, parse func(string) (S, error)) (src, dst S, err error) {
	if src, err = parse(spec.SourceDDL); err != nil {
		return src, dst, fmt.Errorf("source_ddl: %w", err)
	}
	if dst, err = parse(spec.TargetDDL); err != nil {
		return src, dst, fmt.Errorf("target_ddl: %w", err)
	}
	return src, dst, nil
}

// jobOptions maps validated run options onto facade options. A zero
// migrate_parallel maps to no option, so the caller's default stands;
// an empty inject is never parsed.
func jobOptions(o *JobOptions) []Option {
	timeout, _ := wire.Duration(o.Timeout)
	stageTimeout, _ := wire.Duration(o.StageTimeout)
	analystTimeout, _ := wire.Duration(o.AnalystTimeout)
	policy, _ := wire.ParseFailurePolicy(o.OnFailure)
	opts := []Option{
		WithAnalyst(Policy{AcceptOrderChanges: o.AcceptOrder}),
		WithParallelism(o.Parallelism),
		WithProgramTimeout(timeout),
		WithStageTimeout(stageTimeout),
		WithAnalystTimeout(analystTimeout),
		WithRetries(o.Retries, 0),
		WithFailurePolicy(policy),
	}
	if o.MigrateParallel != 0 {
		opts = append(opts, WithMigrationParallelism(o.MigrateParallel))
	}
	if o.Inject != "" {
		inj, _ := fault.Parse(o.Inject)
		opts = append(opts, func(op *options) { op.inject = inj })
	}
	return opts
}

func (o *options) convertJob(ctx context.Context, job Job) (*Report, error) {
	o.traceOrder([]Job{job})
	report, err := o.supervisor().RunJob(o.armed(ctx), job)
	if err == nil && o.trace != nil {
		report.Trace = o.trace.Snapshot()
	}
	return report, err
}

// ConvertJobs converts the inventories of many schema pairs in one
// batch on one shared worker pool: reports[i] belongs to jobs[i], is
// assembled at submission order, and is byte-identical at any
// parallelism. Jobs carrying a DB are migrated and their automatic
// conversions verified; the failure policy budget spans the whole
// batch. Combine with WithCache to reuse pair-scoped work across jobs
// and batches. WithVerifyDB is ignored here — each Job carries its own
// database.
func ConvertJobs(ctx context.Context, jobs []Job, opts ...Option) ([]*Report, error) {
	o := collect(opts)
	o.traceOrder(jobs)
	return o.supervisor().RunJobs(o.armed(ctx), jobs)
}

// collect applies opts to a fresh option set.
func collect(opts []Option) *options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &o
}

// armed returns ctx carrying the job's fault injector, if it has one.
func (o *options) armed(ctx context.Context) context.Context {
	if o.inject == nil {
		return ctx
	}
	return fault.With(ctx, o.inject)
}

// traceOrder fixes the trace builder's program order to the jobs'
// submission order.
func (o *options) traceOrder(jobs []Job) {
	if o.trace == nil {
		return
	}
	var names []string
	for _, j := range jobs {
		for _, p := range j.Programs {
			names = append(names, p.Name)
		}
	}
	o.trace.SetPrograms(names)
}

// supervisor builds the configured core.Supervisor shared by ConvertJob
// and ConvertJobs.
func (o *options) supervisor() *core.Supervisor {
	sup := core.NewSupervisor()
	if o.analyst != nil {
		sup.Analyst = o.analyst
	}
	sup.Parallelism = o.parallelism
	sup.MigrationParallelism = o.migrationParallelism
	sup.Metrics = o.metrics
	sup.Events = o.sink
	if o.trace != nil {
		sup.Events = obs.MultiSink(o.trace, o.sink)
	}
	sup.ProgramTimeout = o.programTimeout
	sup.StageTimeout = o.stageTimeout
	sup.AnalystTimeout = o.analystTimeout
	sup.Retries = o.retries
	sup.RetryBackoff = o.retryBackoff
	sup.FailurePolicy = o.failurePolicy
	sup.Cache = o.cache
	return sup
}

// NewCache returns a conversion cache retaining up to maxPairs pair
// contexts (<= 0 means 64), plus generously bounded per-program memos.
// Install it with WithCache; one cache may serve any number of
// concurrent Convert and ConvertJobs calls.
func NewCache(maxPairs int) *Cache { return plancache.New(maxPairs) }

// NewRingSink returns a bounded in-memory event sink keeping the newest
// capacity events.
func NewRingSink(capacity int) *RingSink { return obs.NewRingSink(capacity) }

// NewJSONLSink returns a sink streaming events to w as wire-versioned
// JSON lines.
func NewJSONLSink(w io.Writer) *JSONLSink { return wire.NewJSONLSink(w) }

// NewTally returns a counter-folding sink for metrics export.
func NewTally() *Tally { return obs.NewTally() }

// MultiSink composes event sinks; nils are skipped.
func MultiSink(sinks ...Sink) Sink { return obs.MultiSink(sinks...) }

// EncodeJSONL writes captured events one wire-versioned JSON object
// per line; omitTiming drops the wall-clock fields for byte-stable
// output.
func EncodeJSONL(w io.Writer, events []Event, omitTiming bool) error {
	return wire.EncodeJSONL(w, events, omitTiming)
}

// EncodeReportJSON writes the wire-versioned JSON document for a
// Report — the same bytes the progconvd daemon serves for a finished
// job and the CLI's -report-json flag writes, deterministic at any
// parallelism.
func EncodeReportJSON(w io.Writer, r *Report) error {
	return wire.EncodeReport(w, r)
}

// ExitCodeFor classifies a completed run against the shared exit-code
// table: ExitPipeline (4) when programs failed in the pipeline,
// ExitFailOn (3) when the failOn gate ("manual" or "qualified") trips,
// ExitOK otherwise. The message explains a non-zero code.
func ExitCodeFor(r *Report, failOn string) (ExitCode, string) {
	return wire.ExitFor(r, failOn)
}

// NewTraceBuilder starts a trace for WithTraceSink: id becomes the
// TraceID (DeriveTraceID, or an inbound traceparent's), name the root
// span's display name.
func NewTraceBuilder(id TraceID, name string) *TraceBuilder {
	return telemetry.NewTraceBuilder(id, name)
}

// DeriveTraceID derives a deterministic TraceID from content parts —
// hash the run's inputs (and a submission index) rather than a clock,
// so re-running the same job yields the same trace identity.
func DeriveTraceID(parts ...string) TraceID {
	return telemetry.DeriveTraceID(parts...)
}

// ParseTraceparent parses a W3C traceparent header into its trace and
// parent-span IDs, rejecting malformed headers — the inbound half of
// cross-process trace propagation.
func ParseTraceparent(h string) (TraceID, SpanID, error) {
	return telemetry.ParseTraceparent(h)
}

// Traceparent renders the W3C traceparent header for a trace/span pair
// — the outbound half of cross-process trace propagation.
func Traceparent(t TraceID, s SpanID) string {
	return telemetry.Traceparent(t, s)
}

// EncodeTraceJSON writes a span tree as the wire-versioned JSON
// document the daemon serves at /v1/jobs/{id}/trace; omitTiming drops
// the wall-clock fields for byte-stable output.
func EncodeTraceJSON(w io.Writer, tr *Trace, omitTiming bool) error {
	return wire.EncodeTrace(w, tr, omitTiming)
}

// WriteTraceChrome renders a span tree as Chrome trace_event JSON
// loadable in chrome://tracing or Perfetto: one thread per program,
// stage spans as complete events, and cache probes, retries, verdicts
// and faults as instant events.
func WriteTraceChrome(w io.Writer, tr *Trace) error {
	return telemetry.WriteChromeTrace(w, tr)
}

// WritePrometheus renders a tally's counter families in Prometheus
// text exposition format; a nil tally writes nothing.
func WritePrometheus(w io.Writer, t *Tally) error {
	reg := telemetry.NewRegistry()
	reg.Tally(t)
	return reg.WritePrometheus(w)
}

// ParseProgram parses database-program source text in any of the four
// embedded DML dialects.
func ParseProgram(src string) (*Program, error) { return dbprog.Parse(src) }

// FormatProgram renders a (converted) program back to source text.
func FormatProgram(p *Program) string { return dbprog.Format(p) }

// NewDatabase returns an empty network database instance over s, ready
// to populate and hand to WithVerifyDB.
func NewDatabase(s *Schema) *Database { return netstore.NewDB(s) }

// NewHierDatabase returns an empty hierarchical database instance over
// h, ready to populate and carry as a HierSpec's DB.
func NewHierDatabase(h *Hierarchy) *HierDatabase { return hierstore.NewDB(h) }

// ParseNetworkSchema parses Figure 4.3-style network DDL.
func ParseNetworkSchema(src string) (*Schema, error) { return ddl.ParseNetwork(src) }

// ParseHierarchySchema parses SEGMENT-form hierarchy DDL.
func ParseHierarchySchema(src string) (*Hierarchy, error) { return ddl.ParseHierarchy(src) }

// Classify infers the transformation plan explaining a src → dst schema
// change, failing with ErrHazardUnresolved for changes outside the
// catalogue.
func Classify(src, dst *Schema) (*Plan, error) { return xform.Classify(src, dst) }

// ClassifyHier infers the hierarchical plan explaining a src → dst
// hierarchy change — identity or a catalogued root promotion; anything
// else needs an explicit plan.
func ClassifyHier(src, dst *Hierarchy) (*HierPlan, error) { return xform.ClassifyHier(src, dst) }
