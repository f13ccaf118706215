// Package core is the Conversion Supervisor of Figure 4.1: the monitor
// that "oversees the operation of the other modules" — Conversion
// Analyzer (xform.Classify), Program Analyzer, Program Converter,
// Optimizer, and Program Generator — under the direction of a Conversion
// Analyst. The paper expects "an interactive system would be most
// successful"; the Analyst interface is that interaction point, and
// Policy is the replayable non-interactive analyst.
//
// The supervisor is a concurrent batch engine: per-program conversion is
// embarrassingly parallel (each analyze → convert → optimize → generate
// → verify chain reads only the shared schemas, plan, and migrated
// database), so RunJob fans the inventory out over a bounded worker pool
// while keeping the Report deterministic — outcomes land in submission
// order and are byte-identical to a serial run.
//
// # Error contract
//
// RunJob fails with typed sentinel errors checkable via errors.Is:
//
//   - ErrCanceled (wrapping context.Canceled or DeadlineExceeded) when
//     the context ends mid-batch;
//   - ErrFailureBudget when the failure policy's tolerance is exhausted
//     (under the default FailFast policy, on the first Failed program);
//   - xform.ErrHazardUnresolved when the schema diff is not explained by
//     the transformation catalogue (an Analyst must supply the plan);
//   - xform.ErrNotInvertible is never raised by RunJob itself but flows
//     through unchanged from plan-inversion helpers.
//
// Per-program conversion failures carry the program name in the message
// and wrap the stage error via %w.
//
// # Resilience
//
// Stage execution is isolated and budgeted: panics become Failed
// outcomes with the recovered value and stack preserved in the Audit,
// per-stage and per-program deadlines (StageTimeout, ProgramTimeout)
// bound runaway work, Analyst consultations are bounded by
// AnalystTimeout, and errors marked with Transient are retried with
// deterministic capped backoff. FailurePolicy decides whether a Failed
// program aborts the batch (FailFast, the default), is tolerated up to
// a budget (Budget), or merely degrades that program's outcome
// (CollectErrors). See resilience.go.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"progconv/internal/analyzer"
	"progconv/internal/convert"
	"progconv/internal/dbprog"
	"progconv/internal/equiv"
	"progconv/internal/fault"
	"progconv/internal/fingerprint"
	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/obs"
	"progconv/internal/optimizer"
	"progconv/internal/plancache"
	"progconv/internal/schema"
	"progconv/internal/telemetry"
	"progconv/internal/xform"
)

// ErrCanceled reports that a conversion run was abandoned because its
// context was canceled or its deadline passed. Errors returned by RunJob
// in that case satisfy errors.Is(err, ErrCanceled) as well as
// errors.Is(err, ctx.Err()).
var ErrCanceled = errors.New("core: conversion canceled")

func canceledErr(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// Analyst answers the questions automation cannot: whether a qualified
// conversion (one that weakens strict I/O equivalence, like an accepted
// order change) should proceed.
//
// The supervisor serializes Decide calls even during a parallel run, so
// implementations (interactive ones in particular) need no internal
// locking; calls arrive in a nondeterministic but non-overlapping order.
type Analyst interface {
	// Decide returns true to accept the qualified conversion of the named
	// program despite the issue.
	Decide(program string, issue analyzer.Issue) bool
}

// Policy is the non-interactive analyst: fixed, documented decisions.
type Policy struct {
	// AcceptOrderChanges accepts conversions whose output order may
	// change (§5.2's "levels of successful conversion": the program is
	// converted, with a warning, rather than strictly equivalent).
	AcceptOrderChanges bool
}

// Decide implements Analyst.
func (p Policy) Decide(program string, issue analyzer.Issue) bool {
	if issue.Kind == analyzer.OrderDependence {
		return p.AcceptOrderChanges
	}
	return false
}

// Disposition classifies a program's conversion outcome.
type Disposition uint8

// The dispositions.
const (
	// Auto: converted fully automatically, strict equivalence expected.
	Auto Disposition = iota
	// Qualified: converted after the Analyst accepted a weaker
	// equivalence (order change).
	Qualified
	// Manual: routed to hand conversion.
	Manual
	// Failed: the pipeline itself broke on this program — a stage
	// panicked, exceeded its budget, or errored past its retry
	// allowance. The Audit's Failure field holds the evidence.
	Failed
)

// String implements fmt.Stringer; unknown values render as
// "disposition(N)" rather than collapsing to an ambiguous placeholder.
func (d Disposition) String() string {
	switch d {
	case Auto:
		return "auto"
	case Qualified:
		return "qualified"
	case Manual:
		return "manual"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("disposition(%d)", uint8(d))
}

// MarshalText implements encoding.TextMarshaler so dispositions
// serialize cleanly in stats and report output.
func (d Disposition) MarshalText() ([]byte, error) {
	return []byte(d.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler, accepting exactly
// the strings MarshalText produces for the known dispositions.
func (d *Disposition) UnmarshalText(text []byte) error {
	switch string(text) {
	case "auto":
		*d = Auto
	case "qualified":
		*d = Qualified
	case "manual":
		*d = Manual
	case "failed":
		*d = Failed
	default:
		return fmt.Errorf("core: unknown disposition %q", text)
	}
	return nil
}

// Decision is one Analyst consultation preserved in the audit trail.
type Decision struct {
	Issue    analyzer.Issue
	Accepted bool
	// TimedOut reports that the Analyst did not answer within
	// AnalystTimeout; Accepted is then the strict-policy fallback
	// (declined).
	TimedOut bool
}

// Audit explains why an Outcome landed at its Disposition — the decision
// trail an auditor (or a later re-run) needs to reconstruct the
// supervisor's reasoning without replaying the conversion.
type Audit struct {
	// Reason is the one-line explanation of the disposition.
	Reason string
	// Model names the data model the program was converted under
	// (ModelNetwork or ModelHierarchical) — always set.
	Model string
	// Pair is the content fingerprint of the schema pair (source schema
	// plus plan) whose artifacts converted this program, so the trail
	// identifies which cached plan produced a rewrite even when the pair
	// context came from a shared cache.
	Pair string
	// Hazards lists the issue kinds found, in report order.
	Hazards []string
	// PlanStep is the catalogue name of the plan step implicated by
	// converter findings ("" when none was attributable).
	PlanStep string
	// Decisions are the Analyst consultations, in the order asked.
	Decisions []Decision
	// Failure is the evidence behind a Failed disposition (nil
	// otherwise): the broken stage, the failure kind, and — for panics —
	// the recovered value and stack.
	Failure *Failure
	// Retries are the transient-error retries taken while converting
	// this program, in order; present on successful outcomes too.
	Retries []Retry
}

// Outcome is one program's conversion record.
type Outcome struct {
	Name          string
	Disposition   Disposition
	Issues        []analyzer.Issue
	Notes         []string
	Optimizations []optimizer.Optimization
	Converted     *dbprog.Program
	// Generated is the Program Generator's rendering of Converted as
	// target source text ("" when nothing was converted).
	Generated string
	// Verified holds the equivalence check against the migrated data,
	// when the supervisor was given a database to verify with.
	Verified *equiv.Verdict
	// Audit records why the disposition was chosen.
	Audit Audit
}

// Report is the supervisor's full record of one conversion run.
type Report struct {
	// Model names the data model the run converted under (ModelNetwork
	// or ModelHierarchical).
	Model           string
	PlanDescription string
	Invertible      bool
	// TargetSchema and TargetDB are set for network-model runs,
	// TargetHierarchy and TargetHierDB for hierarchical ones.
	TargetSchema    *schema.Network
	TargetDB        *netstore.DB
	TargetHierarchy *schema.Hierarchy
	TargetHierDB    *hierstore.DB
	// MigrationWarnings are the data translation's per-occurrence
	// advisories (dropped unreachable occurrences, merged roots); the
	// network migrator raises none today.
	MigrationWarnings []string
	Outcomes          []Outcome
	// Metrics summarizes per-stage timings when the supervisor timed
	// the run (nil otherwise). It is rendered separately from String so
	// serial and parallel reports stay byte-identical.
	Metrics *obs.Metrics
	// DataPlane counts how the run's data-plane work executed: FIND
	// index probes vs scans across this run (migration + verification)
	// and fused vs stepwise migration steps. Like Metrics it is not part
	// of String(): the totals are deterministic at any parallelism, but
	// reports predating the fast path must stay byte-identical.
	DataPlane obs.DataPlane
	// Trace is the span tree assembled when the run was instrumented
	// with a trace builder (WithTraceSink; nil otherwise). Like Metrics
	// it is excluded from String() and from the wire report — the trace
	// has its own wire document and daemon endpoint.
	Trace *telemetry.Trace
}

// Counts returns (auto, qualified, manual).
func (r *Report) Counts() (auto, qualified, manual int) {
	for _, o := range r.Outcomes {
		switch o.Disposition {
		case Auto:
			auto++
		case Qualified:
			qualified++
		case Manual:
			manual++
		}
	}
	return
}

// FailedCount returns how many programs landed at Failed — possible
// only under the CollectErrors or Budget failure policies, which let a
// run complete around broken programs.
func (r *Report) FailedCount() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Disposition == Failed {
			n++
		}
	}
	return n
}

// String renders the report for the terminal.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString("CONVERSION PLAN\n")
	b.WriteString(r.PlanDescription)
	fmt.Fprintf(&b, "invertible: %v\n", r.Invertible)
	// Migration warnings render only when present, so network reports —
	// whose migrator raises none — keep their historical bytes.
	for _, w := range r.MigrationWarnings {
		fmt.Fprintf(&b, "migration: %s\n", w)
	}
	b.WriteString("\n")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "%-24s %s", o.Name, o.Disposition)
		if o.Verified != nil {
			if o.Verified.Equal {
				b.WriteString("  [verified]")
			} else {
				fmt.Fprintf(&b, "  [DIVERGED: %s]", o.Verified.Diff())
			}
		}
		b.WriteString("\n")
		for _, i := range o.Issues {
			fmt.Fprintf(&b, "    ! %s\n", i)
		}
		for _, n := range o.Notes {
			fmt.Fprintf(&b, "    ~ %s\n", n)
		}
		for _, op := range o.Optimizations {
			fmt.Fprintf(&b, "    * %s: %s\n", op.Rule, op.Note)
		}
		// Failure and retry evidence renders from configured budgets and
		// deterministic messages only (never stacks or wall-clock values),
		// keeping the report byte-identical at any parallelism.
		if f := o.Audit.Failure; f != nil {
			fmt.Fprintf(&b, "    x %s\n", f.Error())
		}
		for _, rt := range o.Audit.Retries {
			fmt.Fprintf(&b, "    ^ retry %d of %s after %s: %s\n",
				rt.Attempt, rt.Stage, rt.Backoff, rt.Err)
		}
	}
	auto, qualified, manual := r.Counts()
	if failed := r.FailedCount(); failed > 0 {
		fmt.Fprintf(&b, "\n%d auto, %d qualified, %d manual, %d failed of %d programs\n",
			auto, qualified, manual, failed, len(r.Outcomes))
	} else {
		fmt.Fprintf(&b, "\n%d auto, %d qualified, %d manual of %d programs\n",
			auto, qualified, manual, len(r.Outcomes))
	}
	return b.String()
}

// Supervisor orchestrates a conversion.
type Supervisor struct {
	Analyst Analyst
	// Parallelism bounds the worker pool converting the program
	// inventory. Zero or negative means runtime.GOMAXPROCS(0); 1 forces
	// a serial run. Reports are deterministic at any setting.
	Parallelism int
	// MigrationParallelism bounds the shard workers of the data
	// translation pass. Zero or negative means runtime.GOMAXPROCS(0);
	// 1 forces a serial migration. The migrated database and every
	// report field are byte-identical at any setting.
	MigrationParallelism int
	// Metrics times every stage attempt: the duration rides the
	// attempt's stage-end event, and RunJob folds those durations into
	// Report.Metrics.
	Metrics bool
	// Events, when non-nil, receives the structured event log: stage
	// boundaries, hazards, rewrites, Analyst decisions, verification
	// verdicts, and outcomes. Within one program the events arrive in
	// pipeline order regardless of Parallelism.
	Events obs.Sink

	// ProgramTimeout bounds one program's whole analyze → verify chain;
	// zero means unbounded. An expiry fails that program (Failed, with
	// FailTimeout evidence), not the batch.
	ProgramTimeout time.Duration
	// StageTimeout bounds each pipeline stage attempt; zero means
	// unbounded.
	StageTimeout time.Duration
	// AnalystTimeout bounds each Analyst.Decide call; zero means
	// unbounded. An expiry degrades to the strict-policy fallback
	// (declined) and is recorded as a timed-out Decision.
	AnalystTimeout time.Duration
	// Retries is how many times a stage attempt failing with a Transient
	// error is retried (0 = no retries).
	Retries int
	// RetryBackoff is the base backoff before the first retry, doubled
	// per attempt and capped; zero means the 50ms default. Backoff is
	// deliberately jitter-free so audit trails stay deterministic.
	RetryBackoff time.Duration
	// Sleep, when non-nil, replaces the real clock for retry backoff —
	// tests inject an instant sleeper so retry chains cost no wall time.
	// It must respect ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// FailurePolicy decides what a Failed program does to the rest of
	// the batch; the zero value is FailFast.
	FailurePolicy FailurePolicy

	// Cache, when non-nil, memoizes the pair-scoped artifacts (classified
	// plan, target schema, rewrite rules, access-path graph, cost tables)
	// and per-program analysis/conversion results across runs. One cache
	// is safe to share between concurrent supervisors; see plancache.
	Cache *plancache.Cache
}

// NewSupervisor returns a supervisor with the default strict policy.
func NewSupervisor() *Supervisor {
	return &Supervisor{Analyst: Policy{}}
}

func (s *Supervisor) workers(n int) int {
	w := s.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// migratePair runs the data-translation stage under the stage budget:
// StageTimeout bounds the migration like any other pipeline stage, and
// the sharded rebuild polls the deadline mid-extent, so a large
// database cannot stall a bounded run.
func (s *Supervisor) migratePair(ctx context.Context, pair ModelPair, r *Report) error {
	if s.StageTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.StageTimeout)
		defer cancel()
	}
	return pair.migrate(ctx, s, r)
}

// runState is the read-only context one job shares across workers, plus
// the batch-wide serialization point (the Analyst). In a multi-pair
// batch each job gets its own runState but all share one analyst mutex
// and one emitter.
type runState struct {
	pair ModelPair
	em   *obs.Emitter    // nil when the run is unobserved
	inj  *fault.Injector // nil unless a chaos harness armed the context

	analystMu *sync.Mutex
}

// PreparePair assembles the model pair for one spec, serving the
// pair-scoped artifacts from the supervisor's Cache when one is
// installed (building and memoizing on miss) and building them cold
// otherwise.
func (s *Supervisor) PreparePair(ctx context.Context, spec PairSpec) (ModelPair, error) {
	return spec.prepare(ctx, s)
}

// Job is one conversion-pair workload within a RunJobs batch.
type Job struct {
	// Spec describes the pair to convert, in any data model.
	Spec PairSpec
	// Programs is the pair's program inventory.
	Programs []*dbprog.Program
}

// RunJob converts a database application system in any data model: it
// classifies the schema change (unless the spec carries an explicit
// plan), restructures the spec's database when it carries one, and
// converts every program — "a database application system is converted
// when each program actually existing in the source system has been
// converted" (§1.1). Automatic conversions are verified if and only if
// the spec carries a database. Programs convert concurrently on the
// supervisor's worker pool; ctx cancels the batch (RunJob then fails
// with ErrCanceled). A timed run folds its stage-end durations into
// Report.Metrics.
func (s *Supervisor) RunJob(ctx context.Context, job Job) (*Report, error) {
	var m *telemetry.RunMetrics
	events := s.Events
	if s.Metrics {
		m = telemetry.NewRunMetrics()
		events = obs.MultiSink(events, m)
	}
	reports, err := s.runJobs(ctx, []Job{job}, events)
	if err != nil {
		return nil, err
	}
	reports[0].Metrics = m.Metrics()
	return reports[0], nil
}

// Run is RunJob over a network-model pair.
func (s *Supervisor) Run(ctx context.Context, src, dst *schema.Network, plan *xform.Plan,
	db *netstore.DB, progs []*dbprog.Program) (*Report, error) {
	return s.RunJob(ctx, Job{Spec: NetworkSpec{Src: src, Dst: dst, Plan: plan, DB: db}, Programs: progs})
}

// RunJobs converts the program inventories of many schema pairs in one
// batch: each job's pair context is prepared (or served from the
// Cache) and its data migrated up front, then every program from every
// job is interleaved on one shared worker pool. Sub-reports are
// assembled at submission order — reports[i] belongs to jobs[i] and is
// byte-identical at any parallelism. The failure-policy budget and the
// analyst serialization span the whole batch. Job reports carry no
// Metrics summary (RunJob, the single-job form, attaches one); a timed
// batch's stage durations reach the Events sink on stage-end events.
func (s *Supervisor) RunJobs(ctx context.Context, jobs []Job) ([]*Report, error) {
	return s.runJobs(ctx, jobs, s.Events)
}

// runJobs is RunJobs emitting into events, which is s.Events plus any
// run-scoped observer.
func (s *Supervisor) runJobs(ctx context.Context, jobs []Job, events obs.Sink) ([]*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(context.Cause(ctx))
	}
	em := obs.NewEmitter(events)
	// The emitter travels by context into the deeper layers (analyzer,
	// converter, equivalence checker, cache); WithEmitter is the identity
	// for a nil emitter, so unobserved runs pay nothing.
	ctx = obs.WithEmitter(ctx, em)
	inj := fault.From(ctx)
	analystMu := &sync.Mutex{}

	reports := make([]*Report, len(jobs))
	pairs := make([]ModelPair, len(jobs))
	var items []workItem
	for ji := range jobs {
		j := &jobs[ji]
		pair, err := s.PreparePair(ctx, j.Spec)
		if err != nil {
			var be *plancache.BuildError
			if errors.As(err, &be) && be.Phase == plancache.PhaseClassify {
				if specHasDB(j.Spec) {
					// The caller supplied a verification database; make clear
					// that the failure struck before any data was touched.
					return nil, fmt.Errorf("core: conversion analyzer: %w (the verify database was never migrated)", be.Err)
				}
				return nil, fmt.Errorf("core: conversion analyzer: %w", be.Err)
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, canceledErr(context.Cause(ctx))
			}
			return nil, err
		}
		report := &Report{
			Model:           pair.Model(),
			PlanDescription: pair.Description(),
			Invertible:      pair.Invertible(),
		}
		pair.attach(report)
		if err := s.migratePair(ctx, pair, report); err != nil {
			return nil, fmt.Errorf("core: data translation: %w", err)
		}
		run := &runState{pair: pair, em: em, inj: inj, analystMu: analystMu}
		report.Outcomes = make([]Outcome, len(j.Programs))
		for pi, p := range j.Programs {
			items = append(items, workItem{run: run, prog: p, out: &report.Outcomes[pi]})
		}
		reports[ji] = report
		pairs[ji] = pair
	}
	if err := s.convertItems(ctx, items); err != nil {
		return nil, err
	}
	// Fold in each job's data-plane activity (index probe/scan deltas
	// for the network model) after the batch drains.
	for ji := range jobs {
		pairs[ji].foldStats(reports[ji])
	}
	return reports, nil
}

// specHasDB reports whether a spec carries a verification database —
// error-message context for failures that strike before migration.
func specHasDB(spec PairSpec) bool {
	switch sp := spec.(type) {
	case NetworkSpec:
		return sp.DB != nil
	case HierSpec:
		return sp.DB != nil
	}
	return false
}

// workItem is one program's slot in a batch: the pair-scoped state it
// reads and the outcome cell it writes. Cells are pre-allocated at
// submission order, so scheduling can never move a result.
type workItem struct {
	run  *runState
	prog *dbprog.Program
	out  *Outcome
}

// convertItems drains the batch over the worker pool, writing each
// program's outcome into its submission-order cell. Serial and parallel
// runs share this one code path — a serial run is simply a pool of one
// worker — so failure-policy accounting cannot drift between them.
func (s *Supervisor) convertItems(ctx context.Context, items []workItem) error {
	if len(items) == 0 {
		return ctx.Err()
	}
	workers := s.workers(len(items))
	threshold := s.FailurePolicy.threshold()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failIdx  = -1
		failErr  error
		canceled bool
		failures int
		aborted  bool
	)
	fail := func(i int, err error) {
		mu.Lock()
		var abort *batchAbort
		switch {
		case !errors.As(err, &abort) &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
			// A worker observing the pool shutting down is not the root
			// cause; remember only that cancellation happened. A batch
			// abort is never reclassified this way — the failure that
			// exhausted the budget may itself carry a timeout's context
			// error, and it must still surface as ErrFailureBudget.
			canceled = true
		case failIdx < 0 || i < failIdx:
			// The lowest submission index with a genuine failure wins, so
			// the reported error matches what a serial run would surface.
			failIdx, failErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	idxs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxs {
				it := items[i]
				o, err := s.convertProgram(runCtx, it.run, it.prog)
				if err != nil {
					var f *Failure
					if !errors.As(err, &f) {
						fail(i, err)
						continue
					}
					// The pipeline broke on this program alone: land it at
					// Failed and let the policy decide the batch's fate.
					s.failProgram(it.run, &o, f)
					*it.out = o
					mu.Lock()
					failures++
					crossed := threshold > 0 && failures >= threshold && !aborted
					if crossed {
						aborted = true
					}
					mu.Unlock()
					if crossed {
						fail(i, &batchAbort{name: it.prog.Name, f: f})
					}
					continue
				}
				*it.out = o
			}
		}()
	}
feed:
	for i := range items {
		select {
		case idxs <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(idxs)
	wg.Wait()

	if failErr != nil {
		return failErr
	}
	if err := ctx.Err(); err != nil {
		return canceledErr(context.Cause(ctx))
	}
	if canceled {
		// Cancellation was observed but the parent context survived —
		// cannot happen with the pool's own cancel unless a stage raised
		// a context error spuriously; surface it rather than returning a
		// report with holes.
		return canceledErr(nil)
	}
	return nil
}

// convertOne runs the Figure 4.1 pipeline for a single program through
// the resilient stage runner: each stage executes under a recover
// barrier with fault injection, a per-stage budget, and transient-error
// retries. It returns a *Failure (as error) when this program alone
// should land at Failed, or the raw context error when the batch itself
// is ending.
func (s *Supervisor) convertOne(ctx context.Context, run *runState, p *dbprog.Program) (Outcome, error) {
	o := Outcome{Name: p.Name}
	o.Audit.Model = run.pair.Model()
	o.Audit.Pair = string(run.pair.Key())
	if err := ctx.Err(); err != nil {
		return o, s.classifyCtxErr(ctx, err)
	}

	// The program's content hash keys every program-scoped memo; compute
	// it once, only when a cache is installed.
	var ph fingerprint.Hash
	if s.Cache != nil {
		ph = fingerprint.Program(p)
	}

	em := run.em
	var abs *analyzer.Abstract
	if err := s.stage(ctx, run, p.Name, obs.StageAnalyze, &o, func(ctx context.Context) error {
		abs = s.Cache.Analyze(ctx, ph, run.pair.srcKey(), p.Name, func() *analyzer.Abstract {
			return run.pair.analyze(ctx, p)
		})
		return nil
	}); err != nil {
		return o, err
	}

	var res *convert.Result
	if err := s.stage(ctx, run, p.Name, obs.StageConvert, &o, func(ctx context.Context) error {
		var err error
		res, err = s.Cache.Convert(ctx, ph, run.pair.Key(), p.Name, func() (*convert.Result, error) {
			return run.pair.convertProg(ctx, abs)
		})
		return err
	}); err != nil {
		return o, err
	}
	o.Issues = res.Issues
	o.Notes = res.Notes
	for _, i := range res.Issues {
		o.Audit.Hazards = append(o.Audit.Hazards, i.Kind.String())
	}
	o.Audit.PlanStep = res.PlanStep
	switch {
	case res.Auto:
		o.Disposition = Auto
		o.Converted = res.Program
		o.Audit.Reason = "every statement matched a rewrite rule"
	case res.Program != nil:
		accepted, decisions := s.analystAccepts(run, p.Name, res.Issues)
		o.Audit.Decisions = decisions
		if accepted {
			o.Disposition = Qualified
			o.Converted = res.Program
			o.Audit.Reason = "analyst accepted a weaker equivalence"
		} else {
			o.Disposition = Manual
			o.Audit.Reason = manualReason(decisions, res.Issues)
		}
	default:
		o.Disposition = Manual
		o.Audit.Reason = "a blocking hazard stopped conversion"
	}
	if o.Converted != nil {
		// One memo covers optimize and generate; the rendering is kept
		// aside for the generate stage.
		var generated string
		if err := s.stage(ctx, run, p.Name, obs.StageOptimize, &o, func(ctx context.Context) error {
			converted := o.Converted
			o.Converted, o.Optimizations, generated = s.Cache.Codegen(ctx, ph, run.pair.Key(), p.Name,
				func() (*dbprog.Program, []optimizer.Optimization) { return run.pair.optimize(ctx, converted) })
			return nil
		}); err != nil {
			return o, err
		}

		if err := s.stage(ctx, run, p.Name, obs.StageGenerate, &o, func(ctx context.Context) error {
			o.Generated = generated
			return nil
		}); err != nil {
			return o, err
		}
	}
	if run.pair.verifiable() && o.Disposition == Auto && o.Converted != nil {
		if err := s.stage(ctx, run, p.Name, obs.StageVerify, &o, func(ctx context.Context) error {
			v := run.pair.verify(ctx, p, o.Converted)
			o.Verified = &v
			return nil
		}); err != nil {
			return o, err
		}
	}
	if err := ctx.Err(); err != nil {
		// A stage may have returned early under cancellation; do not let
		// its partial result stand as a real outcome.
		return o, s.classifyCtxErr(ctx, err)
	}
	em.Outcome(p.Name, o.Disposition.String(), o.Audit.Reason)
	return o, nil
}

// manualReason explains a Manual disposition for the audit trail.
func manualReason(decisions []Decision, issues []analyzer.Issue) string {
	for _, d := range decisions {
		if d.TimedOut {
			return fmt.Sprintf("the analyst consultation on the %s finding timed out", d.Issue.Kind)
		}
		if !d.Accepted {
			return fmt.Sprintf("analyst declined the %s finding", d.Issue.Kind)
		}
	}
	for _, i := range issues {
		switch i.Kind {
		case analyzer.OrderDependence, analyzer.ProcessFirst, analyzer.StatusCodeDependence:
		default:
			return fmt.Sprintf("the %s finding admits no qualified conversion", i.Kind)
		}
	}
	return "no finding qualified for analyst review"
}

// analystAccepts asks the analyst about every converter-raised issue; a
// qualified conversion needs every one accepted, and only order
// dependence is ever acceptable (anything else means the emitted text is
// not a correct program for the new schema). Decide calls are serialized
// so interactive analysts never field overlapping questions. The second
// result is the audit trail of every consultation actually made.
func (s *Supervisor) analystAccepts(run *runState, program string, issues []analyzer.Issue) (bool, []Decision) {
	any := false
	var decisions []Decision
	for _, i := range issues {
		switch i.Kind {
		case analyzer.OrderDependence:
			ok, timedOut := s.decide(run, program, i)
			decisions = append(decisions, Decision{Issue: i, Accepted: ok, TimedOut: timedOut})
			if timedOut {
				run.em.Timeout(program, "analyst", s.AnalystTimeout)
			}
			run.em.Decision(program, i.Kind.String(), i.Msg, ok)
			if !ok {
				return false, decisions
			}
			any = true
		case analyzer.ProcessFirst, analyzer.StatusCodeDependence:
			// Warnings; they do not gate the converted text.
		default:
			return false, decisions
		}
	}
	return any, decisions
}
