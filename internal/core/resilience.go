package core

// The supervisor's resilience layer. A production batch over a large
// inventory must survive its own pipeline: a panicking parser, a stage
// that stalls, an interactive analyst who walked away, a flaky external
// dependency. This file contains the machinery that turns each of those
// into a bounded, audited, per-program outcome instead of a crashed or
// hung run:
//
//   - panic isolation: every stage executes under a recover barrier (and
//     a second barrier wraps the whole per-program pipeline), so a panic
//     becomes a Failed outcome carrying the value and stack in the Audit;
//   - budgets: per-program and per-stage context deadlines, plus a bound
//     on each Analyst.Decide call;
//   - retries: errors classified transient via Transient/ErrTransient are
//     retried with capped exponential backoff — deterministic (no jitter)
//     so chaos reports stay byte-identical, with the sleeper injectable
//     so tests never touch the wall clock;
//   - failure policy: FailFast, CollectErrors, or Budget(n) decide
//     whether a Failed outcome aborts the batch.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"progconv/internal/analyzer"
	"progconv/internal/dbprog"
	"progconv/internal/fault"
	"progconv/internal/obs"
)

// ErrTransient marks an error as retryable. Stage errors wrapped with
// Transient satisfy errors.Is(err, ErrTransient) and are retried up to
// Supervisor.Retries times before the program is marked Failed.
var ErrTransient = errors.New("core: transient")

// Transient wraps err as retryable; errors.Is finds both ErrTransient
// and the original error through the wrapper. Transient(nil) is nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// ErrFailureBudget reports that a batch aborted because its failure
// policy's tolerance was exhausted. Every policy-driven abort —
// including FailFast's abort on the first failure — wraps it.
var ErrFailureBudget = errors.New("core: failure budget exhausted")

// FailurePolicy decides what a Failed outcome does to the rest of the
// batch. The zero value is FailFast.
type FailurePolicy struct {
	// limit: 0 = fail fast (abort at the first failure), <0 = collect
	// (never abort), n>0 = abort when the nth failure lands.
	limit int
}

// The failure policies.
var (
	// FailFast aborts the batch at the first Failed outcome — the
	// default, matching the supervisor's historical contract that a
	// broken conversion surfaces as a run error.
	FailFast = FailurePolicy{}
	// CollectErrors never aborts: every failure degrades to a Failed
	// outcome and the report covers the full inventory. Reports stay
	// byte-deterministic at any parallelism.
	CollectErrors = FailurePolicy{limit: -1}
)

// Budget returns a policy that tolerates up to n-1 Failed outcomes and
// aborts the batch when the nth lands (n < 1 is treated as 1, i.e.
// FailFast).
func Budget(n int) FailurePolicy {
	if n < 1 {
		n = 1
	}
	return FailurePolicy{limit: n}
}

// threshold is the failure count at which the batch aborts; 0 means
// never.
func (p FailurePolicy) threshold() int {
	switch {
	case p.limit < 0:
		return 0
	case p.limit == 0:
		return 1
	}
	return p.limit
}

// String implements fmt.Stringer.
func (p FailurePolicy) String() string {
	switch {
	case p.limit < 0:
		return "collect-errors"
	case p.limit == 0 || p.limit == 1:
		return "fail-fast"
	}
	return fmt.Sprintf("budget(%d)", p.limit)
}

// FailureKind classifies why a program's conversion failed.
type FailureKind uint8

// The failure kinds.
const (
	// FailError: a stage returned an unrecoverable (or
	// retries-exhausted) error.
	FailError FailureKind = iota
	// FailPanic: a stage or the supervisor's own glue panicked; the
	// recovered value and stack are preserved.
	FailPanic
	// FailTimeout: a per-stage or per-program budget expired.
	FailTimeout
)

// String implements fmt.Stringer.
func (k FailureKind) String() string {
	switch k {
	case FailError:
		return "error"
	case FailPanic:
		return "panic"
	case FailTimeout:
		return "timeout"
	}
	return fmt.Sprintf("failure(%d)", uint8(k))
}

// Failure is the audit evidence behind a Failed disposition: which
// stage broke, how, and after how many attempts. Its rendered forms use
// only configured budgets and deterministic messages so reports remain
// byte-identical at any parallelism; the Stack is kept for debugging
// but never rendered by Report.String.
type Failure struct {
	// Stage is the pipeline stage name ("analyze" … "verify"), or
	// "supervisor" when the fault struck outside any stage, or "program"
	// for a program-budget expiry between stages.
	Stage string
	// Scope is "stage" or "program" for timeouts, "" otherwise.
	Scope string
	// Kind classifies the failure.
	Kind FailureKind
	// Err is the underlying error (nil for panics).
	Err error
	// Value is the recovered panic value, rendered to a string.
	Value string
	// Stack is the panic stack trace (FailPanic only).
	Stack string
	// Budget is the expired budget (FailTimeout only).
	Budget time.Duration
	// Attempts counts executions of the failing stage (1 + retries).
	Attempts int
}

// Error implements error with a deterministic, report-stable message.
func (f *Failure) Error() string {
	switch f.Kind {
	case FailPanic:
		return fmt.Sprintf("panic in the %s stage: %s", f.Stage, f.Value)
	case FailTimeout:
		if f.Scope == "program" {
			return fmt.Sprintf("program budget %s exceeded in the %s stage", f.Budget, f.Stage)
		}
		return fmt.Sprintf("%s stage exceeded its %s budget", f.Stage, f.Budget)
	}
	if f.Attempts > 1 {
		return fmt.Sprintf("%s stage failed after %d attempts: %v", f.Stage, f.Attempts, f.Err)
	}
	return fmt.Sprintf("%s stage failed: %v", f.Stage, f.Err)
}

// Unwrap exposes the underlying stage error to errors.Is/As.
func (f *Failure) Unwrap() error { return f.Err }

// reason is the one-line audit explanation of the Failed disposition.
func (f *Failure) reason() string {
	switch f.Kind {
	case FailPanic:
		return fmt.Sprintf("a panic was isolated in the %s stage", f.Stage)
	case FailTimeout:
		if f.Scope == "program" {
			return "the program budget expired"
		}
		return fmt.Sprintf("the %s stage budget expired", f.Stage)
	}
	if f.Attempts > 1 {
		return fmt.Sprintf("the %s stage failed after %d attempts", f.Stage, f.Attempts)
	}
	return fmt.Sprintf("the %s stage failed", f.Stage)
}

// Retry is one transient-error retry preserved in the audit trail —
// present on successful outcomes too, so "converted, but needed two
// tries" is visible after the fact.
type Retry struct {
	// Stage is the retried stage's name.
	Stage string
	// Attempt is the 1-based retry number.
	Attempt int
	// Err is the transient error that triggered the retry.
	Err string
	// Backoff is the deterministic pause taken before the retry.
	Backoff time.Duration
}

// Budget causes: context cancellation carries one of these so the
// supervisor can tell its own deadlines apart from a batch abort.
var (
	errProgramBudget = errors.New("core: program budget exceeded")
	errStageBudget   = errors.New("core: stage budget exceeded")
)

// Default retry backoff: base doubles per attempt, capped.
const (
	defaultRetryBackoff = 50 * time.Millisecond
	maxRetryBackoff     = 5 * time.Second
)

// retryBackoff returns the pause before retry attempt (0-based): base
// doubled per attempt, capped. Deliberately jitter-free — backoff values
// land in the audit trail and the event log, which must stay
// byte-deterministic; a paper-scale batch has no thundering herd to
// spread.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = defaultRetryBackoff
	}
	d := base << uint(attempt)
	if d > maxRetryBackoff || d <= 0 {
		return maxRetryBackoff
	}
	return d
}

// Backoff is the exported form of the retry backoff schedule, so other
// layers that retry (the v1 client SDK, the dispatch coordinator) pace
// themselves identically to the supervisor instead of growing a second
// formula.
func Backoff(base time.Duration, attempt int) time.Duration {
	return retryBackoff(base, attempt)
}

// sleep pauses for d or until ctx ends, through the injected sleeper
// when one is set (tests pass a recording sleeper so retry chains never
// touch the wall clock).
func (s *Supervisor) sleep(ctx context.Context, d time.Duration) error {
	if s.Sleep != nil {
		return s.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// panicRecord is one recovered panic.
type panicRecord struct {
	value any
	stack string
}

// protect runs one stage attempt under a recover barrier, applying any
// context-carried fault injection first. After a successful fn it
// enforces the context: a stage that overran its budget does not get to
// keep its result, which makes budgets effective even for stages that
// never check ctx themselves.
func protect(ctx context.Context, inj *fault.Injector, prog, stage string,
	attempt int, fn func(context.Context) error) (err error, pan *panicRecord) {
	defer func() {
		if v := recover(); v != nil {
			err = nil
			pan = &panicRecord{value: v, stack: string(debug.Stack())}
		}
	}()
	if f := inj.At(prog, stage, attempt); f != nil {
		switch f.Kind {
		case fault.Panic:
			panic(f.Msg)
		case fault.Transient:
			return Transient(errors.New(f.Msg)), nil
		case fault.Delay:
			t := time.NewTimer(f.Delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err(), nil
			}
		}
	}
	if err := fn(ctx); err != nil {
		return err, nil
	}
	return ctx.Err(), nil
}

// stage runs one pipeline stage for one program with the full
// resilience contract: fault injection, panic recovery, per-stage
// budget, transient retries with backoff. It returns nil on success, a
// *Failure (as error) when the program should land at Failed, or the
// raw context error when the batch itself is being canceled. Retries
// are appended to o's audit trail as they happen.
func (s *Supervisor) stage(ctx context.Context, run *runState, prog string,
	st obs.Stage, o *Outcome, fn func(context.Context) error) error {
	em := run.em
	name := st.String()
	for attempt := 0; ; attempt++ {
		stageCtx := ctx
		var cancel context.CancelFunc
		if s.StageTimeout > 0 {
			stageCtx, cancel = context.WithTimeoutCause(ctx, s.StageTimeout, errStageBudget)
		}
		em.StageStart(prog, st)
		start := time.Now()
		err, pan := protect(stageCtx, run.inj, prog, name, attempt, fn)
		var dur time.Duration
		if s.Metrics {
			dur = time.Since(start)
		}
		em.StageEnd(prog, st, dur)
		var cause error
		if err != nil {
			cause = context.Cause(stageCtx)
		}
		if cancel != nil {
			cancel()
		}
		switch {
		case pan != nil:
			return &Failure{Stage: name, Kind: FailPanic,
				Value: fmt.Sprint(pan.value), Stack: pan.stack, Attempts: attempt + 1}
		case err == nil:
			return nil
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			switch cause {
			case errStageBudget:
				return &Failure{Stage: name, Scope: "stage", Kind: FailTimeout,
					Err: err, Budget: s.StageTimeout, Attempts: attempt + 1}
			case errProgramBudget:
				return &Failure{Stage: name, Scope: "program", Kind: FailTimeout,
					Err: err, Budget: s.ProgramTimeout, Attempts: attempt + 1}
			}
			return err // the batch is going down; not this program's fault
		case errors.Is(err, ErrTransient) && attempt < s.Retries:
			backoff := retryBackoff(s.RetryBackoff, attempt)
			em.Retry(prog, name, attempt+1, backoff, err.Error())
			o.Audit.Retries = append(o.Audit.Retries,
				Retry{Stage: name, Attempt: attempt + 1, Err: err.Error(), Backoff: backoff})
			if serr := s.sleep(ctx, backoff); serr != nil {
				if context.Cause(ctx) == errProgramBudget {
					return &Failure{Stage: name, Scope: "program", Kind: FailTimeout,
						Err: serr, Budget: s.ProgramTimeout, Attempts: attempt + 1}
				}
				return serr
			}
		default:
			return &Failure{Stage: name, Kind: FailError, Err: err, Attempts: attempt + 1}
		}
	}
}

// failProgram lands o at Failed with f as evidence, emitting the
// panic/timeout event (exactly once per failure — here, not in stage)
// and the closing outcome event.
func (s *Supervisor) failProgram(run *runState, o *Outcome, f *Failure) {
	o.Disposition = Failed
	o.Audit.Failure = f
	o.Audit.Reason = f.reason()
	switch f.Kind {
	case FailPanic:
		run.em.Panic(o.Name, f.Stage, f.Value)
	case FailTimeout:
		scope := f.Stage
		if f.Scope == "program" {
			scope = "program"
		}
		run.em.Timeout(o.Name, scope, f.Budget)
	}
	run.em.Outcome(o.Name, Failed.String(), o.Audit.Reason)
}

// convertOneIsolated is the per-program fault barrier around
// convertOne: a panic anywhere in the pipeline — including supervisor
// glue and Analyst implementations — degrades to a Failed outcome
// instead of crashing the worker pool.
func (s *Supervisor) convertOneIsolated(ctx context.Context, run *runState,
	p *dbprog.Program) (o Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			o = Outcome{Name: p.Name}
			err = &Failure{Stage: "supervisor", Kind: FailPanic,
				Value: fmt.Sprint(v), Stack: string(debug.Stack()), Attempts: 1}
		}
	}()
	return s.convertOne(ctx, run, p)
}

// convertProgram is the worker entry point for one program: the
// per-program budget plus the panic barrier around the whole pipeline.
func (s *Supervisor) convertProgram(ctx context.Context, run *runState,
	p *dbprog.Program) (Outcome, error) {
	if s.ProgramTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.ProgramTimeout, errProgramBudget)
		defer cancel()
	}
	return s.convertOneIsolated(ctx, run, p)
}

// classifyCtxErr turns a between-stage context error into a Failure
// when this program's own budget expired; a batch cancellation passes
// through untouched.
func (s *Supervisor) classifyCtxErr(ctx context.Context, err error) error {
	if context.Cause(ctx) == errProgramBudget {
		return &Failure{Stage: "supervisor", Scope: "program", Kind: FailTimeout,
			Err: err, Budget: s.ProgramTimeout, Attempts: 1}
	}
	return err
}

// batchAbort is the error a failure policy raises when its tolerance is
// exhausted; it matches both ErrFailureBudget and the triggering
// failure's own error chain.
type batchAbort struct {
	name string
	f    *Failure
}

func (e *batchAbort) Error() string {
	return fmt.Sprintf("core: converting %s: %v", e.name, e.f)
}

// Unwrap exposes the sentinel and the failure to errors.Is/As.
func (e *batchAbort) Unwrap() []error { return []error{ErrFailureBudget, e.f} }

// decide consults the Analyst under the serialization lock, bounded by
// AnalystTimeout when one is set. A timeout degrades to a declined
// decision (the strict-policy fallback) and reports timedOut; an
// analyst panic is re-raised on the worker so the per-program barrier
// records it as a Failed outcome. After a timeout the abandoned Decide
// call keeps running on its own goroutine — its late answer is
// discarded, and the next consultation may overlap with it (but never
// with another live one).
func (s *Supervisor) decide(run *runState, program string, issue analyzer.Issue) (accepted, timedOut bool) {
	run.analystMu.Lock()
	defer run.analystMu.Unlock()
	if s.AnalystTimeout <= 0 {
		return s.Analyst.Decide(program, issue), false
	}
	type reply struct {
		ok  bool
		pan *panicRecord
	}
	ch := make(chan reply, 1)
	go func() {
		var r reply
		defer func() {
			if v := recover(); v != nil {
				r.pan = &panicRecord{value: v, stack: string(debug.Stack())}
			}
			ch <- r
		}()
		r.ok = s.Analyst.Decide(program, issue)
	}()
	t := time.NewTimer(s.AnalystTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		if r.pan != nil {
			panic(r.pan.value)
		}
		return r.ok, false
	case <-t.C:
		return false, true
	}
}
