package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"progconv/internal/analyzer"
	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/fault"
	"progconv/internal/obs"
	"progconv/internal/schema"
)

// instantSleep is the injected sleeper: retry chains cost no wall time.
func instantSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// chaosCorpus generates the 50-program inventory the chaos acceptance
// test runs against.
func chaosCorpus(t *testing.T) []*dbprog.Program {
	t.Helper()
	p := corpus.Profile{
		Seed:      42,
		Divisions: 2, DeptsPerDiv: 2, EmpsPerDept: 2,
		Programs:               50,
		RateRunTimeVariability: 0.08,
		RateOrderDependence:    0.12,
		RateViewUpdate:         0.06,
	}
	members, err := corpus.Programs(p)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]*dbprog.Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	return progs
}

// TestChaosInjectedFaultsAtScale is the ISSUE's chaos acceptance
// criterion: a 50-program batch at parallelism 8 absorbs an injected
// panic, a stage timeout, and two transient errors; the run completes,
// the report is byte-identical to a serial run, the affected programs
// carry the evidence in their audit trails, and the Tally's fault
// counters reconcile exactly against the injected plan.
func TestChaosInjectedFaultsAtScale(t *testing.T) {
	progs := chaosCorpus(t)
	const stageBudget = 400 * time.Millisecond
	panicProg, delayProg := progs[3].Name, progs[10].Name
	transientA, transientB := progs[20].Name, progs[30].Name
	inj := fault.New(1,
		fault.Rule{Kind: fault.Panic, Prog: panicProg, Stage: "convert"},
		fault.Rule{Kind: fault.Delay, Prog: delayProg, Stage: "analyze", Delay: 10 * time.Second},
		fault.Rule{Kind: fault.Transient, Prog: transientA, Stage: "analyze"},
		fault.Rule{Kind: fault.Transient, Prog: transientB, Stage: "analyze"},
	)

	runAt := func(parallelism int) (*Report, *obs.Tally) {
		t.Helper()
		tally := obs.NewTally()
		sup := &Supervisor{
			Analyst:       Policy{},
			Parallelism:   parallelism,
			Events:        tally,
			StageTimeout:  stageBudget,
			Retries:       2,
			Sleep:         instantSleep,
			FailurePolicy: CollectErrors,
		}
		ctx := fault.With(context.Background(), inj)
		report, err := sup.Run(ctx, schema.CompanyV1(), nil, planFigure(), nil, progs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return report, tally
	}

	serial, serialTally := runAt(1)
	parallel, parallelTally := runAt(8)

	if s, p := serial.String(), parallel.String(); s != p {
		t.Fatalf("chaos report not byte-identical across parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}

	byName := map[string]*Outcome{}
	for i := range parallel.Outcomes {
		byName[parallel.Outcomes[i].Name] = &parallel.Outcomes[i]
	}
	if o := byName[panicProg]; o.Disposition != Failed ||
		o.Audit.Failure == nil || o.Audit.Failure.Kind != FailPanic {
		t.Errorf("%s = %+v, want Failed with panic evidence", panicProg, o)
	} else {
		wantMsg := fmt.Sprintf("injected panic at %s/convert attempt 0", panicProg)
		if o.Audit.Failure.Value != wantMsg {
			t.Errorf("panic value = %q, want %q", o.Audit.Failure.Value, wantMsg)
		}
		if o.Audit.Failure.Stack == "" {
			t.Error("panic failure lost its stack trace")
		}
	}
	if o := byName[delayProg]; o.Disposition != Failed ||
		o.Audit.Failure == nil || o.Audit.Failure.Kind != FailTimeout {
		t.Errorf("%s = %+v, want Failed with timeout evidence", delayProg, o)
	} else if o.Audit.Failure.Scope != "stage" || o.Audit.Failure.Budget != stageBudget {
		t.Errorf("timeout evidence = %+v, want stage scope at %s", o.Audit.Failure, stageBudget)
	}
	for _, name := range []string{transientA, transientB} {
		o := byName[name]
		if o.Disposition == Failed {
			t.Errorf("%s failed; a transient error with retry allowance must recover", name)
		}
		if len(o.Audit.Retries) != 1 || o.Audit.Retries[0].Stage != "analyze" {
			t.Errorf("%s retries = %+v, want one analyze retry", name, o.Audit.Retries)
		}
	}
	if got := parallel.FailedCount(); got != 2 {
		t.Errorf("failed count = %d, want 2", got)
	}
	if !strings.Contains(parallel.String(), "2 failed of 50 programs") {
		t.Errorf("summary missing failed count:\n%s", parallel.String())
	}

	// The Tally reconciles exactly against the injected fault plan, at
	// either parallelism.
	want := map[string]int64{"panic": 1, "timeout": 1, "retry": 2}
	for which, tally := range map[string]*obs.Tally{"serial": serialTally, "parallel": parallelTally} {
		got := tally.Faults()
		if len(got) != len(want) {
			t.Errorf("%s faults = %v, want %v", which, got, want)
		}
		for kind, n := range want {
			if got[kind] != n {
				t.Errorf("%s faults[%q] = %d, want %d", which, kind, got[kind], n)
			}
		}
	}
}

// TestChaosRepeatedRunsIdentical: the injector is a pure function of
// its rules and site, so re-running the same chaos plan gives the same
// report bytes — the property that makes chaos failures replayable.
func TestChaosRepeatedRunsIdentical(t *testing.T) {
	progs := chaosCorpus(t)
	run := func() string {
		inj := fault.New(9,
			fault.Rule{Kind: fault.Transient, Prog: "P-0*", Stage: "convert", Rate: 0.4},
		)
		sup := &Supervisor{Analyst: Policy{}, Parallelism: 4,
			Retries: 1, Sleep: instantSleep, FailurePolicy: CollectErrors}
		report, err := sup.Run(fault.With(context.Background(), inj),
			schema.CompanyV1(), nil, planFigure(), nil, progs)
		if err != nil {
			t.Fatal(err)
		}
		return report.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different reports:\n%s\n---\n%s", a, b)
	}
}

// TestResiliencePanicIsolatedFailFast: under the default policy a
// panicking stage aborts the batch with ErrFailureBudget — but as an
// error, never as a crash.
func TestResiliencePanicIsolatedFailFast(t *testing.T) {
	sup := NewSupervisor()
	inj := fault.New(1, fault.Rule{Kind: fault.Panic, Prog: "LIST-OLD", Stage: "analyze"})
	report, err := sup.Run(fault.With(context.Background(), inj),
		schema.CompanyV1(), nil, planFigure(), nil, applicationSystem(t))
	if report != nil {
		t.Error("aborted run still returned a report")
	}
	if !errors.Is(err, ErrFailureBudget) {
		t.Fatalf("err = %v, want ErrFailureBudget", err)
	}
	var f *Failure
	if !errors.As(err, &f) || f.Kind != FailPanic || f.Stage != "analyze" {
		t.Errorf("failure evidence = %+v", f)
	}
	if !strings.Contains(err.Error(), "LIST-OLD") {
		t.Errorf("error does not name the program: %v", err)
	}
}

// TestResilienceStageTimeoutFailFast: under the default policy a stage
// that outlives its budget aborts the batch with ErrFailureBudget, not
// ErrCanceled, at parallelism 1 and 8: the abort cancels the other
// programs, but the error names the timeout that caused it.
func TestResilienceStageTimeoutFailFast(t *testing.T) {
	progs := chaosCorpus(t)
	inj := fault.New(1,
		fault.Rule{Kind: fault.Delay, Prog: progs[10].Name, Stage: "analyze", Delay: 10 * time.Second},
	)
	for _, par := range []int{1, 8} {
		sup := &Supervisor{
			Analyst:       Policy{},
			Parallelism:   par,
			StageTimeout:  100 * time.Millisecond,
			FailurePolicy: FailFast,
		}
		ctx := fault.With(context.Background(), inj)
		_, err := sup.Run(ctx, schema.CompanyV1(), nil, planFigure(), nil, progs)
		if !errors.Is(err, ErrFailureBudget) || errors.Is(err, ErrCanceled) {
			t.Errorf("parallelism=%d: err = %v, want ErrFailureBudget and not ErrCanceled", par, err)
		}
	}
}

// TestResilienceTransientRetrySucceeds: a stage failing twice with
// Transient errors recovers on the third attempt; the audit trail and
// the injected sleeper both record the deterministic backoff ladder.
func TestResilienceTransientRetrySucceeds(t *testing.T) {
	var slept []time.Duration
	sup := &Supervisor{Analyst: Policy{}, Retries: 3,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return ctx.Err()
		}}
	inj := fault.New(1, fault.Rule{Kind: fault.Transient, Prog: "LIST-OLD", Stage: "convert", Count: 2})
	report, err := sup.Run(fault.With(context.Background(), inj),
		schema.CompanyV1(), nil, planFigure(), nil, applicationSystem(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	o := report.Outcomes[0]
	if o.Disposition != Auto {
		t.Errorf("disposition = %s, want auto after retries", o.Disposition)
	}
	wantBackoffs := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(o.Audit.Retries) != 2 {
		t.Fatalf("retries = %+v, want 2", o.Audit.Retries)
	}
	for i, rt := range o.Audit.Retries {
		if rt.Stage != "convert" || rt.Attempt != i+1 || rt.Backoff != wantBackoffs[i] {
			t.Errorf("retry %d = %+v", i, rt)
		}
		if !strings.Contains(rt.Err, "injected transient") {
			t.Errorf("retry %d error = %q", i, rt.Err)
		}
	}
	if len(slept) != 2 || slept[0] != wantBackoffs[0] || slept[1] != wantBackoffs[1] {
		t.Errorf("sleeper saw %v, want %v", slept, wantBackoffs)
	}
	if !strings.Contains(report.String(), "^ retry 1 of convert after 50ms") {
		t.Errorf("report missing retry evidence:\n%s", report)
	}
}

// TestResilienceRetriesExhausted: a fault outlasting the retry
// allowance lands as FailError carrying the attempt count and the
// transient classification.
func TestResilienceRetriesExhausted(t *testing.T) {
	sup := &Supervisor{Analyst: Policy{}, Retries: 2, Sleep: instantSleep}
	inj := fault.New(1, fault.Rule{Kind: fault.Transient, Prog: "LIST-OLD", Stage: "convert", Count: 99})
	_, err := sup.Run(fault.With(context.Background(), inj),
		schema.CompanyV1(), nil, planFigure(), nil, applicationSystem(t)[:1])
	if !errors.Is(err, ErrFailureBudget) || !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrFailureBudget wrapping ErrTransient", err)
	}
	var f *Failure
	if !errors.As(err, &f) || f.Kind != FailError || f.Attempts != 3 {
		t.Errorf("failure = %+v, want FailError after 3 attempts", f)
	}
}

// TestResilienceFailurePolicyBudget: Budget(n) tolerates n-1 failures
// and aborts on the nth; one more of headroom lets the batch complete.
func TestResilienceFailurePolicyBudget(t *testing.T) {
	progs := applicationSystem(t)
	inj := fault.New(1,
		fault.Rule{Kind: fault.Panic, Prog: "LIST-OLD", Stage: "analyze"},
		fault.Rule{Kind: fault.Panic, Prog: "PRINT-ALL", Stage: "analyze"},
	)
	run := func(p FailurePolicy) (*Report, error) {
		sup := &Supervisor{Analyst: Policy{}, Parallelism: 1, FailurePolicy: p}
		return sup.Run(fault.With(context.Background(), inj),
			schema.CompanyV1(), nil, planFigure(), nil, progs)
	}
	if _, err := run(Budget(2)); !errors.Is(err, ErrFailureBudget) {
		t.Errorf("Budget(2) with 2 failures: err = %v, want ErrFailureBudget", err)
	}
	report, err := run(Budget(3))
	if err != nil {
		t.Fatalf("Budget(3) with 2 failures: %v", err)
	}
	if report.FailedCount() != 2 {
		t.Errorf("failed = %d, want 2", report.FailedCount())
	}
	if got := Budget(0); got != FailurePolicy(Budget(1)) {
		t.Errorf("Budget(0) = %v, want fail-fast", got)
	}
	for p, want := range map[FailurePolicy]string{
		FailFast: "fail-fast", CollectErrors: "collect-errors", Budget(4): "budget(4)",
	} {
		if p.String() != want {
			t.Errorf("%#v.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// TestResilienceProgramBudget: a stalled stage trips the per-program
// deadline and the evidence names the program scope, not the stage one.
func TestResilienceProgramBudget(t *testing.T) {
	sup := &Supervisor{Analyst: Policy{},
		ProgramTimeout: 100 * time.Millisecond, FailurePolicy: CollectErrors}
	inj := fault.New(1, fault.Rule{Kind: fault.Delay, Prog: "LIST-OLD", Stage: "analyze", Delay: 10 * time.Second})
	report, err := sup.Run(fault.With(context.Background(), inj),
		schema.CompanyV1(), nil, planFigure(), nil, applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	o := report.Outcomes[0]
	f := o.Audit.Failure
	if o.Disposition != Failed || f == nil || f.Kind != FailTimeout || f.Scope != "program" {
		t.Fatalf("outcome = %+v, want program-budget timeout", o)
	}
	if f.Budget != 100*time.Millisecond {
		t.Errorf("budget = %s", f.Budget)
	}
	// The other programs were untouched by the neighbour's expiry.
	for _, other := range report.Outcomes[1:] {
		if other.Disposition == Failed {
			t.Errorf("%s failed alongside the budgeted program", other.Name)
		}
	}
}

// slowAnalyst blocks long enough to trip any reasonable bound.
type slowAnalyst struct{ d time.Duration }

func (a slowAnalyst) Decide(string, analyzer.Issue) bool {
	time.Sleep(a.d)
	return true
}

// TestResilienceAnalystTimeout: an unresponsive Analyst degrades to the
// strict-policy fallback — the consultation is recorded as declined and
// timed out, the program routes to Manual, and the batch never stalls.
func TestResilienceAnalystTimeout(t *testing.T) {
	tally := obs.NewTally()
	sup := &Supervisor{Analyst: slowAnalyst{d: 2 * time.Second},
		AnalystTimeout: 25 * time.Millisecond, Events: tally}
	start := time.Now()
	report, err := sup.Run(context.Background(),
		schema.CompanyV1(), nil, planFigure(), nil, applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Errorf("run stalled %s behind the analyst", wall)
	}
	var printAll *Outcome
	for i := range report.Outcomes {
		if report.Outcomes[i].Name == "PRINT-ALL" {
			printAll = &report.Outcomes[i]
		}
	}
	if printAll.Disposition != Manual {
		t.Fatalf("PRINT-ALL = %s, want manual via the fallback", printAll.Disposition)
	}
	d := printAll.Audit.Decisions
	if len(d) != 1 || !d[0].TimedOut || d[0].Accepted {
		t.Errorf("decisions = %+v, want one declined, timed-out consultation", d)
	}
	if !strings.Contains(printAll.Audit.Reason, "timed out") {
		t.Errorf("reason = %q", printAll.Audit.Reason)
	}
	if tally.Faults()["timeout"] != 1 {
		t.Errorf("faults = %v, want one timeout", tally.Faults())
	}
}

// panicAnalyst models a broken interactive integration.
type panicAnalyst struct{}

func (panicAnalyst) Decide(string, analyzer.Issue) bool { panic("analyst UI disconnected") }

// TestResilienceAnalystPanicIsolated: a panic inside the Analyst —
// outside any pipeline stage — is caught by the per-program barrier and
// attributed to the supervisor scope.
func TestResilienceAnalystPanicIsolated(t *testing.T) {
	sup := &Supervisor{Analyst: panicAnalyst{}, FailurePolicy: CollectErrors}
	report, err := sup.Run(context.Background(),
		schema.CompanyV1(), nil, planFigure(), nil, applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	var printAll *Outcome
	for i := range report.Outcomes {
		if report.Outcomes[i].Name == "PRINT-ALL" {
			printAll = &report.Outcomes[i]
		}
	}
	f := printAll.Audit.Failure
	if printAll.Disposition != Failed || f == nil || f.Kind != FailPanic || f.Stage != "supervisor" {
		t.Fatalf("outcome = %+v, want supervisor-scope panic evidence", printAll)
	}
	if f.Value != "analyst UI disconnected" || f.Stack == "" {
		t.Errorf("failure = %+v", f)
	}
	if got := report.FailedCount(); got != 1 {
		t.Errorf("failed = %d, want only the analyst-gated program", got)
	}
}

// TestResilienceFailedDispositionCodec: the new disposition round-trips
// through the text codec like the originals.
func TestResilienceFailedDispositionCodec(t *testing.T) {
	b, err := Failed.MarshalText()
	if err != nil || string(b) != "failed" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var d Disposition
	if err := d.UnmarshalText([]byte("failed")); err != nil || d != Failed {
		t.Fatalf("UnmarshalText = %v, %v", d, err)
	}
}
