package obs

// The structured event log. Every decision the Conversion Supervisor
// makes — stage boundaries, hazard findings, DML rewrites, Analyst
// consultations, verification verdicts, final dispositions — is emitted
// as a typed Event through a Sink. Sinks compose (MultiSink); a bounded
// RingSink for in-memory capture and the Tally counter collector in
// tally.go live here, the streaming wire.JSONLSink in internal/wire.
//
// Instrumented code holds an *Emitter, the nil-safe front door: a nil
// Emitter (no sink installed) makes every method a no-op without a
// single allocation, so the pipeline's hot path costs nothing when the
// run is not being observed. Within one program's conversion all events
// are emitted from that program's worker goroutine in pipeline order,
// so the per-program event subsequence is deterministic at any
// parallelism; Seq records the global interleaving of one run.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies one event-log entry.
type EventKind uint8

// The event kinds.
const (
	// EvStageStart/EvStageEnd bracket one Figure 4.1 stage of one program.
	EvStageStart EventKind = iota
	EvStageEnd
	// EvHazard is one §3.2 (or converter-raised) finding; Label is the
	// issue kind, Detail the message.
	EvHazard
	// EvRewrite is one DML statement mapped to the target schema; Label
	// is the DML verb, Detail the principal name (set, record, …).
	EvRewrite
	// EvDecision is one Analyst consultation; Label is the issue kind,
	// Accepted the answer.
	EvDecision
	// EvVerify is one equivalence verdict; Label is "pass" or "fail".
	EvVerify
	// EvOutcome closes a program's trail; Label is the disposition,
	// Detail the audit reason.
	EvOutcome
	// EvRetry is one transient-error retry of a stage; Label is the stage
	// name, Detail the attempt, backoff, and error.
	EvRetry
	// EvPanic is one recovered worker panic; Label is the stage name (or
	// "supervisor" outside a stage), Detail the panic value.
	EvPanic
	// EvTimeout is one expired budget; Label is the stage name,
	// "program", or "analyst", Detail the budget.
	EvTimeout
	// EvCacheHit/EvCacheMiss record one conversion-cache lookup; Label is
	// the cache scope ("pair", "analysis", "conversion", "codegen"),
	// Detail the short content fingerprint. Prog is empty for pair-scoped
	// lookups, which belong to no single program.
	EvCacheHit
	EvCacheMiss
	// EvCacheEvict records one LRU eviction; Label is the scope, Detail
	// the evicted entry's short fingerprint.
	EvCacheEvict
)

var eventKindNames = [...]string{
	"stage-start", "stage-end", "hazard", "rewrite",
	"decision", "verify", "outcome", "retry", "panic", "timeout",
	"cache-hit", "cache-miss", "cache-evict",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "event(?)"
}

// Event is one entry of the structured event log.
type Event struct {
	// Seq is the 1-based global emission order within one run.
	Seq uint64
	// T is the offset from the emitter's start (the wall-clock axis of
	// the log; zeroed by encoders asked to omit timing).
	T time.Duration
	// Prog names the program the event belongs to.
	Prog string
	// Kind classifies the event.
	Kind EventKind
	// Stage is set for stage-start/stage-end events.
	Stage Stage
	// Dur is the stage attempt's duration on stage-end events (0 when
	// the run is not timed).
	Dur time.Duration
	// Label is the event's low-cardinality dimension: hazard kind, DML
	// verb, issue kind, "pass"/"fail", or disposition.
	Label string
	// Detail is the free-form explanation.
	Detail string
	// Accepted is the Analyst's answer on decision events.
	Accepted bool
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls.
type Sink interface {
	Emit(Event)
}

// Emitter is the nil-safe instrumentation front door: call sites hold
// an *Emitter and never guard. A nil Emitter no-ops every method with
// zero allocations.
type Emitter struct {
	sink  Sink
	start time.Time
	seq   atomic.Uint64
}

// NewEmitter wraps a sink; a nil sink yields a nil (inert) emitter.
func NewEmitter(s Sink) *Emitter {
	if s == nil {
		return nil
	}
	return &Emitter{sink: s, start: time.Now()}
}

// Enabled reports whether events are being collected; use it to skip
// building expensive Detail strings.
func (e *Emitter) Enabled() bool { return e != nil }

func (e *Emitter) emit(ev Event) {
	if e == nil {
		return
	}
	ev.Seq = e.seq.Add(1)
	ev.T = time.Since(e.start)
	e.sink.Emit(ev)
}

// StageStart records one program entering a pipeline stage.
func (e *Emitter) StageStart(prog string, st Stage) {
	e.emit(Event{Prog: prog, Kind: EvStageStart, Stage: st})
}

// StageEnd records one program leaving a pipeline stage.
func (e *Emitter) StageEnd(prog string, st Stage, d time.Duration) {
	e.emit(Event{Prog: prog, Kind: EvStageEnd, Stage: st, Dur: d})
}

// Hazard records one finding against a program.
func (e *Emitter) Hazard(prog, kind, msg string) {
	e.emit(Event{Prog: prog, Kind: EvHazard, Label: kind, Detail: msg})
}

// Rewrite records one DML statement mapped to the target schema.
func (e *Emitter) Rewrite(prog, verb, detail string) {
	e.emit(Event{Prog: prog, Kind: EvRewrite, Label: verb, Detail: detail})
}

// Decision records one Analyst consultation and its answer.
func (e *Emitter) Decision(prog, kind, msg string, accepted bool) {
	e.emit(Event{Prog: prog, Kind: EvDecision, Label: kind, Detail: msg, Accepted: accepted})
}

// Verify records one equivalence verdict.
func (e *Emitter) Verify(prog string, pass bool, detail string) {
	label := "fail"
	if pass {
		label = "pass"
	}
	e.emit(Event{Prog: prog, Kind: EvVerify, Label: label, Detail: detail})
}

// Outcome closes one program's trail with its disposition and reason.
func (e *Emitter) Outcome(prog, disposition, reason string) {
	e.emit(Event{Prog: prog, Kind: EvOutcome, Label: disposition, Detail: reason})
}

// Retry records one transient-error retry of a stage: attempt is the
// 1-based retry number, backoff the deterministic pause before it.
func (e *Emitter) Retry(prog, stage string, attempt int, backoff time.Duration, errText string) {
	e.emit(Event{Prog: prog, Kind: EvRetry, Label: stage,
		Detail: fmt.Sprintf("retry %d after %s backoff: %s", attempt, backoff, errText)})
}

// Panic records one recovered worker panic; stage is "supervisor" for
// panics outside any pipeline stage.
func (e *Emitter) Panic(prog, stage, value string) {
	e.emit(Event{Prog: prog, Kind: EvPanic, Label: stage, Detail: value})
}

// Timeout records one expired budget; scope is the stage name,
// "program", or "analyst".
func (e *Emitter) Timeout(prog, scope string, budget time.Duration) {
	e.emit(Event{Prog: prog, Kind: EvTimeout, Label: scope,
		Detail: fmt.Sprintf("exceeded %s budget", budget)})
}

// CacheHit records one conversion-cache hit; prog is "" for pair-scoped
// lookups and key the short content fingerprint.
func (e *Emitter) CacheHit(prog, scope, key string) {
	e.emit(Event{Prog: prog, Kind: EvCacheHit, Label: scope, Detail: key})
}

// CacheMiss records one conversion-cache miss.
func (e *Emitter) CacheMiss(prog, scope, key string) {
	e.emit(Event{Prog: prog, Kind: EvCacheMiss, Label: scope, Detail: key})
}

// CacheEvict records one LRU eviction from a cache scope.
func (e *Emitter) CacheEvict(scope, key string) {
	e.emit(Event{Kind: EvCacheEvict, Label: scope, Detail: key})
}

// emitterKey carries an Emitter through a context into the deeper
// pipeline layers (analyzer, convert, equiv).
type emitterKey struct{}

// WithEmitter returns a context carrying the emitter. A nil emitter
// returns ctx unchanged, keeping the no-observation path free.
func WithEmitter(ctx context.Context, e *Emitter) context.Context {
	if e == nil {
		return ctx
	}
	return context.WithValue(ctx, emitterKey{}, e)
}

// EmitterFrom extracts the context's emitter; nil (inert) when absent.
func EmitterFrom(ctx context.Context) *Emitter {
	e, _ := ctx.Value(emitterKey{}).(*Emitter)
	return e
}

// RingSink is a bounded in-memory sink: the newest capacity events are
// kept, older ones are dropped (counted). The single short critical
// section keeps Emit lock-cheap under concurrent workers.
type RingSink struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // total emitted
}

// NewRingSink returns a ring holding up to capacity events (min 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *RingSink) Emit(ev Event) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first, in arrival order.
func (r *RingSink) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	cap := uint64(len(r.buf))
	if r.n <= cap {
		return append([]Event(nil), r.buf[:r.n]...)
	}
	out := make([]Event, 0, cap)
	for i := r.n - cap; i < r.n; i++ {
		out = append(out, r.buf[i%cap])
	}
	return out
}

// Total returns how many events were emitted into the ring.
func (r *RingSink) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events fell out of the bounded window.
func (r *RingSink) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap := uint64(len(r.buf)); r.n > cap {
		return r.n - cap
	}
	return 0
}

// multiSink fans one Emit out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// MultiSink composes sinks; nils are skipped. Zero or one live sink
// collapses to nil or the sink itself.
func MultiSink(sinks ...Sink) Sink {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// The JSON rendering of events lives in internal/wire (the versioned
// wire schema shared by the CLIs and the daemon): wire.AppendEvent is
// the one event writer, behind wire.EncodeJSONL and wire.JSONLSink.
// This package defines only the in-memory Event and the sinks that do
// not serialize.
