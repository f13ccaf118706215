package telemetry

// The span model. A TraceBuilder is an obs.Sink: it folds the
// structured event log into a span tree, leaning on the event layer's
// order guarantee — within one program the events arrive in pipeline
// order at any parallelism — so the tree's structure is deterministic
// even though the global interleaving is not. Pair-scoped events
// (Prog == "") are emitted serially during pair preparation and attach
// to the root span in arrival order; per-program events attach under
// that program's span in per-program ordinal order; Snapshot lists
// programs in submission order (SetPrograms), never arrival order.

import (
	"sort"
	"sync"
	"time"

	"progconv/internal/obs"
)

// SpanKind classifies one span of the tree.
type SpanKind uint8

// The span kinds.
const (
	// KindJob is the root: one whole job or Convert run.
	KindJob SpanKind = iota
	// KindPhase is an explicit lifecycle phase parented to the root —
	// queue wait, phases the event stream does not carry.
	KindPhase
	// KindProgram is one program's whole analyze → verify pipeline.
	KindProgram
	// KindStage is one stage attempt; Attempt numbers retries of the
	// same stage from 1.
	KindStage
	// KindRetry is one transient-error retry decision, parented to the
	// stage attempt that failed.
	KindRetry
	// KindCache is one conversion-cache probe (hit, miss, or evict);
	// Name is the cache scope, Label the result.
	KindCache
	// KindVerdict is one equivalence verdict; Label is "pass" or "fail".
	KindVerdict
	// KindDecision is one Analyst consultation; Name is the issue kind,
	// Label "accepted" or "declined".
	KindDecision
	// KindHazard is one analyzer or converter finding; Name is the
	// hazard kind.
	KindHazard
	// KindFault is one recovered panic or expired budget; Name is the
	// event kind, Label the stage or scope.
	KindFault
)

var spanKindNames = [...]string{
	"job", "phase", "program", "stage", "retry",
	"cache", "verdict", "decision", "hazard", "fault",
}

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "span(?)"
}

// Span is one node of a trace. IDs are derived from the trace ID and
// the span's structural path, so they are identical at any
// parallelism; Start and Dur are the only wall-clock-bearing fields
// and are dropped by encoders asked to omit timing.
type Span struct {
	// ID identifies the span; Parent is the enclosing span (zero only
	// on the root).
	ID     SpanID
	Parent SpanID
	// Kind classifies the span; Name is its display name (stage name,
	// cache scope, program name, …).
	Kind SpanKind
	Name string
	// Prog names the owning program; empty on root, phase, and
	// pair-scoped spans.
	Prog string
	// Stage is the stage name on stage and retry spans.
	Stage string
	// Attempt numbers stage attempts and retries from 1.
	Attempt int
	// Label is the low-cardinality result dimension (disposition,
	// "hit"/"miss", "pass"/"fail", …); Detail the free-form explanation.
	Label  string
	Detail string
	// Start is the offset from the run's emitter start; Dur the span
	// duration (0 when the run is not timed).
	Start time.Duration
	Dur   time.Duration
}

// Trace is a snapshot of one run's span tree: the root span first,
// then phases, pair-scoped spans, and each program's spans in
// submission order.
type Trace struct {
	TraceID TraceID
	// Remote is the caller's span ID from an inbound traceparent; zero
	// when the trace originated here.
	Remote SpanID
	Spans  []Span
}

// Root returns the root span (zero Span for an empty trace).
func (t *Trace) Root() Span {
	if t == nil || len(t.Spans) == 0 {
		return Span{}
	}
	return t.Spans[0]
}

// ByKind returns the spans of one kind, in tree order.
func (t *Trace) ByKind(k SpanKind) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, sp := range t.Spans {
		if sp.Kind == k {
			out = append(out, sp)
		}
	}
	return out
}

// progSpans is one program's accumulating subtree.
type progSpans struct {
	span     Span
	children []Span
	n        int // per-program event ordinal, the ID-derivation path
	open     int // index in children of the open stage span, -1
	last     int // index of the last closed stage span, -1
	attempts map[string]int
	retries  map[string]int
}

// TraceBuilder assembles a Trace. It implements obs.Sink, so it is
// installed like any other event sink and composes with MultiSink;
// Snapshot may be called at any time, including mid-run, and returns a
// consistent partial tree.
type TraceBuilder struct {
	mu     sync.Mutex
	id     TraceID
	remote SpanID
	root   Span
	phases []Span
	shared []Span // pair-scoped children of the root, arrival order
	progs  map[string]*progSpans
	order  []string // submission order from SetPrograms
	seen   []string // first-emit order, for programs never listed
}

// NewTraceBuilder starts a trace: id becomes the TraceID, name the
// root span's display name.
func NewTraceBuilder(id TraceID, name string) *TraceBuilder {
	return &TraceBuilder{
		id:    id,
		root:  Span{ID: RootSpanID(id), Kind: KindJob, Name: name},
		progs: map[string]*progSpans{},
	}
}

// SetRemoteParent records the caller's span ID from an inbound
// traceparent header.
func (b *TraceBuilder) SetRemoteParent(s SpanID) {
	b.mu.Lock()
	b.remote = s
	b.root.Parent = s
	b.mu.Unlock()
}

// SetPrograms fixes the snapshot's program order to the submission
// order — the determinism lever: arrival order varies with
// parallelism, submission order does not.
func (b *TraceBuilder) SetPrograms(names []string) {
	b.mu.Lock()
	b.order = append([]string(nil), names...)
	b.mu.Unlock()
}

// Phase records an explicit lifecycle span parented to the root —
// queue wait and other phases the event stream does not carry.
func (b *TraceBuilder) Phase(name string, start, dur time.Duration) {
	b.mu.Lock()
	b.phases = append(b.phases, Span{
		ID: DeriveSpanID(b.id, "phase", name), Parent: b.root.ID,
		Kind: KindPhase, Name: name, Start: start, Dur: dur,
	})
	b.mu.Unlock()
}

// End closes the root span with the run's duration.
func (b *TraceBuilder) End(dur time.Duration) {
	b.mu.Lock()
	b.root.Dur = dur
	b.mu.Unlock()
}

// Emit implements obs.Sink.
func (b *TraceBuilder) Emit(ev obs.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev.Prog == "" {
		b.sharedEvent(ev)
		return
	}
	p := b.prog(ev.Prog, ev.T)
	ord := p.n
	p.n++ // every event consumes an ordinal, even kinds that add no span
	sp := Span{Parent: p.span.ID, Prog: ev.Prog, Start: ev.T, Detail: ev.Detail}
	switch ev.Kind {
	case obs.EvStageStart:
		stage := ev.Stage.String()
		p.attempts[stage]++
		sp.Kind, sp.Name, sp.Stage, sp.Attempt, sp.Detail = KindStage, stage, stage, p.attempts[stage], ""
		sp.ID = DeriveSpanID(b.id, "event", ev.Prog, ordinal(ord))
		p.children = append(p.children, sp)
		p.open = len(p.children) - 1
		return
	case obs.EvStageEnd:
		if p.open >= 0 {
			p.children[p.open].Dur = ev.Dur
			p.last, p.open = p.open, -1
		}
		return
	case obs.EvOutcome:
		p.span.Label, p.span.Detail = ev.Label, ev.Detail
		p.span.Dur = ev.T - p.span.Start
		return
	case obs.EvRetry:
		// The supervisor closes the failed stage attempt before emitting
		// the retry, so the retry parents to the last closed attempt.
		p.retries[ev.Label]++
		sp.Kind, sp.Name, sp.Stage, sp.Attempt = KindRetry, "retry", ev.Label, p.retries[ev.Label]
		if p.last >= 0 {
			sp.Parent = p.children[p.last].ID
		}
	case obs.EvCacheHit, obs.EvCacheMiss, obs.EvCacheEvict:
		sp.Kind, sp.Name, sp.Label = KindCache, ev.Label, cacheResult(ev.Kind)
		sp.Parent = p.openParent()
	case obs.EvVerify:
		sp.Kind, sp.Name, sp.Label = KindVerdict, "verdict", ev.Label
		sp.Parent = p.openParent()
	case obs.EvDecision:
		sp.Kind, sp.Name, sp.Label = KindDecision, ev.Label, "declined"
		if ev.Accepted {
			sp.Label = "accepted"
		}
		sp.Parent = p.openParent()
	case obs.EvHazard:
		sp.Kind, sp.Name = KindHazard, ev.Label
		sp.Parent = p.openParent()
	case obs.EvPanic, obs.EvTimeout:
		sp.Kind, sp.Name, sp.Label = KindFault, ev.Kind.String(), ev.Label
		sp.Parent = p.openParent()
	default:
		// DML rewrites are per-statement (high cardinality): they stay in
		// the event log and add no span, but still consumed an ordinal so
		// later span IDs are unchanged by kind filtering.
		return
	}
	sp.ID = DeriveSpanID(b.id, "event", ev.Prog, ordinal(ord))
	p.children = append(p.children, sp)
}

// openParent returns the open stage attempt's ID, or the program span.
func (p *progSpans) openParent() SpanID {
	if p.open >= 0 {
		return p.children[p.open].ID
	}
	return p.span.ID
}

func cacheResult(k obs.EventKind) string {
	switch k {
	case obs.EvCacheHit:
		return "hit"
	case obs.EvCacheMiss:
		return "miss"
	}
	return "evict"
}

// prog returns (creating on first event) one program's subtree.
func (b *TraceBuilder) prog(name string, t time.Duration) *progSpans {
	p := b.progs[name]
	if p == nil {
		p = &progSpans{
			span: Span{
				ID: DeriveSpanID(b.id, "program", name), Parent: b.root.ID,
				Kind: KindProgram, Name: name, Prog: name, Start: t,
			},
			open: -1, last: -1,
			attempts: map[string]int{},
			retries:  map[string]int{},
		}
		b.progs[name] = p
		b.seen = append(b.seen, name)
	}
	return p
}

// sharedEvent attaches a pair-scoped event (Prog == "") to the root.
// These are emitted serially during pair preparation, so arrival-order
// ordinals are deterministic; concurrent memo evictions are the one
// exception and are documented as arrival-ordered.
func (b *TraceBuilder) sharedEvent(ev obs.Event) {
	sp := Span{
		ID:     DeriveSpanID(b.id, "shared", ordinal(len(b.shared))),
		Parent: b.root.ID, Start: ev.T, Detail: ev.Detail,
	}
	switch ev.Kind {
	case obs.EvCacheHit, obs.EvCacheMiss, obs.EvCacheEvict:
		sp.Kind, sp.Name, sp.Label = KindCache, ev.Label, cacheResult(ev.Kind)
	default:
		sp.Kind, sp.Name, sp.Label = KindPhase, ev.Kind.String(), ev.Label
	}
	b.shared = append(b.shared, sp)
}

// Snapshot freezes the tree: root, phases, pair-scoped spans, then
// each program's span and children — listed programs (SetPrograms) in
// submission order, any unlisted stragglers after them sorted by name.
// Safe to call mid-run; the snapshot shares nothing with the builder.
func (b *TraceBuilder) Snapshot() *Trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	tr := &Trace{TraceID: b.id, Remote: b.remote}
	tr.Spans = append(tr.Spans, b.root)
	tr.Spans = append(tr.Spans, b.phases...)
	tr.Spans = append(tr.Spans, b.shared...)
	listed := map[string]bool{}
	emit := func(name string) {
		if p := b.progs[name]; p != nil {
			tr.Spans = append(tr.Spans, p.span)
			tr.Spans = append(tr.Spans, p.children...)
		}
	}
	for _, name := range b.order {
		if !listed[name] {
			listed[name] = true
			emit(name)
		}
	}
	var rest []string
	for _, name := range b.seen {
		if !listed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		emit(name)
	}
	return tr
}
