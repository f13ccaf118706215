package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilEmitterNoOps(t *testing.T) {
	if NewEmitter(nil) != nil {
		t.Fatal("NewEmitter(nil) must return a nil emitter")
	}
	var e *Emitter
	if e.Enabled() {
		t.Error("nil emitter reports Enabled")
	}
	// None of these may panic or allocate.
	e.StageStart("P", StageAnalyze)
	e.StageEnd("P", StageAnalyze, time.Millisecond)
	e.Hazard("P", "kind", "msg")
	e.Rewrite("P", "get", "EMP")
	e.Decision("P", "kind", "msg", true)
	e.Verify("P", true, "ok")
	e.Outcome("P", "auto", "reason")
	if allocs := testing.AllocsPerRun(100, func() {
		e.StageStart("P", StageConvert)
		e.Rewrite("P", "get", "EMP")
		e.StageEnd("P", StageConvert, 0)
	}); allocs != 0 {
		t.Errorf("nil emitter allocated %v per run, want 0", allocs)
	}
}

func TestEmitterSeqAndTimes(t *testing.T) {
	ring := NewRingSink(8)
	e := NewEmitter(ring)
	e.Hazard("P", "k", "first")
	e.Verify("P", false, "second")
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("seqs = %d,%d, want 1,2", evs[0].Seq, evs[1].Seq)
	}
	if evs[1].T < evs[0].T {
		t.Errorf("timestamps not monotone: %v then %v", evs[0].T, evs[1].T)
	}
	if evs[1].Label != "fail" {
		t.Errorf("verify label = %q, want fail", evs[1].Label)
	}
}

// TestConcurrentSpans emits stage spans and outcomes from many
// goroutines through one Emitter: every event must arrive once, with a
// unique sequence number, and each stage must see as many ends as
// starts.
func TestConcurrentSpans(t *testing.T) {
	const workers, per = 8, 50
	const total = 2*workers*per + workers
	ring := NewRingSink(total)
	tally := NewTally()
	e := NewEmitter(MultiSink(ring, tally))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st := Stage(i % int(numStages))
				e.StageStart("P", st)
				e.StageEnd("P", st, time.Microsecond)
			}
			e.Outcome("P", "automatic", "")
		}()
	}
	wg.Wait()
	if got := ring.Total(); got != total {
		t.Fatalf("ring total = %d, want %d", got, total)
	}
	seen := map[uint64]bool{}
	starts, ends := map[Stage]int{}, map[Stage]int{}
	for _, ev := range ring.Events() {
		if ev.Seq < 1 || ev.Seq > total || seen[ev.Seq] {
			t.Fatalf("seq %d duplicated or out of 1..%d", ev.Seq, total)
		}
		seen[ev.Seq] = true
		switch ev.Kind {
		case EvStageStart:
			starts[ev.Stage]++
		case EvStageEnd:
			ends[ev.Stage]++
			if ev.Dur != time.Microsecond {
				t.Errorf("stage-end dur = %v, want 1µs", ev.Dur)
			}
		}
	}
	var spans int
	for _, st := range Stages() {
		if starts[st] != ends[st] {
			t.Errorf("%s: %d starts, %d ends", st, starts[st], ends[st])
		}
		spans += ends[st]
	}
	if spans != workers*per {
		t.Errorf("spans = %d, want %d", spans, workers*per)
	}
	if got := tally.Snapshot()["programs/automatic"]; got != workers {
		t.Errorf("tally programs/automatic = %d, want %d", got, workers)
	}
}

func TestRingSinkBoundAndDrop(t *testing.T) {
	ring := NewRingSink(4)
	e := NewEmitter(ring)
	for i := 0; i < 10; i++ {
		e.Rewrite("P", "get", "EMP")
	}
	if got := ring.Total(); got != 10 {
		t.Errorf("total = %d, want 10", got)
	}
	if got := ring.Dropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first)", i, ev.Seq, want)
		}
	}
	if NewRingSink(0) == nil || len(NewRingSink(-3).Events()) != 0 {
		t.Error("degenerate capacities must still yield a working ring")
	}
}

func TestMultiSink(t *testing.T) {
	if MultiSink() != nil || MultiSink(nil, nil) != nil {
		t.Error("MultiSink with no live sinks must collapse to nil")
	}
	one := NewRingSink(4)
	if got := MultiSink(nil, one); got != Sink(one) {
		t.Error("MultiSink with one live sink must return it unwrapped")
	}
	two := NewRingSink(4)
	e := NewEmitter(MultiSink(one, nil, two))
	e.Hazard("P", "k", "m")
	if one.Total() != 1 || two.Total() != 1 {
		t.Errorf("fan-out totals = %d,%d, want 1,1", one.Total(), two.Total())
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvStageStart: "stage-start", EvStageEnd: "stage-end",
		EvHazard: "hazard", EvRewrite: "rewrite", EvDecision: "decision",
		EvVerify: "verify", EvOutcome: "outcome",
		EvRetry: "retry", EvPanic: "panic", EvTimeout: "timeout",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := EventKind(99).String(); got != "event(?)" {
		t.Errorf("unknown kind = %q", got)
	}
}
