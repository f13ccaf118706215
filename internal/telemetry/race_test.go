package telemetry

// The satellite-3 hammer: eight goroutines pushing events into a
// TraceBuilder, a tally, a RunMetrics fold and a Registry while two
// scrapers snapshot the trace and the fold and render the Prometheus
// exposition mid-run.
// Meaningful under -race (the CI telemetry leg); still a liveness
// check without it.

import (
	"io"
	"strconv"
	"sync"
	"testing"
	"time"

	"progconv/internal/obs"
)

func TestConcurrentEmitAndScrape(t *testing.T) {
	id := DeriveTraceID("race-test")
	b := NewTraceBuilder(id, "race")
	r := NewRegistry()
	tally := obs.NewTally()
	r.Tally(tally)
	in := NewInstruments(r)
	m := NewRunMetrics()
	sink := obs.MultiSink(b, in.StageSink(), tally, m)
	e := obs.NewEmitter(sink)

	var names []string
	for i := 0; i < 8; i++ {
		names = append(names, "P"+strconv.Itoa(i))
	}
	b.SetPrograms(names)

	const rounds = 200
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapers.Add(2)
	go func() { // the /v1/jobs/{id}/trace scraper
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr := b.Snapshot()
			if tr.TraceID != id {
				t.Error("snapshot lost the trace ID")
				return
			}
			_ = m.Metrics().String()
			for _, sp := range tr.Spans {
				_ = sp.ID.String()
			}
		}
	}()
	go func() { // the /metrics scraper
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			r.WriteSummary(io.Discard)
		}
	}()

	var writers sync.WaitGroup
	for _, name := range names {
		writers.Add(1)
		go func(prog string) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				e.StageStart(prog, obs.StageAnalyze)
				e.Hazard(prog, "order-dependence", "m")
				e.StageEnd(prog, obs.StageAnalyze, time.Duration(i)*time.Microsecond)
				e.StageStart(prog, obs.StageConvert)
				e.Rewrite(prog, "get", "EMP")
				e.StageEnd(prog, obs.StageConvert, time.Microsecond)
				in.QueueWait.ObserveDuration("", time.Duration(i)*time.Microsecond)
				in.ObserveDataPlane(obs.DataPlane{IndexProbes: int64(i)})
			}
			e.Outcome(prog, "auto", "done")
		}(name)
	}
	writers.Wait()
	close(stop)
	scrapers.Wait()

	// The final snapshot is complete and structurally sound.
	tr := b.Snapshot()
	progs := tr.ByKind(KindProgram)
	if len(progs) != 8 {
		t.Fatalf("program spans = %d, want 8", len(progs))
	}
	stages := tr.ByKind(KindStage)
	if len(stages) != 8*rounds*2 {
		t.Errorf("stage spans = %d, want %d", len(stages), 8*rounds*2)
	}
	if got := in.QueueWait.Count(""); got != 8*rounds {
		t.Errorf("queue-wait observations = %d, want %d", got, 8*rounds)
	}
	if got := in.Stage.Count("analyze"); got != 8*rounds {
		t.Errorf("analyze observations = %d, want %d", got, 8*rounds)
	}
	got := m.Metrics()
	if got.Programs != 8 {
		t.Errorf("metrics programs = %d, want 8", got.Programs)
	}
	for _, st := range []obs.Stage{obs.StageAnalyze, obs.StageConvert} {
		stats := got.Stage(st)
		var sum int64
		for _, n := range stats.Buckets {
			sum += n
		}
		if stats.Count != 8*rounds || sum != stats.Count {
			t.Errorf("%s: count %d, buckets sum %d, want %d", st, stats.Count, sum, 8*rounds)
		}
	}
	if got := tally.Snapshot()["rewrites/get"]; got != 8*rounds {
		t.Errorf("tallied rewrites = %d, want %d", got, 8*rounds)
	}
}
