package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"progconv"
	"progconv/internal/telemetry"
	"progconv/internal/wire"
)

// deadlineExceeded is the cause installed on a job's deadline context,
// distinguishable from other run errors so the report endpoint can
// serve the "deadline" error code instead of the generic "failed".
type deadlineExceeded struct{ d time.Duration }

func (e deadlineExceeded) Error() string {
	return fmt.Sprintf("job deadline %s exceeded", e.d)
}

// jobState is one job's lifecycle position.
type jobState int

const (
	stateQueued jobState = iota
	stateRunning
	stateDone     // the conversion produced a report (exit 0, 3 or 4)
	stateFailed   // the run itself errored (parse-time errors never queue)
	stateCanceled // canceled by the client or the job deadline
)

func (s jobState) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	case stateCanceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// job is one admitted conversion: the loaded workload, its event hub,
// and the terminal result.
type job struct {
	id   string
	spec *wire.JobSpec
	hub  *hub
	// names are the programs' names in submission order, which the
	// trace labels its program spans with.
	names []string

	// Loaded at submission (progconv.NewJob) so a malformed job is a 400,
	// not a queued failure. runJob drops them, and the spec, under mu
	// when it ends, so a finished job keeps no parsed programs for the
	// life of the daemon.
	run  progconv.Job
	opts []progconv.Option

	// tid names the job's trace and remote the caller's span from an
	// inbound traceparent (zero without one). They and submitted are set
	// under the server mutex at admission and read-only afterwards. The
	// span tree itself is not kept: trace folds it from hub on read.
	tid       telemetry.TraceID
	remote    telemetry.SpanID
	submitted time.Time

	mu         sync.Mutex
	state      jobState
	cancel     context.CancelFunc // non-nil while running
	wantCancel bool               // cancel requested before the run started
	exit       wire.ExitCode
	errCode    wire.ErrorCode
	errMsg     string
	reportJSON []byte
	// started is when a runner picked the job up (zero before that, and
	// for a job canceled in the queue); runDur is how long its
	// conversion ran (zero until the conversion returned).
	started time.Time
	runDur  time.Duration
}

// snapshotState is the consistent view handlers render from.
type snapshotState struct {
	state      jobState
	exit       wire.ExitCode
	errCode    wire.ErrorCode
	errMsg     string
	reportJSON []byte
}

func (j *job) snapshot() snapshotState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return snapshotState{j.state, j.exit, j.errCode, j.errMsg, j.reportJSON}
}

func (j *job) status() wire.JobStatus {
	st := j.snapshot()
	doc := wire.JobStatus{V: wire.Version, ID: j.id, State: st.state.String(),
		Error: st.errMsg, TraceID: j.tid.String()}
	if st.state == stateDone || st.state == stateFailed || st.state == stateCanceled {
		code := int(st.exit)
		doc.ExitCode = &code
	}
	return doc
}

// trace folds the job's span tree from the events the hub retains: a
// fresh builder fed them in arrival order holds the tree an eager
// builder would hold at this point of the run, so the tree is built
// only when someone reads it.
func (j *job) trace() *telemetry.Trace {
	b := telemetry.NewTraceBuilder(j.tid, j.id)
	b.SetRemoteParent(j.remote)
	b.SetPrograms(j.names)
	// Read the run's bounds before its events: a set run duration then
	// implies the hub already holds every event.
	j.mu.Lock()
	started, runDur := j.started, j.runDur
	j.mu.Unlock()
	if !started.IsZero() {
		b.Phase("queue-wait", 0, started.Sub(j.submitted))
	}
	for from := 0; ; {
		events, _, _ := j.hub.since(from)
		if len(events) == 0 {
			break
		}
		for _, ev := range events {
			b.Emit(ev)
		}
		from += len(events)
	}
	b.End(runDur)
	return b.Snapshot()
}

// traceSeed returns the job-content strings a fallback trace ID is
// derived from; the caller appends the submission index so identical
// resubmissions still get distinct traces.
func (j *job) traceSeed() []string {
	seed := []string{j.spec.SourceDDL, j.spec.TargetDDL}
	for _, p := range j.spec.Programs {
		seed = append(seed, p.Source)
	}
	return seed
}

// requestCancel cancels a running job or marks a queued one so the
// runner skips it; terminal jobs are unaffected.
func (j *job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case stateQueued:
		j.wantCancel = true
	case stateRunning:
		j.wantCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// runJob executes one admitted job on a runner goroutine.
func (s *Server) runJob(j *job) {
	defer j.hub.finish()
	defer func() {
		j.mu.Lock()
		j.spec, j.run, j.opts = nil, progconv.Job{}, nil
		j.mu.Unlock()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := j.spec
	deadline, _ := wire.Duration(spec.Options.Deadline)
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if max := s.cfg.MaxDeadline; max > 0 && (deadline <= 0 || deadline > max) {
		deadline = max
	}
	if deadline > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeoutCause(ctx, deadline, deadlineExceeded{deadline})
		defer cancelT()
	}

	j.mu.Lock()
	if j.wantCancel {
		j.state = stateCanceled
		j.exit = wire.ExitError
		j.errCode = wire.CodeCanceled
		j.errMsg = "canceled before the run started"
		j.mu.Unlock()
		return
	}
	j.state = stateRunning
	j.cancel = cancel
	// Queue wait ends here; the job trace shows it as a leading phase
	// so the gap between submission and first stage is visible.
	j.started = time.Now()
	j.mu.Unlock()

	s.inst.QueueWait.ObserveDuration("", j.started.Sub(j.submitted))
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// The server's migration default goes first, so a job's own
	// migrate_parallel overrides it.
	opts := make([]progconv.Option, 0, len(j.opts)+4)
	opts = append(opts, progconv.WithMigrationParallelism(s.cfg.DefaultMigrateParallel))
	opts = append(opts, j.opts...)
	opts = append(opts, progconv.WithMetrics(),
		progconv.WithEventSink(progconv.MultiSink(j.hub, s.tally, s.inst.StageSink())))
	if s.cfg.Cache != nil {
		opts = append(opts, progconv.WithCache(s.cfg.Cache))
	}
	report, err := progconv.ConvertJob(ctx, j.run, opts...)

	runDur := time.Since(j.started)
	s.inst.JobDur.ObserveDuration("", runDur)
	if err == nil && report != nil {
		s.tally.AddDataPlane(report.DataPlane)
		s.inst.ObserveDataPlane(report.DataPlane)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	j.runDur = runDur
	if err != nil {
		// A client cancel lands at canceled; everything else — including
		// an expired job deadline, whose cause the error message names —
		// is a failed run. The error code distinguishes the three for
		// machine consumers.
		if j.wantCancel {
			j.state = stateCanceled
			j.errCode = wire.CodeCanceled
		} else {
			j.state = stateFailed
			j.errCode = wire.CodeFailed
			var de deadlineExceeded
			if errors.As(err, &de) || errors.As(context.Cause(ctx), &de) {
				j.errCode = wire.CodeDeadline
			}
		}
		j.exit = wire.ExitError
		j.errMsg = err.Error()
		return
	}
	var buf bytes.Buffer
	if encErr := progconv.EncodeReportJSON(&buf, report); encErr != nil {
		j.state = stateFailed
		j.exit = wire.ExitError
		j.errCode = wire.CodeInternal
		j.errMsg = "encoding report: " + encErr.Error()
		return
	}
	j.state = stateDone
	j.reportJSON = buf.Bytes()
	j.exit, j.errMsg = wire.ExitFor(report, spec.Options.FailOn)
}

// hubChunk is how many events one chunk of a hub's log holds. A
// 200-program job emits about 3,000 events of 88 bytes: six chunks.
const hubChunk = 512

// hub fans one job's event stream out to any number of followers: it
// retains every event (jobs are batch-sized, not unbounded) and wakes
// blocked followers on append and at end-of-stream. The log is a list
// of fixed-size chunks, filled in place, so an append never copies the
// events before it.
type hub struct {
	mu     sync.Mutex
	chunks []*[hubChunk]progconv.Event // all full but the last
	n      int                         // events in the log
	// wake closes on the next append or at end-of-stream. It is made
	// only when a follower asks for it, so a run nobody follows live
	// allocates no channel per event.
	wake   chan struct{}
	closed bool
}

// newHub returns an empty hub whose chunk list has room for a
// 200-program job's log without regrowing.
func newHub() *hub {
	return &hub{chunks: make([]*[hubChunk]progconv.Event, 0, 8)}
}

// Emit implements progconv.Sink (obs.Sink).
func (h *hub) Emit(ev progconv.Event) {
	h.mu.Lock()
	if h.n%hubChunk == 0 {
		h.chunks = append(h.chunks, new([hubChunk]progconv.Event))
	}
	h.chunks[h.n/hubChunk][h.n%hubChunk] = ev
	h.n++
	if h.wake != nil {
		close(h.wake)
		h.wake = nil
	}
	h.mu.Unlock()
}

// finish marks end-of-stream and releases every follower.
func (h *hub) finish() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		if h.wake != nil {
			close(h.wake)
			h.wake = nil
		}
	}
	h.mu.Unlock()
}

// since returns the events from index from to the end of the log or
// of the chunk holding from, whichever comes first. The events are a
// view of the chunk, capped at its filled length: an event is written
// once, under the mutex, before n counts it, so a later append cannot
// touch what the view holds, and the caller reads it without the lock
// and without a copy. A view that ends at a chunk boundary short of
// the log's end comes with a nil channel and closed false: the caller
// asks again from where the view ends. Otherwise since also reports
// whether the stream has ended, and if not returns a channel that
// closes on the next append.
func (h *hub) since(from int) ([]progconv.Event, <-chan struct{}, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var events []progconv.Event
	if from < h.n {
		lo, hi := from%hubChunk, hubChunk
		if last := h.n - from + lo; last < hi {
			hi = last
		}
		events = h.chunks[from/hubChunk][lo:hi:hi]
		if from+len(events) < h.n {
			return events, nil, false
		}
	}
	if h.closed {
		return events, nil, true
	}
	if h.wake == nil {
		h.wake = make(chan struct{})
	}
	return events, h.wake, false
}
