package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"progconv/client"
	"progconv/internal/fingerprint"
	"progconv/internal/telemetry"
	"progconv/internal/wire"
)

// cjob is one job the coordinator admitted. All fields are guarded by
// the coordinator's mutex; network calls never happen under it.
type cjob struct {
	id string // coordinator-scoped "c-%06d"
	// body is the submission as the coordinator received it, which
	// (re-)dispatch forwards byte for byte. A terminal job is never
	// dispatched again, so freezing it drops the body (setTerminal).
	body []byte
	pair fingerprint.Hash
	tid  telemetry.TraceID
	// inbound is the caller's traceparent header, forwarded verbatim to
	// whichever worker runs the job so the caller's span stays the
	// remote parent; empty means the coordinator derived the trace.
	inbound string

	// workerURL and remoteID name the current owner and the job's ID
	// over there; they change on every (re-)dispatch.
	workerURL string
	remoteID  string
	// redispatching is set while a failover submit is in flight, so
	// concurrent proxies answer "queued" instead of racing a second
	// submit for the same job.
	redispatching bool

	// Terminal jobs are frozen eagerly: the final status plus either
	// the report bytes (done jobs, any exit) or the error document
	// (failed/canceled jobs). After this, the owner may die without
	// the caller ever noticing.
	terminal     *wire.JobStatus
	report       []byte
	reportStatus int
	reportErr    *client.APIError
}

func (j *cjob) isTerminal() bool { return j.terminal != nil }

// setTerminal freezes the job at st and drops its body. Call it with
// the coordinator's mutex held.
func (j *cjob) setTerminal(st *wire.JobStatus) {
	j.terminal, j.body = st, nil
}

// traceparent is the header the coordinator forwards on every
// (re-)dispatch of this job — stable across failover, so the job keeps
// one trace ID however many workers end up running it.
func (j *cjob) traceparent() string {
	if j.inbound != "" {
		return j.inbound
	}
	return telemetry.Traceparent(j.tid, telemetry.DeriveSpanID(j.tid, "dispatch"))
}

// echoTraceparent is the response header a worker would have echoed:
// the worker's root span ID is derived from the trace ID alone, so the
// coordinator can reconstruct it without asking.
func (j *cjob) echoTraceparent() string {
	return telemetry.Traceparent(j.tid, telemetry.RootSpanID(j.tid))
}

// rewrite stamps the coordinator-scoped job ID onto a worker status.
func (j *cjob) rewrite(st wire.JobStatus) wire.JobStatus {
	st.ID = j.id
	return st
}

// queuedStatus is what proxies answer while a job is between workers.
func (j *cjob) queuedStatus() wire.JobStatus {
	return wire.JobStatus{V: wire.Version, ID: j.id, State: "queued", TraceID: j.tid.String()}
}

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The coordinator decodes a submission once, to validate and route
	// it; the worker gets the bytes it sent.
	body, spec, err := wire.ReadJobSpec(w, r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, "decoding job: "+err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, err.Error())
		return
	}
	pair, err := PairFor(&spec)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadSpec, err.Error())
		return
	}

	inbound := ""
	tid, _, tpErr := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	if tpErr == nil {
		inbound = r.Header.Get("traceparent")
	}

	co.mu.Lock()
	if co.draining {
		co.mu.Unlock()
		wire.WriteRetry(w, http.StatusServiceUnavailable, wire.CodeDraining,
			"coordinator is draining; not accepting jobs")
		return
	}
	co.nextID++
	j := &cjob{
		id:   fmt.Sprintf("c-%06d", co.nextID),
		body: body, pair: pair, inbound: inbound,
	}
	if tpErr != nil {
		tid = telemetry.DeriveTraceID("dispatch", string(pair), j.id)
	}
	j.tid = tid
	co.jobs[j.id] = j
	co.order = append(co.order, j.id)
	co.mu.Unlock()

	if code, apiErr := co.dispatch(r.Context(), j, ""); apiErr != nil {
		// The job never landed anywhere: un-admit it so the listing
		// does not show a phantom, then relay the failure.
		co.mu.Lock()
		delete(co.jobs, j.id)
		co.order = co.order[:len(co.order)-1]
		co.nextID--
		co.mu.Unlock()
		if apiErr.Status == http.StatusTooManyRequests ||
			apiErr.Status == http.StatusServiceUnavailable {
			wire.WriteRetry(w, apiErr.Status, code, apiErr.Message)
			return
		}
		wire.WriteError(w, apiErr.Status, code, apiErr.Message)
		return
	}

	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.Header().Set("traceparent", j.echoTraceparent())
	wire.WriteJSON(w, http.StatusAccepted, j.queuedStatus())
}

// dispatch routes j to its highest-ranked healthy worker, skipping
// exclude (the worker that just failed it). Transport errors
// quarantine the target and fall through to the next-ranked worker;
// HTTP errors (a full queue, a draining worker) are the fleet's
// answer and are returned as-is. On success the job's owner fields
// are updated and the routed counter ticks.
func (co *Coordinator) dispatch(ctx context.Context, j *cjob, exclude string) (wire.ErrorCode, *client.APIError) {
	tried := map[string]bool{}
	if exclude != "" {
		tried[exclude] = true
	}
	for {
		co.mu.Lock()
		body := j.body
		if body == nil {
			// The job froze while this dispatch was in flight.
			co.mu.Unlock()
			return "", nil
		}
		var target *worker
		urls := make([]string, 0, len(co.workers))
		for _, w := range co.workers {
			urls = append(urls, w.url)
		}
		for _, u := range Rank(j.pair, urls) {
			if w := co.byURL[u]; w != nil && !w.quarantined && !tried[u] {
				target = w
				break
			}
		}
		co.mu.Unlock()
		if target == nil {
			return wire.CodeNoWorker, &client.APIError{
				Status:  http.StatusServiceUnavailable,
				Code:    wire.CodeNoWorker,
				Message: "no healthy worker available; retry later",
			}
		}

		st, err := target.cli.SubmitBody(ctx, body, j.traceparent())
		if err == nil {
			co.mu.Lock()
			j.workerURL, j.remoteID = target.url, st.ID
			j.redispatching = false
			target.routed++
			co.mu.Unlock()
			co.routedC.Add(target.url, 1)
			return "", nil
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			// The worker answered; its verdict is authoritative for
			// this pair (spilling to another worker would defeat the
			// affinity the ranking exists to provide).
			return apiErr.Code, apiErr
		}
		// Transport error: the worker is unreachable. Quarantine it,
		// fail over its other jobs, and try the next-ranked worker.
		tried[target.url] = true
		co.noteWorkerDown(ctx, target.url)
	}
}

// noteWorkerDown quarantines a worker after a failed request and
// re-dispatches every non-terminal job it owned.
func (co *Coordinator) noteWorkerDown(ctx context.Context, url string) {
	co.mu.Lock()
	w := co.byURL[url]
	if w == nil || w.quarantined {
		co.mu.Unlock()
		return
	}
	w.quarantined = true
	co.mu.Unlock()
	co.failoverWorker(ctx, url)
}

// failoverWorker re-dispatches every non-terminal job owned by a
// now-quarantined worker to its next-ranked healthy peer. Determinism
// makes this invisible: the re-run produces byte-identical reports, so
// a caller polling through the failover sees the job go back to
// "queued" and then finish exactly as it would have on the dead
// worker.
func (co *Coordinator) failoverWorker(ctx context.Context, url string) {
	co.mu.Lock()
	var move []*cjob
	for _, id := range co.order {
		j := co.jobs[id]
		if j != nil && !j.isTerminal() && j.workerURL == url && !j.redispatching {
			j.redispatching = true
			move = append(move, j)
		}
	}
	w := co.byURL[url]
	if w != nil {
		w.failovers += int64(len(move))
	}
	co.mu.Unlock()
	for _, j := range move {
		co.failoverC.Add(url, 1)
		co.dispatch(ctx, j, url)
		// A failed re-dispatch leaves redispatching set only if no
		// worker accepted; clear it so later proxies retry.
		co.mu.Lock()
		j.redispatching = false
		co.mu.Unlock()
	}
}

// jobStatus returns j's current status, proxying to the owning worker
// when the job is live. A dead owner triggers failover; a worker that
// forgot the job (it restarted) gets the job re-dispatched. Terminal
// statuses are frozen together with the report, after which no network
// is involved.
func (co *Coordinator) jobStatus(ctx context.Context, j *cjob) wire.JobStatus {
	co.mu.Lock()
	if j.terminal != nil {
		st := *j.terminal
		co.mu.Unlock()
		return st
	}
	if j.redispatching || j.workerURL == "" {
		co.mu.Unlock()
		return j.queuedStatus()
	}
	url, remoteID := j.workerURL, j.remoteID
	cli := co.byURL[url].cli
	co.mu.Unlock()

	st, err := cli.Status(ctx, remoteID)
	if err == nil {
		switch st.State {
		case "done", "failed", "canceled":
			co.finalize(ctx, j, cli, j.rewrite(*st))
			co.mu.Lock()
			defer co.mu.Unlock()
			if j.terminal != nil {
				return *j.terminal
			}
			return j.queuedStatus() // finalize hit a dead worker; re-running
		}
		return j.rewrite(*st)
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		if apiErr.Status == http.StatusNotFound {
			// The worker restarted and lost the job: re-dispatch it
			// (possibly right back to the same, now-empty worker).
			co.redispatch(ctx, j, "")
		}
		return j.queuedStatus()
	}
	co.noteWorkerDown(ctx, url)
	return j.queuedStatus()
}

// redispatch re-submits one job unless another proxy already is.
func (co *Coordinator) redispatch(ctx context.Context, j *cjob, exclude string) {
	co.mu.Lock()
	if j.isTerminal() || j.redispatching {
		co.mu.Unlock()
		return
	}
	j.redispatching = true
	co.mu.Unlock()
	co.dispatch(ctx, j, exclude)
	co.mu.Lock()
	j.redispatching = false
	co.mu.Unlock()
}

// finalize freezes a terminal job: the status plus the report bytes
// (or the error document for failed/canceled jobs) are fetched once
// and served from coordinator memory forever after. If the worker dies
// in the window between reaching a terminal state and the report
// fetch, the job fails over and re-runs — determinism guarantees the
// second run's bytes equal what the first would have served.
func (co *Coordinator) finalize(ctx context.Context, j *cjob, cli *client.Client, st wire.JobStatus) {
	co.mu.Lock()
	remoteID := j.remoteID
	co.mu.Unlock()
	body, status, err := cli.Report(ctx, remoteID)
	var apiErr *client.APIError
	switch {
	case err == nil:
		co.mu.Lock()
		j.setTerminal(&st)
		j.report, j.reportStatus = body, status
		co.mu.Unlock()
	case errors.As(err, &apiErr) && apiErr.Status != http.StatusNotFound:
		// Failed/canceled jobs report as error documents; freeze those.
		co.mu.Lock()
		j.setTerminal(&st)
		j.reportErr = apiErr
		co.mu.Unlock()
	case errors.Is(err, client.ErrNotFinished):
		// Terminal status but a not-finished report should not happen;
		// leave the job live and let the next poll retry.
	default:
		// Transport error or a 404 from a restarted worker: the
		// artifact is gone with the worker. Fail over and re-run.
		co.noteWorkerDown(ctx, j.workerURL)
	}
}

func (co *Coordinator) lookup(w http.ResponseWriter, r *http.Request) *cjob {
	co.mu.Lock()
	j := co.jobs[r.PathValue("id")]
	co.mu.Unlock()
	if j == nil {
		wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "no such job")
	}
	return j
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := co.lookup(w, r)
	if j == nil {
		return
	}
	wire.WriteJSON(w, http.StatusOK, co.jobStatus(r.Context(), j))
}

func (co *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	j := co.lookup(w, r)
	if j == nil {
		return
	}
	st := co.jobStatus(r.Context(), j)
	co.mu.Lock()
	terminal, body, status, repErr := j.terminal != nil, j.report, j.reportStatus, j.reportErr
	co.mu.Unlock()
	switch {
	case !terminal:
		wire.WriteJSON(w, http.StatusAccepted, st)
	case repErr != nil:
		wire.WriteError(w, repErr.Status, wire.ErrorCode(repErr.Code), repErr.Message)
	default:
		wire.WriteReport(w, status, body)
	}
}

func (co *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := co.lookup(w, r)
	if j == nil {
		return
	}
	co.mu.Lock()
	if j.terminal != nil {
		st := *j.terminal
		co.mu.Unlock()
		wire.WriteJSON(w, http.StatusOK, st)
		return
	}
	url, remoteID := j.workerURL, j.remoteID
	var cli *client.Client
	if w2 := co.byURL[url]; w2 != nil {
		cli = w2.cli
	}
	co.mu.Unlock()

	if cli != nil && remoteID != "" {
		if st, err := cli.Cancel(r.Context(), remoteID); err == nil {
			wire.WriteJSON(w, http.StatusOK, j.rewrite(*st))
			return
		}
	}
	// The owner is unreachable (or the job is between workers): cancel
	// locally so failover does not resurrect a job nobody wants.
	exit := int(wire.ExitError)
	st := wire.JobStatus{
		V: wire.Version, ID: j.id, State: "canceled", ExitCode: &exit,
		Error: "job canceled", TraceID: j.tid.String(),
	}
	co.mu.Lock()
	if j.terminal == nil {
		j.setTerminal(&st)
		j.reportErr = &client.APIError{
			Status: wire.ExitError.HTTPStatus(), Code: wire.CodeCanceled,
			Message: "job canceled",
		}
	}
	st = *j.terminal
	co.mu.Unlock()
	wire.WriteJSON(w, http.StatusOK, st)
}

func (co *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := co.lookup(w, r)
	if j == nil {
		return
	}
	co.mu.Lock()
	url, remoteID := j.workerURL, j.remoteID
	var cli *client.Client
	if w2 := co.byURL[url]; w2 != nil {
		cli = w2.cli
	}
	co.mu.Unlock()
	if cli == nil || remoteID == "" {
		wire.WriteRetry(w, http.StatusServiceUnavailable, wire.CodeNoWorker,
			"job is between workers; retry later")
		return
	}
	body, err := cli.Trace(r.Context(), remoteID, r.URL.Query().Get("omit_timing") != "")
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			wire.WriteError(w, apiErr.Status, apiErr.Code, apiErr.Message)
			return
		}
		wire.WriteRetry(w, http.StatusServiceUnavailable, wire.CodeNoWorker,
			"worker unreachable; retry later")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("traceparent", j.echoTraceparent())
	w.Write(body)
}
