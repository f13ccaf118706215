package dispatch

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"time"

	"progconv/client"
)

// handleEvents follows a job's event stream across workers. The
// coordinator consumes the owning worker's NDJSON stream and re-frames
// it for the caller (NDJSON, or SSE when the Accept header asks). If
// the worker dies mid-stream the proxy triggers failover, reconnects
// to the new owner, and skips the lines it already relayed — with
// ?omit_timing=1 the re-run's lines are byte-identical, so the caller
// sees one seamless, complete stream.
func (co *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := co.lookup(w, r)
	if j == nil {
		return
	}
	omitTiming := r.URL.Query().Get("omit_timing") != ""
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	sent := 0
	for {
		co.mu.Lock()
		terminal := j.terminal != nil
		url, remoteID := j.workerURL, j.remoteID
		var cli *client.Client
		if wk := co.byURL[url]; wk != nil {
			cli = wk.cli
		}
		co.mu.Unlock()

		if cli == nil || remoteID == "" {
			// Between workers: wait for the re-dispatch to land.
			if terminal || !co.waitLive(r.Context(), j) {
				return
			}
			continue
		}

		stream, err := cli.Events(r.Context(), remoteID, omitTiming)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			if terminal {
				return // stream is gone with its worker; report survives
			}
			co.jobStatus(r.Context(), j) // triggers failover bookkeeping
			if !co.waitLive(r.Context(), j) {
				return
			}
			continue
		}
		n, streamErr := relayLines(w, stream, sse, sent, flusher)
		sent += n
		stream.Close()
		if streamErr == nil {
			// Clean end of stream: the worker closed it because the job
			// reached a terminal state. Freeze the job and finish.
			co.jobStatus(r.Context(), j)
			co.mu.Lock()
			terminal = j.terminal != nil
			co.mu.Unlock()
			if terminal {
				return
			}
			// The worker restarted and is replaying a shorter stream, or
			// the job moved; re-resolve the owner and keep following.
		}
		if r.Context().Err() != nil {
			return
		}
		co.jobStatus(r.Context(), j)
		if !co.waitLive(r.Context(), j) {
			return
		}
	}
}

// relayLines copies complete NDJSON lines from a worker stream to the
// caller, skipping the first `skip` lines (already relayed before a
// failover) and adding SSE framing when asked. It returns how many new
// lines were written and the first read error (nil on clean EOF).
func relayLines(w http.ResponseWriter, stream io.Reader, sse bool, skip int, flusher http.Flusher) (int, error) {
	sc := bufio.NewScanner(stream)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	seen, written := 0, 0
	var frame []byte // one reused buffer: each line is framed and written once
	for sc.Scan() {
		seen++
		if seen <= skip {
			continue
		}
		frame = frame[:0]
		if sse {
			frame = append(frame, "data: "...)
		}
		frame = append(frame, sc.Bytes()...)
		frame = append(frame, '\n')
		if sse {
			frame = append(frame, '\n')
		}
		// A failed write means the caller left; its request context
		// then ends the worker stream this loop reads.
		w.Write(frame)
		written++
		if flusher != nil {
			flusher.Flush()
		}
	}
	return written, sc.Err()
}

// waitLive blocks until the job has an owner again (or is terminal,
// which also counts: its stream history is replayable from the frozen
// report era — the caller's loop will notice and finish). It returns
// false when the request context ends first.
func (co *Coordinator) waitLive(ctx context.Context, j *cjob) bool {
	for {
		co.mu.Lock()
		ready := j.terminal != nil || (j.workerURL != "" && !j.redispatching && co.byURL[j.workerURL] != nil && !co.byURL[j.workerURL].quarantined)
		co.mu.Unlock()
		if ready {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(20 * time.Millisecond):
		}
	}
}
