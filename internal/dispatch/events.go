package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
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

// maxRelayLine caps one NDJSON line, as the bufio.Scanner the relay
// used to read with capped its token.
const maxRelayLine = 4 << 20

// relayBuf is one relay's reusable input and output buffers.
type relayBuf struct{ in, out []byte }

// relayBufSize is the input buffer a relay starts with; buffers that
// grew past it for a long line are not pooled.
const relayBufSize = 64 << 10

var relayBufs = sync.Pool{New: func() any {
	return &relayBuf{in: make([]byte, 0, relayBufSize), out: make([]byte, 0, relayBufSize)}
}}

// relayLines copies complete NDJSON lines from a worker stream to the
// caller, skipping the first `skip` lines (already relayed before a
// failover) and adding SSE framing when asked. Every upstream read is
// relayed whole: the complete lines it ends are framed into one buffer
// and sent with one Write and one Flush, so the caller sees each batch
// the worker flushed as soon as it arrives. Lines are split as
// bufio.ScanLines splits them: a '\r' before the '\n' is dropped, and a
// final unterminated line is relayed at a clean EOF (but not when the
// stream breaks). It returns how many new lines were written and the
// first read error (nil on clean EOF; bufio.ErrTooLong for a line of
// maxRelayLine bytes or more).
func relayLines(w io.Writer, stream io.Reader, sse bool, skip int, flusher http.Flusher) (int, error) {
	rb := relayBufs.Get().(*relayBuf)
	in, out := rb.in[:0], rb.out[:0]
	seen, written := 0, 0
	var err error
	for err == nil {
		if len(in) == cap(in) {
			in = slices.Grow(in, len(in)) // a partial line fills the buffer
		}
		var n int
		n, err = stream.Read(in[len(in):min(cap(in), maxRelayLine)])
		in = in[:len(in)+n]

		out = out[:0]
		rest := in
		for len(rest) > 0 {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 && err != io.EOF {
				// A partial line: wait for the rest of it, or drop it
				// if the stream broke. After a failover the next owner
				// replays it whole, as line number seen+1.
				break
			}
			line := rest
			if i >= 0 {
				line, rest = rest[:i], rest[i+1:]
			} else {
				rest = nil // the final line, unterminated
			}
			if seen++; seen <= skip {
				continue
			}
			if sse {
				out = append(out, "data: "...)
			}
			out = append(out, bytes.TrimSuffix(line, []byte{'\r'})...)
			out = append(out, '\n')
			if sse {
				out = append(out, '\n')
			}
			written++
		}
		if len(out) > 0 {
			// A failed write means the caller left; its request context
			// then ends the worker stream this loop reads.
			w.Write(out)
			if flusher != nil {
				flusher.Flush()
			}
		}
		in = in[:copy(in, rest)]
		if err == nil && len(in) == maxRelayLine {
			err = bufio.ErrTooLong
		}
	}
	if cap(in) <= relayBufSize && cap(out) <= 2*relayBufSize {
		rb.in, rb.out = in[:0], out[:0]
		relayBufs.Put(rb)
	}
	if err == io.EOF {
		err = nil
	}
	return written, err
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
