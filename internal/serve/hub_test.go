package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"progconv"
	"progconv/internal/obs"
	"progconv/internal/wire"
)

// hubEvents returns n distinct hazard events spread over five
// programs, each a span of its program's trace.
func hubEvents(n int) []progconv.Event {
	events := make([]progconv.Event, n)
	for i := range events {
		events[i] = progconv.Event{Seq: uint64(i + 1), T: time.Duration(i) * time.Microsecond,
			Prog: fmt.Sprintf("P-%d", i%5), Kind: obs.EvHazard,
			Label: "order-dependence", Detail: fmt.Sprintf("finding %d", i)}
	}
	return events
}

// TestHubChunkBoundaries: a hub's log is a list of fixed-size chunks
// and since never returns a view across two of them. Around every
// boundary, a follower that attaches before the run, one that attaches
// during it and one that attaches after it each read every event once
// and in order through the events endpoint, as the NDJSON that
// wire.EncodeJSONL writes for the same events; and the trace folded
// on read holds every event.
func TestHubChunkBoundaries(t *testing.T) {
	for _, n := range []int{hubChunk - 1, hubChunk, hubChunk + 1, 3 * hubChunk} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			srv, ts := newTestServer(t, Config{})
			j := &job{id: "j-chunks", hub: newHub(), names: []string{"P-0", "P-1", "P-2", "P-3", "P-4"}}
			srv.mu.Lock()
			srv.jobs[j.id] = j
			srv.mu.Unlock()
			events := hubEvents(n)
			var want bytes.Buffer
			if err := wire.EncodeJSONL(&want, events, false); err != nil {
				t.Fatal(err)
			}

			type result struct {
				body []byte
				err  error
			}
			// follow reads the job's event stream to its end, closing
			// read (when given) once the first line has arrived.
			follow := func(read chan<- struct{}) <-chan result {
				out := make(chan result, 1)
				go func() {
					resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id + "/events")
					if err != nil {
						out <- result{err: err}
						return
					}
					defer resp.Body.Close()
					br := bufio.NewReader(resp.Body)
					first, err := br.ReadBytes('\n')
					if read != nil {
						close(read)
					}
					if err != nil {
						out <- result{first, err}
						return
					}
					rest, err := io.ReadAll(br)
					out <- result{append(first, rest...), err}
				}()
				return out
			}
			waiting := func() bool {
				j.hub.mu.Lock()
				defer j.hub.mu.Unlock()
				return j.hub.wake != nil
			}

			before := follow(nil)
			for !waiting() {
				time.Sleep(time.Millisecond)
			}
			half := n / 2
			for _, ev := range events[:half] {
				j.hub.Emit(ev)
			}
			read := make(chan struct{})
			during := follow(read)
			<-read
			for _, ev := range events[half:] {
				j.hub.Emit(ev)
			}
			j.hub.finish()
			after := follow(nil)

			for name, ch := range map[string]<-chan result{"before": before, "during": during, "after": after} {
				r := <-ch
				if r.err != nil {
					t.Errorf("%s: %v", name, r.err)
				} else if !bytes.Equal(r.body, want.Bytes()) {
					t.Errorf("%s: read %d bytes, want the %d bytes of EncodeJSONL", name, len(r.body), want.Len())
				}
			}

			b := progconv.NewTraceBuilder(j.tid, j.id)
			b.SetPrograms(j.names)
			for _, ev := range events {
				b.Emit(ev)
			}
			b.End(0)
			var folded, direct bytes.Buffer
			if err := progconv.EncodeTraceJSON(&folded, j.trace(), true); err != nil {
				t.Fatal(err)
			}
			if err := progconv.EncodeTraceJSON(&direct, b.Snapshot(), true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(folded.Bytes(), direct.Bytes()) {
				t.Errorf("the trace folded from the hub (%d bytes) differs from a fold of all %d events (%d bytes)",
					folded.Len(), n, direct.Len())
			}
		})
	}
}

// TestHubEmitAllocs: each chunk of the log is allocated once and never
// copied, so a hub fed three chunks of events allocates three times.
// One slice grown by append was reallocated and copied thirteen times
// on the way to 1,536 events.
func TestHubEmitAllocs(t *testing.T) {
	events := hubEvents(3 * hubChunk)
	hubs := []*hub{newHub(), newHub()} // AllocsPerRun's warm-up run, then the measured one
	runs := 0
	allocs := testing.AllocsPerRun(1, func() {
		h := hubs[runs]
		runs++
		for _, ev := range events {
			h.Emit(ev)
		}
	})
	if allocs != 3 {
		t.Errorf("emitting %d events allocated %.0f times, want 3", len(events), allocs)
	}
}
