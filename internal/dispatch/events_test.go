package dispatch

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// fmtRelay is the fmt-based framing relayLines replaced, kept as the
// reference for its bytes.
func fmtRelay(w io.Writer, stream io.Reader, sse bool, skip int) int {
	sc := bufio.NewScanner(stream)
	seen, written := 0, 0
	for sc.Scan() {
		seen++
		if seen <= skip {
			continue
		}
		if sse {
			fmt.Fprint(w, "data: ")
		}
		fmt.Fprintln(w, sc.Text())
		if sse {
			fmt.Fprintln(w)
		}
		written++
	}
	return written
}

// recordWriter records each Write the relay makes.
type recordWriter struct{ writes []string }

func (w *recordWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// TestRelayLinesFraming: after a failover the relay skips the lines it
// already sent and frames the rest as NDJSON or SSE, byte for byte as
// the fmt-based relay did, dropping a '\r' before each '\n' as its
// scanner did.
func TestRelayLinesFraming(t *testing.T) {
	const stream = `{"v":1,"seq":1}` + "\n" + `{"v":1,"seq":2}` + "\r\n\n" + `{"v":1,"seq":4,"msg":"a b"}` + "\n" + `{"v":1,"seq":5}` + "\r"
	for _, sse := range []bool{false, true} {
		for _, skip := range []int{0, 2, 9} {
			var want strings.Builder
			wantN := fmtRelay(&want, strings.NewReader(stream), sse, skip)
			var got strings.Builder
			n, err := relayLines(&got, strings.NewReader(stream), sse, skip, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() || n != wantN {
				t.Errorf("sse=%v skip=%d: relayed %d lines\n%q\nwant %d\n%q", sse, skip, n, got.String(), wantN, want.String())
			}
		}
	}
}

// chunkReader yields one chunk per Read. Before each chunk after the
// first it waits for the relay to flush what the previous one carried,
// so a relay that reads on without flushing stalls here and fails.
type chunkReader struct {
	chunks  []string
	flushed chan struct{}
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	select {
	case <-r.flushed:
	case <-time.After(5 * time.Second):
		return 0, errors.New("the relay read on without flushing the previous chunk")
	}
	n := copy(p, r.chunks[0])
	r.chunks = r.chunks[1:]
	return n, nil
}

// chanFlusher signals each flush on its channel.
type chanFlusher chan struct{}

func (f chanFlusher) Flush() { f <- struct{}{} }

// TestRelayLinesLiveness: each upstream read's lines reach the caller,
// written and flushed, before the relay reads again: one Write and one
// Flush per read, so a follower sees every batch the worker flushed as
// it arrives.
func TestRelayLinesLiveness(t *testing.T) {
	chunks := []string{
		`{"v":1,"seq":1}` + "\n",
		`{"v":1,"seq":2}` + "\n" + `{"v":1,"seq":3}` + "\n",
		`{"v":1,"seq":4}` + "\n",
	}
	flushed := make(chanFlusher, len(chunks)+1)
	flushed <- struct{}{} // the first read waits for nothing
	r := &chunkReader{chunks: append([]string(nil), chunks...), flushed: flushed}
	var w recordWriter
	n, err := relayLines(&w, r, false, 0, flushed)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || !slices.Equal(w.writes, chunks) {
		t.Errorf("relayed %d lines in writes %q, want 4 lines in %q", n, w.writes, chunks)
	}
}

// TestRelayLinesSplitLine: a line split across upstream reads is held
// until its end arrives, then written once and whole. A line the
// stream breaks in is not relayed or counted, so after a failover the
// next owner's stream supplies it whole.
func TestRelayLinesSplitLine(t *testing.T) {
	r := io.MultiReader(strings.NewReader(`{"v":1,"seq":1}`+"\n"+`{"v":1,`),
		strings.NewReader(`"seq":2}`+"\n"))
	var w recordWriter
	n, err := relayLines(&w, r, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"data: " + `{"v":1,"seq":1}` + "\n\n", "data: " + `{"v":1,"seq":2}` + "\n\n"}
	if n != 2 || !slices.Equal(w.writes, want) {
		t.Errorf("relayed %d lines in writes %q, want %q", n, w.writes, want)
	}

	broken := io.MultiReader(strings.NewReader(`{"v":1,"seq":1}`+"\n"+`{"v":1,`),
		iotest.ErrReader(io.ErrUnexpectedEOF))
	w = recordWriter{}
	n, err = relayLines(&w, broken, false, 0, nil)
	if err != io.ErrUnexpectedEOF || n != 1 || !slices.Equal(w.writes, []string{`{"v":1,"seq":1}` + "\n"}) {
		t.Errorf("broken stream: relayed %d lines in writes %q, err %v; want the one whole line and io.ErrUnexpectedEOF", n, w.writes, err)
	}
}

// TestRelayLinesLongLine: a line longer than the relay's 64 KiB
// starting buffer, arriving in small reads, is relayed whole; a line at
// the 4 MiB cap is refused with bufio.ErrTooLong, as the scanner the
// relay replaced refused it.
func TestRelayLinesLongLine(t *testing.T) {
	long := `{"v":1,"detail":"` + strings.Repeat("x", 100<<10) + `"}`
	r := iotest.OneByteReader(strings.NewReader(long + "\n" + `{"v":1}` + "\n"))
	var w recordWriter
	n, err := relayLines(&w, r, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(w.writes) != 2 || w.writes[0] != long+"\n" || w.writes[1] != `{"v":1}`+"\n" {
		t.Errorf("relayed %d lines in %d writes, want the long line whole, then the short one", n, len(w.writes))
	}

	atCap := strings.Repeat("x", maxRelayLine-1) + "\n"
	var got strings.Builder
	if n, err := relayLines(&got, strings.NewReader(atCap), false, 0, nil); err != nil || n != 1 || got.String() != atCap {
		t.Errorf("a line one byte under the cap: %d lines, %v", n, err)
	}
	if _, err := relayLines(io.Discard, strings.NewReader(strings.Repeat("x", maxRelayLine)+"\n"), false, 0, nil); err != bufio.ErrTooLong {
		t.Errorf("a line at the cap: err = %v, want bufio.ErrTooLong", err)
	}
}

// TestCoordinatorEventsLive: a follower of a job's events through the
// coordinator receives the first line while the job still runs, not
// when it ends: the relay passes each worker batch on as it arrives.
func TestCoordinatorEventsLive(t *testing.T) {
	f := newFleet(t, 2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Two programs at parallelism 1, each analyzed after a 200 ms
	// delay: the job runs for 400 ms or more after its first event.
	spec := slowFleetSpec(0, "200ms")
	st, err := f.cli.Submit(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := f.cli.Events(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	br := bufio.NewReader(stream)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first event line: %v", err)
	}
	if !strings.HasPrefix(first, `{"v":1,`) {
		t.Fatalf("first line = %q", first)
	}
	now, err := f.cli.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if now.State != "queued" && now.State != "running" {
		t.Fatalf("the first event line arrived with the job already %s", now.State)
	}
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.cli.WaitReport(ctx, st.ID, 0); err != nil {
		t.Fatal(err)
	}
}
