package dispatch

import (
	"bufio"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
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

// countFlusher counts the relay's flushes.
type countFlusher struct{ n int }

func (f *countFlusher) Flush() { f.n++ }

// TestRelayLinesFraming: after a failover the relay skips the lines it
// already sent and frames the rest as NDJSON or SSE, byte for byte as
// the fmt-based relay did, flushing once per line.
func TestRelayLinesFraming(t *testing.T) {
	const stream = `{"v":1,"seq":1}` + "\n" + `{"v":1,"seq":2}` + "\n\n" + `{"v":1,"seq":4,"msg":"a b"}` + "\n" + `{"v":1,"seq":5}`
	for _, sse := range []bool{false, true} {
		for _, skip := range []int{0, 2, 9} {
			var want strings.Builder
			wantN := fmtRelay(&want, strings.NewReader(stream), sse, skip)
			rec, flushes := httptest.NewRecorder(), &countFlusher{}
			n, err := relayLines(rec, strings.NewReader(stream), sse, skip, flushes)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.String(); got != want.String() || n != wantN {
				t.Errorf("sse=%v skip=%d: relayed %d lines\n%q\nwant %d\n%q", sse, skip, n, got, wantN, want.String())
			}
			if flushes.n != n {
				t.Errorf("sse=%v skip=%d: %d flushes for %d lines", sse, skip, flushes.n, n)
			}
		}
	}
}
