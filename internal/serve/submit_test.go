package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"progconv/internal/wire"
)

// TestSubmitBodyLimit: a submission over 8 MiB is refused with 400
// bad_spec, whether it declares its length or arrives chunked.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := testSpec()
	spec.Programs[0].Source = strings.Repeat(" ", 8<<20) + spec.Programs[0].Source
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunked := range []bool{false, true} {
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = io.MultiReader(rd) // hides the length: sent chunked
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		ed := errorDoc(t, readAll(t, resp))
		if resp.StatusCode != http.StatusBadRequest || ed.Code != wire.CodeBadSpec ||
			!strings.HasPrefix(ed.Error, "decoding job: ") {
			t.Errorf("chunked=%v: HTTP %d %+v, want 400 %s", chunked, resp.StatusCode, ed, wire.CodeBadSpec)
		}
	}
}

// TestReportContentLength: the daemon serves a report with its
// Content-Length, so a client reads it into one buffer.
func TestReportContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submitOK(t, ts.URL, testSpec())
	waitTerminal(t, ts.URL, id)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("report: HTTP %d, %d bytes", resp.StatusCode, len(body))
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q for a %d-byte report", got, len(body))
	}
}

// TestSubmitChunkedBody: a submission without a declared length
// converts as the same bytes with one do.
func TestSubmitChunkedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var reports [2][]byte
	for i, rd := range []io.Reader{bytes.NewReader(body), io.MultiReader(bytes.NewReader(body))} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		var st wire.JobStatus
		if err := json.Unmarshal(readAll(t, resp), &st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d %v", i, resp.StatusCode, err)
		}
		waitTerminal(t, ts.URL, st.ID)
		_, reports[i] = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/report")
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("a chunked submission converted differently")
	}
}
