package wire

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// stallReader yields its bytes, then blocks until release is closed and
// fails; stalled is closed when it first blocks.
type stallReader struct {
	rd               io.Reader
	stalled, release chan struct{}
}

func (s *stallReader) Read(p []byte) (int, error) {
	if n, _ := s.rd.Read(p); n > 0 {
		return n, nil
	}
	close(s.stalled)
	<-s.release
	return 0, errors.New("connection closed")
}

// TestReadJobSpecStalledBody: a submission that declares 8 MiB, sends a
// few bytes and stalls holds a buffer for what it sent, not for what
// it declared.
func TestReadJobSpecStalledBody(t *testing.T) {
	body := &stallReader{rd: strings.NewReader(`{"v":1,"source_ddl":"`), stalled: make(chan struct{}), release: make(chan struct{})}
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
	r.ContentLength = maxJobBytes
	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan error)
	go func() {
		_, _, err := ReadJobSpec(httptest.NewRecorder(), r)
		done <- err
	}()
	<-body.stalled
	runtime.ReadMemStats(&during)
	close(body.release)
	if err := <-done; err == nil {
		t.Fatal("a body cut short decoded")
	}
	if grew := during.TotalAlloc - before.TotalAlloc; grew > presizeJobBytes {
		t.Fatalf("a stalled body declaring %d bytes allocated %d before sending them", maxJobBytes, grew)
	}
}

// TestReadJobSpecLengths: a body reads whole and decodes the same
// whether it declares its length within the presize bound, declares
// one past it, or declares none.
func TestReadJobSpecLengths(t *testing.T) {
	small := benchSpec(t, 1)
	// Whitespace before the object takes a body past the bound.
	large := append(bytes.Repeat([]byte(" "), presizeJobBytes), small...)
	want, err := oracleDecodeJobSpec(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		body     []byte
		declared bool
	}{{"presized", small, true}, {"past the bound", large, true}, {"undeclared", small, false}} {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", io.MultiReader(bytes.NewReader(tc.body)))
		r.ContentLength = -1
		if tc.declared {
			r.ContentLength = int64(len(tc.body))
		}
		got, spec, err := ReadJobSpec(httptest.NewRecorder(), r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.body) {
			t.Errorf("%s: read %d bytes of a %d-byte body", tc.name, len(got), len(tc.body))
		}
		if spec.SourceDDL != want.SourceDDL || len(spec.Programs) != len(want.Programs) {
			t.Errorf("%s: decoded a different spec", tc.name)
		}
	}
}
