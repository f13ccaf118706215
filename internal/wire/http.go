package wire

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// WriteJSON writes doc as an indented JSON response body with the given
// HTTP status — the one JSON writer the daemon and the coordinator
// share.
func WriteJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// WriteError writes the v1 ErrorDoc for a non-2xx response.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, msg string) {
	WriteJSON(w, status, ErrorDoc{V: Version, Code: code, Error: msg})
}

// WriteRetry writes the v1 ErrorDoc for a 429 or 503 that a client
// should retry, with a Retry-After hint of one second: the daemon's
// queue-full and draining answers and the coordinator's draining and
// no-worker ones.
func WriteRetry(w http.ResponseWriter, status int, code ErrorCode, msg string) {
	w.Header().Set("Retry-After", "1")
	WriteError(w, status, code, msg)
}

// maxJobBytes bounds a submission body; a longer one is refused.
const maxJobBytes = 8 << 20

// presizeJobBytes bounds the buffer a submission's declared length buys
// before any of its bytes arrive, so a client that declares 8 MiB and
// stalls holds no more than this.
const presizeJobBytes = 1 << 20

// ReadJobSpec reads a submission body whole, at most 8 MiB of it, and
// decodes it with DecodeJobSpec. A body that declares a length up to
// 1 MiB is read into one buffer of exactly that size; a longer or
// undeclared one grows its buffer as its bytes arrive. The body comes
// back with the spec, so a coordinator can forward the bytes it
// received instead of encoding the spec again.
func ReadJobSpec(w http.ResponseWriter, r *http.Request) ([]byte, JobSpec, error) {
	rd := http.MaxBytesReader(w, r.Body, maxJobBytes)
	var body []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= presizeJobBytes {
		body = make([]byte, n)
		_, err = io.ReadFull(rd, body)
	} else {
		body, err = io.ReadAll(rd)
	}
	if err != nil {
		return nil, JobSpec{}, err
	}
	spec, err := DecodeJobSpec(body)
	return body, spec, err
}

// WriteReport writes a finished job's report document with the given
// HTTP status and its Content-Length, so a client reads it into one
// buffer of the right size.
func WriteReport(w http.ResponseWriter, status int, report []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(report)))
	w.WriteHeader(status)
	w.Write(report)
}
