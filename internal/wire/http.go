package wire

import (
	"encoding/json"
	"net/http"
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
