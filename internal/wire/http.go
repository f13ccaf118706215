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
