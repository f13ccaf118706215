// Package telemetry is the only renderer of the conversion pipeline's
// structured event log (internal/obs): per-job span trees folded from
// the events (trace.go) and their Chrome trace_event rendering
// (chrome.go); fixed-bucket histogram instruments, counters, gauges
// and the event tally behind the one Prometheus text exporter, plus
// the per-stage summary a timed Report carries (hist.go); and the
// shared operational debug plane — pprof, expvar, /statusz — mounted
// by both the CLI and the daemon (debug.go).
//
// The paper's cost model is per stage: analysis, conversion, code
// generation, verification each carry their own price, and the
// Conversion Supervisor is the facility expected to account for them.
// This package turns the PR 2 event log into that accounting — one
// TraceID per job, one span per program, child spans for stage
// attempts, retries, cache probes, and verification passes — without
// giving up the repository's determinism contract: every ID is derived
// by domain-separated SHA-256 from the trace ID and the span's
// structural path (program name plus that program's event ordinal),
// never from wall clock or RNG, so the span tree is byte-identical at
// any parallelism once timing fields are omitted.
//
// Trace context crosses process boundaries as a W3C traceparent header
// (ParseTraceparent/Traceparent), so daemon callers propagate their own
// TraceID and read the finished tree back from GET /v1/jobs/{id}/trace.
package telemetry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
)

// TraceID identifies one job or Convert run: the W3C trace-id, 16
// bytes rendered as 32 lowercase hex digits.
type TraceID [16]byte

// SpanID identifies one span within a trace: the W3C parent-id, 8
// bytes rendered as 16 lowercase hex digits.
type SpanID [8]byte

// String renders the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the all-zero (invalid per W3C) trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the 16-digit lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports the all-zero (invalid per W3C) span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// derive hashes domain-separated, length-prefixed parts — the same
// construction internal/fingerprint uses, so concatenation ambiguity
// cannot produce colliding IDs. Span derivation runs once per event on
// the pipeline's hot path, so the input is assembled in one (usually
// stack-resident) buffer and hashed with a single Sum256 — no Digest
// allocation, no intermediate strings.
func derive(domain string, trace []byte, parts ...string) [sha256.Size]byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, domain...)
	buf = append(buf, trace...)
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		buf = append(buf, n[:]...)
		buf = append(buf, p...)
	}
	return sha256.Sum256(buf)
}

// DeriveTraceID derives a deterministic trace ID from content parts —
// the job fingerprint plus submission index, per the determinism
// contract. Distinct part lists yield distinct IDs.
func DeriveTraceID(parts ...string) TraceID {
	var t TraceID
	sum := derive("traceid", nil, parts...)
	copy(t[:], sum[:])
	if t.IsZero() { // W3C forbids the all-zero ID
		t[15] = 1
	}
	return t
}

// DeriveSpanID derives a deterministic span ID from its trace and the
// span's structural path parts.
func DeriveSpanID(t TraceID, parts ...string) SpanID {
	var s SpanID
	sum := derive("spanid", t[:], parts...)
	copy(s[:], sum[:])
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// RootSpanID derives a trace's root span ID. It depends on the trace
// ID alone, so every party holding the trace ID — the trace builder,
// the daemon's traceparent echo, a coordinator standing in for a
// worker — names the same root without asking.
func RootSpanID(t TraceID) SpanID { return DeriveSpanID(t, "root") }

// Traceparent renders the W3C traceparent header (version 00, sampled)
// for a trace/span pair — what the daemon injects into submission
// responses so callers can continue the trace.
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header into its trace and
// parent-span IDs. Malformed headers — wrong field lengths, non-hex
// digits, the forbidden version ff, or all-zero IDs — are rejected, so
// callers fall back to a derived trace ID.
func ParseTraceparent(h string) (TraceID, SpanID, error) {
	var t TraceID
	var s SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, s, fmt.Errorf("traceparent: malformed header %q", h)
	}
	ver, err := hex.DecodeString(h[0:2])
	if err != nil || ver[0] == 0xff {
		return t, s, fmt.Errorf("traceparent: bad version %q", h[0:2])
	}
	// Version 00 has exactly four fields; later versions may append.
	if ver[0] == 0 && len(h) != 55 {
		return t, s, fmt.Errorf("traceparent: malformed header %q", h)
	}
	if _, err := hex.Decode(t[:], []byte(h[3:35])); err != nil {
		return t, s, fmt.Errorf("traceparent: bad trace-id: %v", err)
	}
	if _, err := hex.Decode(s[:], []byte(h[36:52])); err != nil {
		return t, s, fmt.Errorf("traceparent: bad parent-id: %v", err)
	}
	if _, err := hex.DecodeString(h[53:55]); err != nil {
		return t, s, fmt.Errorf("traceparent: bad flags: %v", err)
	}
	if t.IsZero() || s.IsZero() {
		return t, s, fmt.Errorf("traceparent: all-zero ID")
	}
	return t, s, nil
}

// ordinal renders a span ordinal for ID-derivation paths.
func ordinal(n int) string { return strconv.Itoa(n) }
