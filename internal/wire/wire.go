// Package wire pins the framework's versioned JSON wire schema. Every
// machine-readable artifact the toolchain emits — the structured event
// log behind the CLI's -events flag, the Report/Outcome/Audit document
// behind -report-json and the daemon's job endpoints, the job
// submission body cmd/progconvd accepts, and the exit-code table the
// CLIs and the server's HTTP status mapping share — is rendered through
// this package, so the daemon's output is byte-identical to the CLI's
// for the same inputs and consumers can dispatch on one explicit
// schema version field.
//
// Version is the current schema generation. Every document and every
// event line carries it as a leading "v" field; additive changes keep
// the version, renames and removals bump it. Encoders in this package
// never emit wall-clock values into versioned report documents, so a
// v1 report is byte-identical at any parallelism.
//
// The two documents every job streams in bulk, event lines and the
// report, are written by appending writers rather than by reflection:
// AppendEvent writes one event line into a caller's buffer, and
// EncodeReport lays the indented report out into a pooled buffer and
// writes it once. Both reproduce encoding/json's bytes exactly (its
// escaping, field order and omitempty rules); the encoding/json
// renderings they replaced are kept as test oracles.
package wire

// Version is the wire schema generation stamped into the "v" field of
// every document and event line this package encodes.
const Version = 1
