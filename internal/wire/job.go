package wire

import (
	"fmt"
	"time"

	"progconv/internal/fault"
)

// JobSpec is the v1 submission body the conversion daemon accepts: one
// schema pair, its program inventory, and the run options. It is the
// network form of what the CLI expresses as file arguments and flags.
type JobSpec struct {
	// V is the wire schema version; zero is accepted as "current".
	V int `json:"v"`
	// Model names the data model the pair converts under: "network"
	// (CODASYL) or "hierarchical" (IMS / DL/I). Empty means "network",
	// so v1 clients that predate the field keep working unchanged.
	Model string `json:"model,omitempty"`
	// SourceDDL and TargetDDL are the schema pair in the model's
	// canonical DDL form: Figure 4.3-style network DDL (SCHEMA ...
	// RECORD ... SET ...) for the network model, SEGMENT-form hierarchy
	// DDL (HIERARCHY ... SEGMENT ... ROOT|PARENT) for the hierarchical
	// model.
	SourceDDL string `json:"source_ddl"`
	TargetDDL string `json:"target_ddl"`
	// Programs is the inventory to convert, in submission order.
	Programs []ProgramSpec `json:"programs"`
	// Options configures the run; the zero value matches the CLI
	// defaults.
	Options JobOptions `json:"options"`
}

// ProgramSpec is one program of a job's inventory.
type ProgramSpec struct {
	// Source is the program text in any of the embedded DML dialects.
	Source string `json:"source"`
}

// JobOptions mirrors the CLI convert flags onto the wire. Durations
// are Go duration strings ("90s", "1.5m"); empty means unbounded.
type JobOptions struct {
	// Parallelism bounds the per-job worker pool (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// MigrateParallel bounds the data-migration shard workers (0 = the
	// server default, which itself defaults to GOMAXPROCS). Results are
	// byte-identical at any setting.
	MigrateParallel int `json:"migrate_parallel,omitempty"`
	// AcceptOrder makes the policy analyst accept order changes.
	AcceptOrder bool `json:"accept_order,omitempty"`
	// Timeout, StageTimeout and AnalystTimeout are the PR-3 budgets
	// (-timeout, -stage-timeout, -analyst-timeout).
	Timeout        string `json:"timeout,omitempty"`
	StageTimeout   string `json:"stage_timeout,omitempty"`
	AnalystTimeout string `json:"analyst_timeout,omitempty"`
	// Retries retries transient stage errors (-retries).
	Retries int `json:"retries,omitempty"`
	// OnFailure is the batch failure policy: "fail-fast", "collect" or
	// "budget:N" (-on-failure).
	OnFailure string `json:"on_failure,omitempty"`
	// FailOn gates the job result like the CLI -fail-on flag: "manual"
	// or "qualified". A tripped gate maps to ExitFailOn.
	FailOn string `json:"fail_on,omitempty"`
	// VerifyInit is a program run against an empty source database to
	// populate it; the populated database is migrated and automatic
	// conversions are verified against it (-verify-init).
	VerifyInit string `json:"verify_init,omitempty"`
	// Deadline bounds the whole job, queue wait excluded; the server
	// clamps it to its configured maximum.
	Deadline string `json:"deadline,omitempty"`
	// Inject arms the deterministic fault injector (-inject grammar).
	Inject string `json:"inject,omitempty"`
}

// The data models a JobSpec may name. They match the core supervisor's
// model names; the empty string is the v1 default, "network".
const (
	ModelNetwork      = "network"
	ModelHierarchical = "hierarchical"
)

// ModelName resolves the spec's model, mapping the empty v1 default to
// "network".
func (s *JobSpec) ModelName() string {
	if s.Model == "" {
		return ModelNetwork
	}
	return s.Model
}

// ValidModel reports whether a model token is one this schema version
// understands (empty included, as the network default).
func ValidModel(m string) bool {
	return m == "" || m == ModelNetwork || m == ModelHierarchical
}

// Duration parses one of the option duration strings; empty is zero.
func Duration(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

// Validate checks a submission for structural problems the server must
// reject with a usage error before queuing: unknown wire version,
// missing schemas or programs, and malformed option grammar.
func (s *JobSpec) Validate() error {
	if s.V != 0 && s.V != Version {
		return fmt.Errorf("unsupported wire version %d (this server speaks v%d)", s.V, Version)
	}
	if !ValidModel(s.Model) {
		return fmt.Errorf("unknown model %q (this server speaks %q and %q)", s.Model, ModelNetwork, ModelHierarchical)
	}
	if s.SourceDDL == "" || s.TargetDDL == "" {
		return fmt.Errorf("source_ddl and target_ddl are required")
	}
	if len(s.Programs) == 0 {
		return fmt.Errorf("at least one program is required")
	}
	for i, p := range s.Programs {
		if p.Source == "" {
			return fmt.Errorf("programs[%d]: source is empty", i)
		}
	}
	if !ValidFailOn(s.Options.FailOn) {
		return fmt.Errorf("fail_on must be \"manual\" or \"qualified\", got %q", s.Options.FailOn)
	}
	if _, err := ParseFailurePolicy(s.Options.OnFailure); err != nil {
		return fmt.Errorf("on_failure: %w", err)
	}
	for _, d := range []struct{ name, val string }{
		{"timeout", s.Options.Timeout},
		{"stage_timeout", s.Options.StageTimeout},
		{"analyst_timeout", s.Options.AnalystTimeout},
		{"deadline", s.Options.Deadline},
	} {
		if _, err := Duration(d.val); err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
	}
	if s.Options.Retries < 0 || s.Options.Parallelism < 0 {
		return fmt.Errorf("retries and parallelism must be non-negative")
	}
	if s.Options.MigrateParallel < 0 {
		return fmt.Errorf("migrate_parallel must be non-negative")
	}
	if s.Options.Inject != "" {
		if _, err := fault.Parse(s.Options.Inject); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
	}
	return nil
}

// JobStatus is the v1 status document for one submitted job.
type JobStatus struct {
	V  int    `json:"v"`
	ID string `json:"id"`
	// State is "queued", "running", "done", "failed" or "canceled".
	State string `json:"state"`
	// ExitCode is present once the job reached a terminal state; it is
	// the code an equivalent CLI run would have exited with.
	ExitCode *int `json:"exit_code,omitempty"`
	// Error explains failed and canceled states, and carries the
	// ExitFor message for done jobs whose gate tripped.
	Error string `json:"error,omitempty"`
	// TraceID is the job's trace — the inbound traceparent's trace-id
	// when one was propagated, otherwise derived from the job content
	// and submission index. The span tree is at /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`
}

// JobList is the v1 body of GET /v1/jobs: one page of job status
// documents in submission order, optionally filtered by state.
// NextPageToken, when present, is the opaque cursor that fetches the
// next page; its absence means the listing is exhausted.
type JobList struct {
	V    int         `json:"v"`
	Jobs []JobStatus `json:"jobs"`
	// NextPageToken resumes the listing where this page stopped. Treat
	// it as opaque: its format may change without a version bump.
	NextPageToken string `json:"next_page_token,omitempty"`
}

// ErrorDoc is the v1 body of every non-2xx daemon response.
type ErrorDoc struct {
	V int `json:"v"`
	// Code is the machine-readable token from the ErrorCode table;
	// dispatch on it, not on Error's prose.
	Code  ErrorCode `json:"code,omitempty"`
	Error string    `json:"error"`
}
