package wire

import (
	"io"

	"progconv/internal/core"
)

// Report is the v1 JSON document for one conversion run — the wire
// rendering of core.Report shared by the CLI's -report-json flag and
// the daemon's report endpoint. It carries no wall-clock values, so
// for identical inputs the document is byte-identical at any
// parallelism and across the CLI/daemon boundary.
type Report struct {
	V int `json:"v"`
	// Model names the data model the run converted under. Empty means
	// "network" — the v1 default, omitted so network documents keep
	// their historical bytes.
	Model      string `json:"model,omitempty"`
	Plan       string `json:"plan"`
	Invertible bool   `json:"invertible"`
	// TargetDDL is the target schema in its model's canonical DDL form:
	// Figure 4.3 network DDL, or SEGMENT-form hierarchy DDL.
	TargetDDL string `json:"target_ddl,omitempty"`
	// MigrationWarnings are the data translation's advisories (the
	// network migrator raises none today).
	MigrationWarnings []string  `json:"migration_warnings,omitempty"`
	Outcomes          []Outcome `json:"outcomes"`
	Auto              int       `json:"auto"`
	Qualified         int       `json:"qualified"`
	Manual            int       `json:"manual"`
	Failed            int       `json:"failed"`
}

// Outcome is one program's conversion record on the wire.
type Outcome struct {
	Name          string         `json:"name"`
	Disposition   string         `json:"disposition"`
	Issues        []Issue        `json:"issues,omitempty"`
	Notes         []string       `json:"notes,omitempty"`
	Optimizations []Optimization `json:"optimizations,omitempty"`
	Generated     string         `json:"generated,omitempty"`
	Verified      *Verdict       `json:"verified,omitempty"`
	Audit         Audit          `json:"audit"`
}

// Issue is one analyzer or converter finding.
type Issue struct {
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

// Optimization is one optimizer rewrite applied to a converted program.
type Optimization struct {
	Rule string `json:"rule"`
	Note string `json:"note"`
}

// Verdict is the equivalence check against the migrated data. Detail
// renders the first divergence and is empty for equal traces.
type Verdict struct {
	Equal  bool   `json:"equal"`
	Detail string `json:"detail,omitempty"`
}

// Audit is the decision trail behind an outcome's disposition.
type Audit struct {
	Reason string `json:"reason"`
	// Model names the data model the program converted under; empty
	// means "network" (the v1 default, omitted for byte compatibility).
	Model     string     `json:"model,omitempty"`
	Pair      string     `json:"pair,omitempty"`
	Hazards   []string   `json:"hazards,omitempty"`
	PlanStep  string     `json:"plan_step,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
	Failure   *Failure   `json:"failure,omitempty"`
	Retries   []Retry    `json:"retries,omitempty"`
}

// Decision is one Analyst consultation.
type Decision struct {
	Kind     string `json:"kind"`
	Msg      string `json:"msg"`
	Accepted bool   `json:"accepted"`
	TimedOut bool   `json:"timed_out,omitempty"`
}

// Failure is the evidence behind a Failed disposition. The message is
// the deterministic rendering (never the panic stack), so documents
// stay byte-identical at any parallelism.
type Failure struct {
	Stage    string `json:"stage"`
	Kind     string `json:"kind"`
	Message  string `json:"message"`
	Attempts int    `json:"attempts,omitempty"`
}

// Retry is one transient-error retry taken while converting a program.
type Retry struct {
	Stage   string `json:"stage"`
	Attempt int    `json:"attempt"`
	Backoff string `json:"backoff"`
	Err     string `json:"err"`
}

// FromReport renders a core.Report as its v1 wire document.
func FromReport(r *core.Report) *Report {
	auto, qualified, manual := r.Counts()
	doc := &Report{
		V:          Version,
		Plan:       r.PlanDescription,
		Invertible: r.Invertible,
		Outcomes:   make([]Outcome, 0, len(r.Outcomes)),
		Auto:       auto,
		Qualified:  qualified,
		Manual:     manual,
		Failed:     r.FailedCount(),
	}
	if r.Model != "" && r.Model != core.ModelNetwork {
		doc.Model = r.Model
	}
	doc.MigrationWarnings = r.MigrationWarnings
	if r.TargetSchema != nil {
		doc.TargetDDL = r.TargetSchema.DDL()
	} else if r.TargetHierarchy != nil {
		doc.TargetDDL = r.TargetHierarchy.DDL()
	}
	for i := range r.Outcomes {
		doc.Outcomes = append(doc.Outcomes, fromOutcome(&r.Outcomes[i]))
	}
	return doc
}

func fromOutcome(o *core.Outcome) Outcome {
	w := Outcome{
		Name:        o.Name,
		Disposition: o.Disposition.String(),
		Notes:       o.Notes,
		Generated:   o.Generated,
	}
	for _, i := range o.Issues {
		w.Issues = append(w.Issues, Issue{Kind: i.Kind.String(), Msg: i.Msg})
	}
	for _, op := range o.Optimizations {
		w.Optimizations = append(w.Optimizations, Optimization{Rule: op.Rule, Note: op.Note})
	}
	if v := o.Verified; v != nil {
		wv := &Verdict{Equal: v.Equal}
		if !v.Equal {
			wv.Detail = v.Diff()
		}
		w.Verified = wv
	}
	w.Audit = Audit{
		Reason:   o.Audit.Reason,
		Pair:     o.Audit.Pair,
		Hazards:  o.Audit.Hazards,
		PlanStep: o.Audit.PlanStep,
	}
	if o.Audit.Model != "" && o.Audit.Model != core.ModelNetwork {
		w.Audit.Model = o.Audit.Model
	}
	for _, d := range o.Audit.Decisions {
		w.Audit.Decisions = append(w.Audit.Decisions, Decision{
			Kind: d.Issue.Kind.String(), Msg: d.Issue.Msg,
			Accepted: d.Accepted, TimedOut: d.TimedOut,
		})
	}
	if f := o.Audit.Failure; f != nil {
		w.Audit.Failure = &Failure{
			Stage: f.Stage, Kind: f.Kind.String(),
			Message: f.Error(), Attempts: f.Attempts,
		}
	}
	for _, rt := range o.Audit.Retries {
		w.Audit.Retries = append(w.Audit.Retries, Retry{
			Stage: rt.Stage, Attempt: rt.Attempt,
			Backoff: rt.Backoff.String(), Err: rt.Err,
		})
	}
	return w
}

// EncodeReport writes the v1 wire document for r: two-space-indented
// JSON plus a trailing newline, byte-deterministic for identical runs.
// The document is laid out into a pooled buffer and written in one
// Write.
func EncodeReport(w io.Writer, r *core.Report) error {
	bp := getBuf()
	b := appendReport(*bp, FromReport(r))
	_, err := w.Write(b)
	putBuf(bp, b)
	return err
}

// appendReport appends doc as encoding/json's Encoder with
// SetIndent("", "  ") renders it, trailing newline included: fields in
// declaration order, omitempty fields left out when empty, and a nil
// Outcomes as null.
func appendReport(dst []byte, doc *Report) []byte {
	w := indentWriter{b: dst}
	w.open('{')
	w.int("v", doc.V)
	w.strOmit("model", doc.Model)
	w.str("plan", doc.Plan)
	w.bool("invertible", doc.Invertible)
	w.strOmit("target_ddl", doc.TargetDDL)
	w.strings("migration_warnings", doc.MigrationWarnings)
	w.key("outcomes")
	if doc.Outcomes == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for i := range doc.Outcomes {
			w.next()
			w.outcome(&doc.Outcomes[i])
		}
		w.close(']')
	}
	w.int("auto", doc.Auto)
	w.int("qualified", doc.Qualified)
	w.int("manual", doc.Manual)
	w.int("failed", doc.Failed)
	w.close('}')
	return append(w.b, '\n')
}

func (w *indentWriter) outcome(o *Outcome) {
	w.open('{')
	w.str("name", o.Name)
	w.str("disposition", o.Disposition)
	if len(o.Issues) > 0 {
		w.key("issues")
		w.open('[')
		for _, is := range o.Issues {
			w.next()
			w.open('{')
			w.str("kind", is.Kind)
			w.str("msg", is.Msg)
			w.close('}')
		}
		w.close(']')
	}
	w.strings("notes", o.Notes)
	if len(o.Optimizations) > 0 {
		w.key("optimizations")
		w.open('[')
		for _, op := range o.Optimizations {
			w.next()
			w.open('{')
			w.str("rule", op.Rule)
			w.str("note", op.Note)
			w.close('}')
		}
		w.close(']')
	}
	w.strOmit("generated", o.Generated)
	if v := o.Verified; v != nil {
		w.key("verified")
		w.open('{')
		w.bool("equal", v.Equal)
		w.strOmit("detail", v.Detail)
		w.close('}')
	}
	w.key("audit")
	w.audit(&o.Audit)
	w.close('}')
}

func (w *indentWriter) audit(a *Audit) {
	w.open('{')
	w.str("reason", a.Reason)
	w.strOmit("model", a.Model)
	w.strOmit("pair", a.Pair)
	w.strings("hazards", a.Hazards)
	w.strOmit("plan_step", a.PlanStep)
	if len(a.Decisions) > 0 {
		w.key("decisions")
		w.open('[')
		for _, d := range a.Decisions {
			w.next()
			w.open('{')
			w.str("kind", d.Kind)
			w.str("msg", d.Msg)
			w.bool("accepted", d.Accepted)
			if d.TimedOut {
				w.bool("timed_out", true)
			}
			w.close('}')
		}
		w.close(']')
	}
	if f := a.Failure; f != nil {
		w.key("failure")
		w.open('{')
		w.str("stage", f.Stage)
		w.str("kind", f.Kind)
		w.str("message", f.Message)
		if f.Attempts != 0 {
			w.int("attempts", f.Attempts)
		}
		w.close('}')
	}
	if len(a.Retries) > 0 {
		w.key("retries")
		w.open('[')
		for _, rt := range a.Retries {
			w.next()
			w.open('{')
			w.str("stage", rt.Stage)
			w.int("attempt", rt.Attempt)
			w.str("backoff", rt.Backoff)
			w.str("err", rt.Err)
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
}
