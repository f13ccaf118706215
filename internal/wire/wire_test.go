package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"progconv/internal/core"
	"progconv/internal/obs"
)

func TestEncodeJSONLShape(t *testing.T) {
	events := []obs.Event{
		{Seq: 1, T: time.Second, Prog: "P", Kind: obs.EvStageStart, Stage: obs.StageAnalyze},
		{Seq: 2, T: time.Second, Prog: "P", Kind: obs.EvStageEnd, Stage: obs.StageAnalyze, Dur: time.Millisecond},
		{Seq: 3, T: time.Second, Prog: "P", Kind: obs.EvDecision, Label: "order-dependence", Detail: "why", Accepted: true},
		{Seq: 4, T: time.Second, Prog: "P", Kind: obs.EvOutcome, Label: "auto", Detail: "reason"},
	}
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, events, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	var m map[string]any
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if v, ok := m["v"].(float64); !ok || int(v) != Version {
			t.Errorf("line %d: v = %v, want %d", i, m["v"], Version)
		}
		if _, ok := m["t_ns"]; ok {
			t.Errorf("line %d: omitTiming left t_ns", i)
		}
		if _, ok := m["dur_ns"]; ok {
			t.Errorf("line %d: omitTiming left dur_ns", i)
		}
	}
	// The version field leads every line so consumers can dispatch on
	// it without parsing the rest.
	if !strings.HasPrefix(lines[0], `{"v":1,`) {
		t.Errorf("line 0 does not lead with the version: %s", lines[0])
	}
	if !strings.Contains(lines[0], `"stage":"analyze"`) {
		t.Errorf("stage-start line missing stage: %s", lines[0])
	}
	if !strings.Contains(lines[2], `"accepted":true`) {
		t.Errorf("decision line missing accepted: %s", lines[2])
	}
	if strings.Contains(lines[3], "accepted") || strings.Contains(lines[3], "stage") {
		t.Errorf("outcome line carries fields of other kinds: %s", lines[3])
	}

	// With timing on, the wall-clock fields appear.
	buf.Reset()
	if err := EncodeJSONL(&buf, events[1:2], false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"t_ns"`) || !strings.Contains(buf.String(), `"dur_ns"`) {
		t.Errorf("timed encoding missing wall-clock fields: %s", buf.String())
	}

	// AppendEvent (the daemon's streaming form) produces the identical
	// line.
	if got := strings.TrimRight(string(AppendEvent(nil, events[0], true)), "\n"); got != lines[0] {
		t.Errorf("AppendEvent = %s, want %s", got, lines[0])
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestJSONLSinkStickyError(t *testing.T) {
	w := &failWriter{}
	s := NewJSONLSink(w)
	s.Emit(obs.Event{Prog: "P"})
	s.Emit(obs.Event{Prog: "P"})
	if s.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if w.n != 1 {
		t.Errorf("writer called %d times after first error, want 1", w.n)
	}
}

func TestReportDocumentShape(t *testing.T) {
	r := &core.Report{
		PlanDescription: "plan text\n",
		Invertible:      true,
		Outcomes: []core.Outcome{
			{Name: "P-1", Disposition: core.Auto, Generated: "OUT",
				Audit: core.Audit{Reason: "every statement matched a rewrite rule", Pair: "abc123"}},
			{Name: "P-2", Disposition: core.Failed,
				Audit: core.Audit{
					Reason:  "the convert stage failed",
					Failure: &core.Failure{Stage: "convert", Kind: core.FailError, Err: errors.New("boom"), Attempts: 2},
					Retries: []core.Retry{{Stage: "convert", Attempt: 1, Err: "boom", Backoff: 50 * time.Millisecond}},
				}},
		},
	}
	var buf bytes.Buffer
	if err := EncodeReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "{\n  \"v\": 1,") {
		t.Errorf("report does not lead with the version:\n%s", buf.String())
	}
	var doc Report
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.V != Version || doc.Auto != 1 || doc.Failed != 1 || len(doc.Outcomes) != 2 {
		t.Errorf("doc = %+v", doc)
	}
	if doc.Outcomes[1].Audit.Failure == nil ||
		doc.Outcomes[1].Audit.Failure.Message != "convert stage failed after 2 attempts: boom" {
		t.Errorf("failure = %+v", doc.Outcomes[1].Audit.Failure)
	}
	if len(doc.Outcomes[1].Audit.Retries) != 1 || doc.Outcomes[1].Audit.Retries[0].Backoff != "50ms" {
		t.Errorf("retries = %+v", doc.Outcomes[1].Audit.Retries)
	}

	// Encoding is deterministic: a second pass yields identical bytes.
	var again bytes.Buffer
	if err := EncodeReport(&again, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("EncodeReport is not byte-deterministic")
	}
}

func TestExitTable(t *testing.T) {
	clean := &core.Report{Outcomes: []core.Outcome{{Disposition: core.Auto}}}
	if c, msg := ExitFor(clean, ""); c != ExitOK || msg != "" {
		t.Errorf("clean = %v %q", c, msg)
	}
	manual := &core.Report{Outcomes: []core.Outcome{{Disposition: core.Manual}, {Disposition: core.Auto}}}
	if c, msg := ExitFor(manual, "manual"); c != ExitFailOn ||
		msg != "fail-on manual: 1 of 2 programs were not converted automatically" {
		t.Errorf("manual gate = %v %q", c, msg)
	}
	if c, _ := ExitFor(manual, ""); c != ExitOK {
		t.Error("ungated manual outcome must exit 0")
	}
	qual := &core.Report{Outcomes: []core.Outcome{{Disposition: core.Qualified}}}
	if c, _ := ExitFor(qual, "manual"); c != ExitOK {
		t.Error("qualified must pass the manual gate")
	}
	if c, _ := ExitFor(qual, "qualified"); c != ExitFailOn {
		t.Error("qualified must trip the qualified gate")
	}
	failed := &core.Report{Outcomes: []core.Outcome{{Disposition: core.Failed}}}
	if c, msg := ExitFor(failed, ""); c != ExitPipeline ||
		msg != "1 of 1 programs failed in the pipeline" {
		t.Errorf("pipeline = %v %q", c, msg)
	}
	// Pipeline failures outrank the gate, matching the CLI's order.
	if c, _ := ExitFor(failed, "manual"); c != ExitPipeline {
		t.Error("pipeline failure must outrank the fail-on gate")
	}

	for c, want := range map[ExitCode]int{
		ExitOK:       http.StatusOK,
		ExitError:    http.StatusInternalServerError,
		ExitUsage:    http.StatusBadRequest,
		ExitFailOn:   http.StatusConflict,
		ExitPipeline: http.StatusInternalServerError,
		ExitCode(99): http.StatusInternalServerError,
	} {
		if got := c.HTTPStatus(); got != want {
			t.Errorf("HTTPStatus(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestParseFailurePolicy(t *testing.T) {
	for _, ok := range []string{"", "fail-fast", "collect", "budget:1", "budget:12"} {
		if _, err := ParseFailurePolicy(ok); err != nil {
			t.Errorf("ParseFailurePolicy(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"budget:0", "budget:x", "nope", "budget:-2"} {
		if _, err := ParseFailurePolicy(bad); err == nil {
			t.Errorf("ParseFailurePolicy(%q) succeeded", bad)
		}
	}
}

func TestJobSpecValidate(t *testing.T) {
	good := JobSpec{
		SourceDDL: "S", TargetDDL: "T",
		Programs: []ProgramSpec{{Source: "P"}},
		Options:  JobOptions{Timeout: "2s", OnFailure: "budget:3", FailOn: "manual"},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	versioned := good
	versioned.V = Version
	if err := versioned.Validate(); err != nil {
		t.Fatalf("explicit v%d rejected: %v", Version, err)
	}
	for name, breakIt := range map[string]func(*JobSpec){
		"future version":  func(s *JobSpec) { s.V = Version + 1 },
		"no source":       func(s *JobSpec) { s.SourceDDL = "" },
		"no target":       func(s *JobSpec) { s.TargetDDL = "" },
		"no programs":     func(s *JobSpec) { s.Programs = nil },
		"empty program":   func(s *JobSpec) { s.Programs = []ProgramSpec{{}} },
		"bad fail_on":     func(s *JobSpec) { s.Options.FailOn = "everything" },
		"bad on_failure":  func(s *JobSpec) { s.Options.OnFailure = "budget:0" },
		"bad timeout":     func(s *JobSpec) { s.Options.Timeout = "fast" },
		"bad deadline":    func(s *JobSpec) { s.Options.Deadline = "soon" },
		"negative limits": func(s *JobSpec) { s.Options.Retries = -1 },
	} {
		spec := good
		breakIt(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
		}
	}
}
