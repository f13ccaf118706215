package serve

// Hierarchical-model daemon tests: a DL/I job submitted over HTTP must
// produce exactly the bytes a direct in-process run produces, the
// report document must carry the model and migration facts, and the
// wire layer must keep v1 network clients byte-compatible.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"progconv"
	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/wire"
)

// hierInit populates the DEPT→EMP source hierarchy with the §2.2 study
// data — the DL/I form of corpus.IMSReorder's seed database.
const hierInit = `
PROGRAM SEED DIALECT DLI.
  ISRT DEPT (D# = 'D2', DNAME = 'SALES', MGR = 'SMITH').
  ISRT DEPT (D# = 'D12', DNAME = 'ACCOUNTING', MGR = 'JONES').
  ISRT EMP (E# = 'E1', ENAME = 'BAKER', AGE = 30, YEAR-OF-SERVICE = 3) UNDER DEPT(D# = 'D2').
  ISRT EMP (E# = 'E2', ENAME = 'CLARK', AGE = 30, YEAR-OF-SERVICE = 11) UNDER DEPT(D# = 'D2').
  ISRT EMP (E# = 'E3', ENAME = 'ADAMS', AGE = 30, YEAR-OF-SERVICE = 3) UNDER DEPT(D# = 'D12').
END PROGRAM.
`

// hierSpec is the corpus.IMSReorder workload as a wire submission.
func hierSpec(t *testing.T) wire.JobSpec {
	t.Helper()
	entry, err := corpus.IMSReorder()
	if err != nil {
		t.Fatal(err)
	}
	spec := wire.JobSpec{
		V:         wire.Version,
		Model:     wire.ModelHierarchical,
		SourceDDL: entry.Source.DDL(),
		TargetDDL: entry.Target.DDL(),
		Options:   wire.JobOptions{Parallelism: 1, VerifyInit: hierInit},
	}
	for _, m := range entry.Members {
		spec.Programs = append(spec.Programs, wire.ProgramSpec{Source: m.Source})
	}
	return spec
}

// directHierRun executes the hierSpec workload through the public
// facade — the reference the daemon's wire output must match byte for
// byte (the hierarchical counterpart of directRun).
func directHierRun(t *testing.T, parallelism int) ([]byte, []progconv.Event) {
	t.Helper()
	spec := hierSpec(t)
	src, err := progconv.ParseHierarchySchema(spec.SourceDDL)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := progconv.ParseHierarchySchema(spec.TargetDDL)
	if err != nil {
		t.Fatal(err)
	}
	var programs []*progconv.Program
	for _, p := range spec.Programs {
		prog, err := progconv.ParseProgram(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, prog)
	}
	init, err := progconv.ParseProgram(spec.Options.VerifyInit)
	if err != nil {
		t.Fatal(err)
	}
	db := progconv.NewHierDatabase(src)
	if _, err := dbprog.Run(init, dbprog.Config{Hier: db}); err != nil {
		t.Fatal(err)
	}
	ring := progconv.NewRingSink(4096)
	report, err := progconv.ConvertJob(context.Background(),
		progconv.Job{Spec: progconv.HierSpec{Src: src, Dst: dst, DB: db}, Programs: programs},
		progconv.WithParallelism(parallelism),
		progconv.WithEventSink(ring))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := progconv.EncodeReportJSON(&buf, report); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ring.Events()
}

// serverHierRun submits the workload to a fresh daemon and returns the
// served report and event-stream bytes plus the job ID.
func serverHierRun(t *testing.T, parallelism int) (report, events []byte, base, id string) {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	spec := hierSpec(t)
	spec.Options.Parallelism = parallelism
	id = submitOK(t, ts.URL, spec)
	if st := waitTerminal(t, ts.URL, id); st.State != "done" {
		t.Fatalf("job ended %q: %s", st.State, st.Error)
	}
	code, report := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != 200 {
		t.Fatalf("report: HTTP %d: %s", code, report)
	}
	code, events = getBody(t, ts.URL+"/v1/jobs/"+id+"/events?omit_timing=1")
	if code != 200 {
		t.Fatalf("events: HTTP %d", code)
	}
	return report, events, ts.URL, id
}

// TestHierServerReportMatchesDirect is the tentpole acceptance check:
// a hierarchical job through the daemon serves exactly the bytes a
// direct in-process supervisor run produces, at any parallelism.
func TestHierServerReportMatchesDirect(t *testing.T) {
	direct, _ := directHierRun(t, 1)
	for _, parallelism := range []int{1, 8} {
		served, _, _, _ := serverHierRun(t, parallelism)
		if !bytes.Equal(direct, served) {
			t.Fatalf("parallelism %d: server report diverges from the direct bytes\ndirect: %.300s\nserver: %.300s",
				parallelism, direct, served)
		}
	}
	direct8, _ := directHierRun(t, 8)
	if !bytes.Equal(direct, direct8) {
		t.Fatal("direct hierarchical runs diverge between parallelism 1 and 8")
	}
}

// TestHierServerEventsMatchDirect checks the hierarchical event stream
// against the direct run's JSONL at parallelism 1.
func TestHierServerEventsMatchDirect(t *testing.T) {
	_, directEvents := directHierRun(t, 1)
	var buf bytes.Buffer
	if err := progconv.EncodeJSONL(&buf, directEvents, true); err != nil {
		t.Fatal(err)
	}
	_, served, _, _ := serverHierRun(t, 1)
	if !bytes.Equal(buf.Bytes(), served) {
		t.Fatalf("server event stream diverges from direct JSONL\ndirect: %.300s\nserver: %.300s",
			buf.Bytes(), served)
	}
}

// TestHierReportDocument pins the model-specific surface of the served
// report: the model field, per-program dispositions, the target DDL in
// hierarchy form, and a trace with every program span.
func TestHierReportDocument(t *testing.T) {
	report, _, base, id := serverHierRun(t, 1)
	var doc wire.Report
	if err := json.Unmarshal(report, &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, report)
	}
	if doc.Model != wire.ModelHierarchical {
		t.Errorf("report model = %q, want %q", doc.Model, wire.ModelHierarchical)
	}
	entry, err := corpus.IMSReorder()
	if err != nil {
		t.Fatal(err)
	}
	if doc.TargetDDL != entry.Target.DDL() {
		t.Errorf("report target_ddl does not round-trip the reordered hierarchy:\n%s", doc.TargetDDL)
	}
	want := map[string]string{"DEPTMGR": "auto", "EMPBYID": "auto", "TENURED": "manual"}
	for _, o := range doc.Outcomes {
		if d := want[o.Name]; d != o.Disposition {
			t.Errorf("%s disposition = %q, want %q", o.Name, o.Disposition, d)
		}
		if o.Audit.Model != wire.ModelHierarchical {
			t.Errorf("%s audit model = %q, want %q", o.Name, o.Audit.Model, wire.ModelHierarchical)
		}
	}
	if len(doc.Outcomes) != len(want) {
		t.Errorf("outcomes = %d, want %d", len(doc.Outcomes), len(want))
	}

	// The span tree covers the job, each program, and the pipeline
	// stages — including a verify span for the verified conversions.
	trace := getTrace(t, base, id)
	kinds := map[string]int{}
	progs := map[string]bool{}
	stages := map[string]int{}
	for _, sp := range trace.Spans {
		kinds[sp.Kind]++
		if sp.Kind == "program" {
			progs[sp.Name] = true
		}
		if sp.Kind == "stage" {
			stages[sp.Stage]++
		}
	}
	if kinds["job"] != 1 {
		t.Errorf("job spans = %d, want 1", kinds["job"])
	}
	for name := range want {
		if !progs[name] {
			t.Errorf("no program span for %s; got %v", name, progs)
		}
	}
	for _, stage := range []string{"analyze", "convert", "optimize", "generate", "verify"} {
		if stages[stage] == 0 {
			t.Errorf("no %s stage span in hierarchical trace; got %v", stage, stages)
		}
	}
}

// TestHierUnknownModelRejected: an unknown model is a 400 bad_spec at
// submission, not a queued failure.
func TestHierUnknownModelRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := hierSpec(t)
	spec.Model = "inverted-list"
	resp := submit(t, ts.URL, spec)
	defer resp.Body.Close()
	var ed wire.ErrorDoc
	if err := json.NewDecoder(resp.Body).Decode(&ed); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || ed.Code != wire.CodeBadSpec {
		t.Fatalf("unknown model: HTTP %d code %q, want 400 %q", resp.StatusCode, ed.Code, wire.CodeBadSpec)
	}
}

// TestNetworkReportOmitsModel pins v1 compatibility from the other
// side: a network job's report document carries no model field at all,
// so historical goldens and clients that predate the field see
// unchanged bytes.
func TestNetworkReportOmitsModel(t *testing.T) {
	report, _ := serverRun(t, 1)
	if bytes.Contains(report, []byte(`"model"`)) {
		t.Errorf("network report leaks a model field:\n%.300s", report)
	}
}
