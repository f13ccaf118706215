package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"progconv/internal/obs"
	"progconv/internal/telemetry/promlint"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := DeriveTraceID("schema-a", "schema-b", "prog")
	sid := DeriveSpanID(tid, "root")
	h := Traceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	gotT, gotS, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gotT != tid || gotS != sid {
		t.Errorf("round trip = (%s, %s), want (%s, %s)", gotT, gotS, tid, sid)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	for name, h := range map[string]string{
		"empty":          "",
		"short":          "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033-01",
		"bad dashes":     "00x0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331x01",
		"version ff":     "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"bad hex":        "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01",
		"zero trace id":  "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero parent id": "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"ver00 too long": valid + "-extra",
	} {
		if _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: %q accepted, want error", name, h)
		}
	}
}

func TestDeriveIDsDeterministicAndDistinct(t *testing.T) {
	a := DeriveTraceID("x", "y")
	if a != DeriveTraceID("x", "y") {
		t.Error("DeriveTraceID not deterministic")
	}
	if a == DeriveTraceID("x", "z") {
		t.Error("distinct inputs collided")
	}
	// Length-prefixed hashing: ("ab","c") must differ from ("a","bc").
	if DeriveTraceID("ab", "c") == DeriveTraceID("a", "bc") {
		t.Error("part boundaries are ambiguous")
	}
	s1 := DeriveSpanID(a, "event", "P", "0")
	if s1 != DeriveSpanID(a, "event", "P", "0") {
		t.Error("DeriveSpanID not deterministic")
	}
	if s1 == DeriveSpanID(a, "event", "P", "1") {
		t.Error("distinct span paths collided")
	}
	if a.IsZero() || s1.IsZero() {
		t.Error("derived IDs must be non-zero")
	}
}

// synthetic event stream: one program through analyze (with a cache
// miss and a retry), then convert, an accepted decision, a verdict,
// and the outcome. Rewrites consume ordinals but add no spans.
func buildTestTrace(id TraceID) *TraceBuilder {
	b := NewTraceBuilder(id, "test-job")
	b.SetPrograms([]string{"P1"})
	e := obs.NewEmitter(b)
	e.CacheMiss("", "pair", "k1")
	e.StageStart("P1", obs.StageAnalyze)
	e.CacheMiss("P1", "analysis", "k2")
	e.Hazard("P1", "order-dependence", "sort order differs")
	e.StageEnd("P1", obs.StageAnalyze, 5*time.Microsecond)
	e.Retry("P1", "analyze", 1, time.Millisecond, "transient: boom")
	e.StageStart("P1", obs.StageAnalyze)
	e.StageEnd("P1", obs.StageAnalyze, 3*time.Microsecond)
	e.StageStart("P1", obs.StageConvert)
	e.Rewrite("P1", "get", "EMP")
	e.Decision("P1", "order-change", "accepted order change", true)
	e.StageEnd("P1", obs.StageConvert, 7*time.Microsecond)
	e.StageStart("P1", obs.StageVerify)
	e.Verify("P1", true, "outputs equal")
	e.StageEnd("P1", obs.StageVerify, 2*time.Microsecond)
	e.Outcome("P1", "auto", "all statements matched")
	return b
}

func TestTraceBuilderStructure(t *testing.T) {
	id := DeriveTraceID("structure-test")
	tr := buildTestTrace(id).Snapshot()

	root := tr.Root()
	if root.Kind != KindJob || root.Name != "test-job" {
		t.Fatalf("root = %+v, want job span named test-job", root)
	}
	if tr.TraceID != id {
		t.Errorf("TraceID = %s, want %s", tr.TraceID, id)
	}
	// The pair-scoped cache miss hangs off the root.
	shared := tr.ByKind(KindCache)
	if len(shared) != 2 { // pair miss + analysis miss
		t.Fatalf("cache spans = %d, want 2", len(shared))
	}
	if shared[0].Parent != root.ID || shared[0].Label != "miss" || shared[0].Name != "pair" {
		t.Errorf("pair cache span = %+v, want miss/pair under root", shared[0])
	}

	progs := tr.ByKind(KindProgram)
	if len(progs) != 1 || progs[0].Name != "P1" || progs[0].Parent != root.ID {
		t.Fatalf("program spans = %+v", progs)
	}
	if progs[0].Label != "auto" {
		t.Errorf("program label = %q, want auto (from the outcome)", progs[0].Label)
	}

	stages := tr.ByKind(KindStage)
	if len(stages) != 4 {
		t.Fatalf("stage spans = %d, want 4 (analyze x2, convert, verify)", len(stages))
	}
	if stages[0].Stage != "analyze" || stages[0].Attempt != 1 ||
		stages[1].Stage != "analyze" || stages[1].Attempt != 2 {
		t.Errorf("analyze attempts = %+v, %+v", stages[0], stages[1])
	}
	if stages[0].Dur != 5*time.Microsecond {
		t.Errorf("first analyze dur = %v, want 5µs", stages[0].Dur)
	}
	for _, sp := range stages {
		if sp.Parent != progs[0].ID {
			t.Errorf("stage %s attempt %d parented to %s, want program span", sp.Stage, sp.Attempt, sp.Parent)
		}
	}

	// The retry parents to the failed (closed) first analyze attempt.
	retries := tr.ByKind(KindRetry)
	if len(retries) != 1 || retries[0].Parent != stages[0].ID {
		t.Errorf("retry spans = %+v, want one under first analyze attempt", retries)
	}
	// The hazard was found inside the first analyze attempt.
	hazards := tr.ByKind(KindHazard)
	if len(hazards) != 1 || hazards[0].Parent != stages[0].ID {
		t.Errorf("hazard spans = %+v, want one under first analyze attempt", hazards)
	}
	// The verdict lives inside the verify stage attempt.
	verdicts := tr.ByKind(KindVerdict)
	if len(verdicts) != 1 || verdicts[0].Parent != stages[3].ID || verdicts[0].Label != "pass" {
		t.Errorf("verdict spans = %+v", verdicts)
	}
	decisions := tr.ByKind(KindDecision)
	if len(decisions) != 1 || decisions[0].Label != "accepted" || decisions[0].Parent != stages[2].ID {
		t.Errorf("decision spans = %+v", decisions)
	}
	// No rewrite spans — they stay in the event log.
	for _, sp := range tr.Spans {
		if sp.Name == "get" {
			t.Errorf("rewrite leaked into the trace: %+v", sp)
		}
	}
	// Every non-root span's parent exists.
	ids := map[SpanID]bool{}
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range tr.Spans[1:] {
		if !ids[sp.Parent] {
			t.Errorf("span %s (%s) has unknown parent %s", sp.ID, sp.Name, sp.Parent)
		}
	}
}

func TestTraceBuilderDeterministicIDs(t *testing.T) {
	id := DeriveTraceID("determinism-test")
	a, b := buildTestTrace(id).Snapshot(), buildTestTrace(id).Snapshot()
	if len(a.Spans) != len(b.Spans) {
		t.Fatalf("span counts differ: %d vs %d", len(a.Spans), len(b.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i].ID != b.Spans[i].ID || a.Spans[i].Parent != b.Spans[i].Parent {
			t.Errorf("span %d differs: %+v vs %+v", i, a.Spans[i], b.Spans[i])
		}
	}
}

func TestTraceBuilderRemoteParent(t *testing.T) {
	id := DeriveTraceID("remote-test")
	b := NewTraceBuilder(id, "j")
	remote := DeriveSpanID(id, "caller")
	b.SetRemoteParent(remote)
	tr := b.Snapshot()
	if tr.Remote != remote {
		t.Errorf("Remote = %s, want %s", tr.Remote, remote)
	}
	if tr.Root().Parent != remote {
		t.Errorf("root parent = %s, want the remote span", tr.Root().Parent)
	}
}

func TestRegistryWritePrometheus(t *testing.T) {
	r := NewRegistry()
	in := NewInstruments(r)
	in.JobDur.ObserveDuration("", 3*time.Millisecond)
	in.Stage.ObserveDuration("analyze", 5*time.Microsecond)
	in.ObserveDataPlane(obs.DataPlane{IndexProbes: 12, IndexScans: 2})
	r.Gauge("progconv_test_gauge", "A test gauge.", func() float64 { return 7 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		// Zero-count series export unconditionally.
		`progconv_queue_wait_seconds_count 0`,
		`progconv_job_duration_seconds_count 1`,
		`progconv_stage_latency_seconds_bucket{stage="analyze",le="1e-06"} 0`,
		`progconv_stage_latency_seconds_bucket{stage="analyze",le="6.4e-05"} 1`,
		`progconv_stage_latency_seconds_count{stage="convert"} 0`,
		`progconv_stage_latency_seconds_count{stage="verify"} 0`,
		`progconv_dataplane_probe_count_bucket{op="probe",le="16"} 1`,
		`progconv_dataplane_probe_count_sum{op="probe"} 12`,
		"# TYPE progconv_queue_wait_seconds histogram",
		"# TYPE progconv_test_gauge gauge",
		"progconv_test_gauge 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exactly 4 histogram families.
	if n := strings.Count(out, " histogram\n"); n != 4 {
		t.Errorf("histogram families = %d, want 4", n)
	}
	// Byte-stable across scrapes with no new observations.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two scrapes of an idle registry differ")
	}
}

// TestWritePrometheusFormat is the format lint over everything the one
// Prometheus writer renders: a registry holding a tally with every
// family non-empty, the standard instruments and a gauge. Every line
// parses, HELP/TYPE precede their samples, and the families keep the
// daemon's order: tally counters, histograms, gauges.
func TestWritePrometheusFormat(t *testing.T) {
	tally := obs.NewTally()
	e := obs.NewEmitter(tally)
	e.Outcome("A", "auto", "r")
	e.Outcome("B", "manual", "r")
	e.Outcome("C", "auto", "r")
	e.Hazard("B", "order-dependence", "m")
	e.Rewrite("A", "get", "EMP")
	e.Rewrite("A", "move", "EMP")
	e.Rewrite("C", "get", "EMP")
	e.Verify("A", true, "ok")
	e.Verify("C", false, "diff")
	e.Retry("A", "analyze", 1, 50*time.Millisecond, "transient: boom")
	e.Retry("B", "generate", 1, 50*time.Millisecond, "transient: boom")
	e.Panic("C", "convert", "injected")
	e.Timeout("D", "analyze", 25*time.Millisecond)
	e.Timeout("E", "program", time.Second)
	e.CacheHit("", "pair", "k1")
	e.CacheMiss("A", "analysis", "k2")
	e.CacheEvict("codegen", "k3")
	tally.AddDataPlane(obs.DataPlane{IndexProbes: 5, IndexScans: 1, FusedSteps: 2,
		StepwiseSteps: 1, MigrationShards: 4, BulkLoadedRecords: 9})

	r := NewRegistry()
	r.Tally(tally)
	in := NewInstruments(r)
	in.Stage.ObserveDuration("analyze", 3*time.Microsecond)
	in.JobDur.ObserveDuration("", time.Millisecond)
	r.Gauge("progconv_test_gauge", "A test gauge.", func() float64 { return 7 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, err := range promlint.Lint(out) {
		t.Error(err)
	}
	for _, want := range []string{
		`progconv_programs_total{disposition="auto"} 2`,
		`progconv_hazards_total{kind="order-dependence"} 1`,
		`progconv_dml_rewrites_total{verb="get"} 2`,
		`progconv_verifications_total{result="pass"} 1`,
		`progconv_faults_total{kind="retry"} 2`,
		`progconv_faults_total{kind="panic"} 1`,
		`progconv_faults_total{kind="timeout"} 2`,
		`progconv_cache_hits_total{scope="pair"} 1`,
		`progconv_cache_misses_total{scope="analysis"} 1`,
		`progconv_cache_evictions_total{scope="codegen"} 1`,
		"progconv_index_probes_total 5",
		"progconv_bulk_loaded_records_total 9",
		`progconv_stage_latency_seconds_bucket{stage="analyze",le="4e-06"} 1`,
		"progconv_test_gauge 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	var types []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	wantTypes := []string{
		"progconv_programs_total counter", "progconv_hazards_total counter",
		"progconv_dml_rewrites_total counter", "progconv_verifications_total counter",
		"progconv_faults_total counter", "progconv_cache_hits_total counter",
		"progconv_cache_misses_total counter", "progconv_cache_evictions_total counter",
		"progconv_index_probes_total counter", "progconv_index_scans_total counter",
		"progconv_migration_fused_steps_total counter", "progconv_migration_stepwise_steps_total counter",
		"progconv_migration_shards_total counter", "progconv_bulk_loaded_records_total counter",
		"progconv_queue_wait_seconds histogram", "progconv_job_duration_seconds histogram",
		"progconv_stage_latency_seconds histogram", "progconv_dataplane_probe_count histogram",
		"progconv_test_gauge gauge",
	}
	if strings.Join(types, "\n") != strings.Join(wantTypes, "\n") {
		t.Errorf("families = %q\nwant %q", types, wantTypes)
	}
}

// TestRunMetrics: stage-end durations fold into the per-stage summary —
// count, total, min, max, the distinct programs, and buckets that sum
// to the count with the overflow bucket last; other events are
// ignored and an untimed run has no summary.
func TestRunMetrics(t *testing.T) {
	m := NewRunMetrics()
	e := obs.NewEmitter(m)
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Microsecond, 2 * time.Millisecond} {
		e.StageStart("P1", obs.StageConvert)
		e.StageEnd("P1", obs.StageConvert, d)
	}
	e.StageEnd("P2", obs.StageAnalyze, time.Hour)
	e.Outcome("P3", "auto", "no stage ran")

	got := m.Metrics()
	if got.Programs != 2 {
		t.Errorf("programs = %d, want 2", got.Programs)
	}
	if got.Wall <= 0 {
		t.Errorf("wall = %v, want > 0", got.Wall)
	}
	conv := got.Stage(obs.StageConvert)
	if conv.Count != 3 || conv.Total != 3*time.Millisecond+3*time.Microsecond ||
		conv.Min != 3*time.Microsecond || conv.Max != 2*time.Millisecond {
		t.Errorf("convert = %+v", conv)
	}
	if conv.Mean() != conv.Total/3 {
		t.Errorf("convert mean = %v", conv.Mean())
	}
	for _, st := range got.ByStage {
		var sum int64
		for _, n := range st.Buckets {
			sum += n
		}
		if sum != st.Count || len(st.Buckets) != len(LatencyBuckets())+1 {
			t.Errorf("%s: %d buckets summing to %d, count %d", st.Stage, len(st.Buckets), sum, st.Count)
		}
	}
	if an := got.Stage(obs.StageAnalyze); an.Buckets[len(an.Buckets)-1] != 1 {
		t.Errorf("1h attempt not in the overflow bucket: %v", an.Buckets)
	}
	if v := got.Stage(obs.StageVerify); v.Count != 0 || v.Min != 0 || v.Max != 0 {
		t.Errorf("verify = %+v, want empty", v)
	}
	if (*RunMetrics)(nil).Metrics() != nil {
		t.Error("nil RunMetrics returned a summary")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	f := r.Family("edges", "h", "", LatencyBuckets())
	f.Observe("", 1e-6) // exactly on the first bound: le is inclusive
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `edges_bucket{le="1e-06"} 1`) {
		t.Errorf("boundary observation not in its bucket:\n%s", buf.String())
	}
	// Above the last finite bound: only +Inf.
	f2 := r.Family("over", "h", "", CountBuckets())
	f2.Observe("", 1e9)
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `over_bucket{le="262144"} 0`) || !strings.Contains(out, `over_bucket{le="+Inf"} 1`) {
		t.Errorf("overflow observation mishandled:\n%s", out)
	}
}

func TestDebugMuxAndStatusz(t *testing.T) {
	r := NewRegistry()
	NewInstruments(r)
	metrics := httptest.NewServer(DebugMux(
		writeHandler(func(w *bytes.Buffer) { r.WritePrometheus(w) }),
		StatuszHandler(time.Now(), StatusSection{
			Title: "histograms",
			Write: func(w io.Writer) { r.WriteSummary(w) },
		}),
	))
	defer metrics.Close()

	for path, want := range map[string]string{
		"/metrics":      "progconv_queue_wait_seconds",
		"/statusz":      "histograms",
		"/debug/vars":   "cmdline",
		"/debug/pprof/": "goroutine",
		"/":             "== process ==", // the root serves the statusz snapshot
	} {
		res, err := metrics.Client().Get(metrics.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, res.StatusCode)
			continue
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s missing %q:\n%.400s", path, want, body)
		}
	}
}

// writeHandler adapts a buffer-writing function to http.Handler.
func writeHandler(fn func(*bytes.Buffer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		fn(&buf)
		w.Write(buf.Bytes())
	})
}

func TestWriteChromeTraceFromSpans(t *testing.T) {
	id := DeriveTraceID("chrome-test")
	tr := buildTestTrace(id).Snapshot()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	// job + program + 4 stage attempts are complete events; the two
	// cache probes, hazard, retry, decision and verdict are instants.
	if complete != 6 {
		t.Errorf("complete events = %d, want 6", complete)
	}
	if instant != 6 {
		t.Errorf("instant events = %d, want 6", instant)
	}
	// Nil trace stays valid JSON.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Errorf("nil trace invalid: %v", err)
	}
}
