package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"progconv/internal/analyzer"
	"progconv/internal/core"
	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/equiv"
	"progconv/internal/obs"
	"progconv/internal/optimizer"
	"progconv/internal/schema"
)

// escapeClasses are strings covering every class encoding/json escapes
// differently: plain ASCII, quote and backslash, the short control
// escapes, other control bytes and DEL, the HTML-sensitive <, > and &,
// multi-byte UTF-8, U+2028/U+2029, and invalid UTF-8 (a stray
// continuation byte, a truncated sequence, an overlong form and a
// surrogate half).
var escapeClasses = []string{
	"",
	"PAYROLL-1",
	`say "hi" \ bye`,
	"tab\there\nnewline\rreturn\bback\fform",
	"\x00\x01\x1f\x7f",
	"<a href='x'>&amp;</a>",
	"café 日本 🙂",
	"line\u2028sep\u2029para",
	"bad\x80byte",
	"cut\xe2\x80",
	"overlong\xc0\xaf",
	"surrogate\xed\xa0\x80half",
	"\xff",
}

// oracleEvent returns the line the encoding/json path writes for ev.
func oracleEvent(t testing.TB, ev obs.Event, omitTiming bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := oracleEncodeEvent(&buf, ev, omitTiming); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkEvent fails t unless AppendEvent writes the oracle's bytes for
// ev, both into an empty buffer and after existing bytes.
func checkEvent(t testing.TB, ev obs.Event, omitTiming bool) {
	t.Helper()
	want := oracleEvent(t, ev, omitTiming)
	if got := string(AppendEvent(nil, ev, omitTiming)); got != want {
		t.Fatalf("AppendEvent(%+v, omitTiming=%v)\n got %q\nwant %q", ev, omitTiming, got, want)
	}
	if got := string(AppendEvent([]byte("prefix"), ev, omitTiming)); got != "prefix"+want {
		t.Fatalf("AppendEvent did not append after existing bytes: %q", got)
	}
}

// TestAppendEventMatchesOracle: every event kind (and one past the
// table), every stage (and one past it), timing on and off with zero,
// positive and negative clocks, both Analyst answers, and every escape
// class in each string field render exactly as encoding/json rendered
// them.
func TestAppendEventMatchesOracle(t *testing.T) {
	kinds := []obs.EventKind{obs.EventKind(200)}
	for k := obs.EvStageStart; k <= obs.EvCacheEvict; k++ {
		kinds = append(kinds, k)
	}
	stages := append(obs.Stages(), obs.Stage(9))
	clocks := []time.Duration{0, 1, 1500 * time.Microsecond, -7}
	for _, kind := range kinds {
		for _, stage := range stages {
			for _, clock := range clocks {
				for _, accepted := range []bool{false, true} {
					ev := obs.Event{Seq: 42, T: clock, Prog: "P", Kind: kind, Stage: stage,
						Dur: clock * 3, Label: "order-dependence", Detail: "why", Accepted: accepted}
					checkEvent(t, ev, false)
					checkEvent(t, ev, true)
				}
			}
		}
	}
	for _, s := range escapeClasses {
		for _, kind := range []obs.EventKind{obs.EvHazard, obs.EvDecision, obs.EvStageEnd} {
			ev := obs.Event{Seq: 1<<64 - 1, T: time.Second, Prog: s, Kind: kind, Label: s, Detail: s + "|" + s}
			checkEvent(t, ev, false)
			checkEvent(t, ev, true)
		}
	}
}

// FuzzEventOracle: AppendEvent writes the encoding/json bytes for any
// event, whatever its strings hold.
//
// Plain go test runs the seeds; go test -fuzz FuzzEventOracle explores
// from them.
func FuzzEventOracle(f *testing.F) {
	for i, s := range escapeClasses {
		f.Add(uint64(i), int64(i)*1000, s, uint8(i%14), uint8(i%6), int64(i), s, "detail "+s, i%2 == 0, i%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seq uint64, clock int64, prog string, kind, stage uint8,
		dur int64, label, detail string, accepted, omitTiming bool) {
		ev := obs.Event{Seq: seq, T: time.Duration(clock), Prog: prog, Kind: obs.EventKind(kind),
			Stage: obs.Stage(stage), Dur: time.Duration(dur), Label: label, Detail: detail, Accepted: accepted}
		checkEvent(t, ev, omitTiming)
	})
}

// TestAppendEventAllocs: an event line appends into a warm buffer
// without allocating.
func TestAppendEventAllocs(t *testing.T) {
	ev := obs.Event{Seq: 7, T: time.Second, Prog: "LIST-OLD", Kind: obs.EvDecision,
		Label: "order-dependence", Detail: "loop <body> & \"output\"", Accepted: true}
	buf := AppendEvent(nil, ev, false)
	if n := testing.AllocsPerRun(100, func() { buf = AppendEvent(buf[:0], ev, false) }); n != 0 {
		t.Errorf("AppendEvent into a warm buffer: %.0f allocs, want 0", n)
	}
}

// TestJSONLMatchesOracle: EncodeJSONL and JSONLSink write the
// oracle's lines in order.
func TestJSONLMatchesOracle(t *testing.T) {
	var events []obs.Event
	for i, s := range escapeClasses {
		events = append(events, obs.Event{Seq: uint64(i + 1), T: time.Duration(i), Prog: s,
			Kind: obs.EventKind(i % 13), Dur: time.Duration(i), Label: s, Accepted: true})
	}
	for _, omitTiming := range []bool{false, true} {
		var want strings.Builder
		for _, ev := range events {
			want.WriteString(oracleEvent(t, ev, omitTiming))
		}
		var got bytes.Buffer
		if err := EncodeJSONL(&got, events, omitTiming); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("EncodeJSONL(omitTiming=%v) differs from the oracle:\n%s\nwant\n%s", omitTiming, got.String(), want.String())
		}
		if omitTiming {
			continue
		}
		got.Reset()
		sink := NewJSONLSink(&got)
		for _, ev := range events {
			sink.Emit(ev)
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("JSONLSink differs from the oracle:\n%s\nwant\n%s", got.String(), want.String())
		}
	}
}

// checkReport fails t unless appendReport writes the oracle's bytes for
// doc, and EncodeReport (when r is given) the same bytes for r.
func checkReport(t testing.TB, name string, doc *Report) {
	t.Helper()
	want := oracleEncodeReport(doc)
	if got := appendReport(nil, doc); !bytes.Equal(got, want) {
		t.Fatalf("%s: report writer differs from the oracle at byte %d:\n%s\nwant\n%s",
			name, firstDiff(got, want), got, want)
	}
	if got := appendReport([]byte("prefix"), doc); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%s: report writer did not append after existing bytes", name)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkCoreReport checks the writer on r's wire document, and that
// EncodeReport writes those bytes.
func checkCoreReport(t testing.TB, name string, r *core.Report) {
	t.Helper()
	doc := FromReport(r)
	checkReport(t, name, doc)
	var buf bytes.Buffer
	if err := EncodeReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	if want := oracleEncodeReport(doc); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: EncodeReport differs from the oracle", name)
	}
}

var (
	corpusOnce    sync.Once
	corpusReports []*core.Report
	corpusErr     error
)

// studyReports runs corpus seeds 1-20 at 200 programs each, verified
// against each seed's database, and the IMS study against its seed
// hierarchy, once per test binary.
func studyReports(t testing.TB) []*core.Report {
	t.Helper()
	corpusOnce.Do(func() {
		var jobs []core.Job
		for seed := int64(1); seed <= 20; seed++ {
			prof := corpus.PeriodProfile(seed)
			prof.Programs = 200
			members, err := corpus.Programs(prof)
			if err != nil {
				corpusErr = err
				return
			}
			progs := make([]*dbprog.Program, len(members))
			for i, m := range members {
				progs[i] = m.Program
			}
			jobs = append(jobs, core.Job{Spec: core.NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(),
				DB: corpus.Database(prof)}, Programs: progs})
		}
		entry, err := corpus.IMSReorder()
		if err != nil {
			corpusErr = err
			return
		}
		jobs = append(jobs, core.Job{Spec: core.HierSpec{Src: entry.Source, Dst: entry.Target, DB: entry.Seed()},
			Programs: entry.Programs()})
		corpusReports, corpusErr = core.NewSupervisor().RunJobs(context.Background(), jobs)
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusReports
}

// shapedReports are hand-built reports holding every optional part of
// the document: failures with and without attempts, retries, Analyst
// decisions (one timed out), a diverged verdict, notes, issues,
// optimizations, migration warnings, the hierarchical model, and every
// escape class.
func shapedReports() []*core.Report {
	full := &core.Report{
		Model:             core.ModelHierarchical,
		PlanDescription:   "reorder <DEPT> & EMP\n",
		Invertible:        true,
		TargetHierarchy:   nil,
		MigrationWarnings: []string{"DEPT D12 is unreachable after reorder", "merged \"roots\""},
		Outcomes: []core.Outcome{
			{Name: "P-1", Disposition: core.Auto, Generated: "PROGRAM P-1 DIALECT DLI.\nEND PROGRAM.\n",
				Notes:         []string{"note one", "note <two>"},
				Optimizations: []optimizer.Optimization{{Rule: "fold", Note: "folded A & B"}},
				Verified:      &equiv.Verdict{Equal: true},
				Audit: core.Audit{Reason: "every statement matched a rewrite rule", Model: core.ModelHierarchical,
					Pair: "abc123", PlanStep: "reorder"}},
			{Name: "P-2", Disposition: core.Qualified,
				Issues: []analyzer.Issue{{Kind: analyzer.OrderDependence, Msg: "loop body prints"},
					{Kind: analyzer.ProcessFirst, Msg: "FIND FIRST"}},
				Verified: &equiv.Verdict{Equal: false, SourceErr: errors.New("no current <EMP>")},
				Audit: core.Audit{Reason: "accepted by the Analyst", Hazards: []string{"order-dependence", "process-first"},
					Decisions: []core.Decision{
						{Issue: analyzer.Issue{Kind: analyzer.OrderDependence, Msg: "loop body prints"}, Accepted: true},
						{Issue: analyzer.Issue{Kind: analyzer.ProcessFirst, Msg: "FIND FIRST"}, TimedOut: true},
					}}},
			{Name: "P-3", Disposition: core.Failed,
				Audit: core.Audit{Reason: "the convert stage failed",
					Failure: &core.Failure{Stage: "convert", Kind: core.FailError, Err: errors.New("boom"), Attempts: 2},
					Retries: []core.Retry{{Stage: "convert", Attempt: 1, Err: "boom", Backoff: 50 * time.Millisecond},
						{Stage: "convert", Attempt: 2, Err: "boom & bust", Backoff: time.Second}}}},
			{Name: "P-4", Disposition: core.Failed,
				Audit: core.Audit{Reason: "panic",
					Failure: &core.Failure{Stage: "supervisor", Kind: core.FailPanic, Value: "nil map"}}},
			{Name: "P-5", Disposition: core.Manual, Audit: core.Audit{Reason: "manual"}},
		},
	}
	escaped := &core.Report{}
	for _, s := range escapeClasses {
		escaped.PlanDescription += s
		escaped.MigrationWarnings = append(escaped.MigrationWarnings, s)
		escaped.Outcomes = append(escaped.Outcomes, core.Outcome{Name: s, Generated: s, Notes: []string{s},
			Audit: core.Audit{Reason: s, Pair: s, Hazards: []string{s}}})
	}
	return []*core.Report{
		full,
		escaped,
		{},                             // no outcomes: "outcomes": []
		{Outcomes: []core.Outcome{{}}}, // an outcome with every omitempty part empty
	}
}

// emptyDocs are wire documents whose slices are empty but not nil, or
// nil where the schema does not omit them, which FromReport never
// builds but a decoded document can hold.
func emptyDocs() []*Report {
	return []*Report{
		{V: Version},                        // nil outcomes: null
		{V: Version, Outcomes: []Outcome{}}, // empty outcomes: []
		{V: Version, MigrationWarnings: []string{}, Outcomes: []Outcome{{
			Issues: []Issue{}, Notes: []string{}, Optimizations: []Optimization{},
			Audit: Audit{Hazards: []string{}, Decisions: []Decision{}, Retries: []Retry{}},
		}}},
	}
}

// TestReportWriterMatchesOracle: the report writer lays out the corpus
// reports (seeds 1-20 at 200 programs, verified), the IMS study, the
// hand-built shapes and the empty documents byte for byte as
// encoding/json's indented encoding did.
func TestReportWriterMatchesOracle(t *testing.T) {
	for i, r := range studyReports(t) {
		checkCoreReport(t, "study report "+string(rune('A'+i)), r)
	}
	for i, r := range shapedReports() {
		checkCoreReport(t, "shaped report "+string(rune('A'+i)), r)
	}
	for i, doc := range emptyDocs() {
		checkReport(t, "empty document "+string(rune('A'+i)), doc)
	}
}

// FuzzReportOracle: the report writer renders any decodable wire
// document as the oracle does. The second input is put into the plan
// and the first outcome's generated text unchanged, so strings that no
// JSON decoder yields (invalid UTF-8) reach the writer too.
//
// Plain go test runs the seeds: the IMS study, the first outcomes of
// each corpus report (whole 200-program reports are about 150 KB, and
// the fuzzer mutates and minimizes inputs that size at a few execs a
// second), the hand-built shapes and the empty documents. go test
// -fuzz FuzzReportOracle explores from them.
func FuzzReportOracle(f *testing.F) {
	var docs []*Report
	for _, r := range studyReports(f) {
		doc := FromReport(r)
		doc.Outcomes = doc.Outcomes[:min(len(doc.Outcomes), 4)]
		docs = append(docs, doc)
	}
	for _, r := range shapedReports() {
		docs = append(docs, FromReport(r))
	}
	docs = append(docs, emptyDocs()...)
	for i, doc := range docs {
		f.Add(oracleEncodeReport(doc), escapeClasses[i%len(escapeClasses)])
	}
	f.Fuzz(func(t *testing.T, body []byte, text string) {
		var doc Report
		if json.Unmarshal(body, &doc) != nil {
			return
		}
		doc.Plan += text
		if len(doc.Outcomes) > 0 {
			doc.Outcomes[0].Generated += text
		}
		checkReport(t, "fuzzed document", &doc)
	})
}

// TestReportWriterAllocs: the report writer's allocations do not grow
// with the outcome count; into a warm buffer it takes none.
func TestReportWriterAllocs(t *testing.T) {
	full := FromReport(shapedReports()[0])
	big := *full
	big.Outcomes = nil
	for i := 0; i < 200; i++ {
		big.Outcomes = append(big.Outcomes, full.Outcomes...)
	}
	for _, doc := range []*Report{full, &big} {
		buf := appendReport(nil, doc)
		if n := testing.AllocsPerRun(20, func() { buf = appendReport(buf[:0], doc) }); n != 0 {
			t.Errorf("report writer on %d outcomes into a warm buffer: %.0f allocs, want 0", len(doc.Outcomes), n)
		}
	}
}
