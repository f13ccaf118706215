package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"progconv/internal/analyzer"
	"progconv/internal/dbprog"
	"progconv/internal/netstore"
	"progconv/internal/obs"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/xform"
)

func companyV1DB(t *testing.T) *netstore.DB {
	t.Helper()
	db := netstore.NewDB(schema.CompanyV1())
	s := netstore.NewSession(db)
	for _, d := range []struct{ n, l string }{{"MACHINERY", "DETROIT"}, {"TEXTILES", "ATLANTA"}} {
		s.Store("DIV", value.FromPairs("DIV-NAME", d.n, "DIV-LOC", d.l))
	}
	for _, e := range []struct {
		div, name, dept string
		age             int
	}{
		{"MACHINERY", "ADAMS", "SALES", 45},
		{"MACHINERY", "BAKER", "SALES", 28},
		{"MACHINERY", "CLARK", "WELDING", 33},
		{"TEXTILES", "DAVIS", "SALES", 51},
	} {
		s.FindAny("DIV", value.FromPairs("DIV-NAME", e.div))
		s.Store("EMP", value.FromPairs("EMP-NAME", e.name, "DEPT-NAME", e.dept, "AGE", e.age))
	}
	return db
}

func parse(t *testing.T, src string) *dbprog.Program {
	t.Helper()
	p, err := dbprog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// applicationSystem is a small mixed program inventory.
func applicationSystem(t *testing.T) []*dbprog.Program {
	return []*dbprog.Program{
		parse(t, `
PROGRAM LIST-OLD DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO OLD.
  FOR EACH E IN OLD
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
END PROGRAM.
`),
		parse(t, `
PROGRAM COUNT-SALES DIALECT NETWORK.
  LET N = 0.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP USING DEPT-NAME.
    IF DB-STATUS = 'OK'
      GET EMP.
      LET N = N + 1.
    END-IF.
  END-PERFORM.
  PRINT 'SALES EMPLOYEES', N.
END PROGRAM.
`),
		parse(t, `
PROGRAM PRINT-ALL DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`),
		parse(t, `
PROGRAM INPUT-DRIVEN DIALECT NETWORK.
  ACCEPT MODE.
  IF MODE = 'W'
    STORE DIV.
  END-IF.
END PROGRAM.
`),
	}
}

func TestSupervisorEndToEnd(t *testing.T) {
	sup := NewSupervisor()
	db := companyV1DB(t)
	report, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, db, applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	auto, qualified, manual := report.Counts()
	// LIST-OLD and COUNT-SALES convert automatically; PRINT-ALL is
	// order-dependent (strict policy: manual); INPUT-DRIVEN is blocked.
	if auto != 2 || qualified != 0 || manual != 2 {
		t.Fatalf("counts = %d/%d/%d\n%s", auto, qualified, manual, report)
	}
	// Auto conversions verified equivalent against the migrated data.
	for _, o := range report.Outcomes {
		if o.Disposition == Auto {
			if o.Verified == nil || !o.Verified.Equal {
				t.Errorf("%s not verified: %+v", o.Name, o.Verified)
			}
		}
	}
	if report.TargetDB == nil || report.TargetDB.Count("DEPT") != 3 {
		t.Error("data not migrated")
	}
	text := report.String()
	for _, want := range []string{"introduce-intermediate", "auto", "manual", "[verified]"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestSupervisorAcceptingAnalyst(t *testing.T) {
	sup := &Supervisor{Analyst: Policy{AcceptOrderChanges: true}}
	db := companyV1DB(t)
	report, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, db, applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	auto, qualified, manual := report.Counts()
	if auto != 2 || qualified != 1 || manual != 1 {
		t.Fatalf("counts = %d/%d/%d\n%s", auto, qualified, manual, report)
	}
	// The qualified program produced real output against the new database
	// (same records, possibly different order).
	for _, o := range report.Outcomes {
		if o.Disposition != Qualified {
			continue
		}
		tr, err := dbprog.Run(o.Converted, dbprog.Config{Net: report.TargetDB.Clone()})
		if err != nil {
			t.Fatalf("qualified program run: %v", err)
		}
		if len(tr.Events) != 3 {
			t.Errorf("qualified output = %v", tr.Events)
		}
	}
}

func TestSupervisorExplicitPlanAndNoDB(t *testing.T) {
	sup := NewSupervisor()
	report, err := sup.Run(context.Background(), schema.CompanyV1(), nil, planFigure(), nil, applicationSystem(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if report.TargetDB != nil {
		t.Error("no database given, none expected back")
	}
	if report.Outcomes[0].Verified != nil {
		t.Error("verification needs a database")
	}
	if !report.Invertible {
		t.Error("figure plan is invertible")
	}
}

func TestSupervisorClassifyErrorSurfaces(t *testing.T) {
	weird := schema.CompanyV1()
	weird.Records = append(weird.Records, &schema.RecordType{Name: "ALIEN",
		Fields: []schema.Field{{Name: "X", Kind: value.Int}}})
	weird.Sets = append(weird.Sets, &schema.SetType{Name: "ALL-ALIEN",
		Owner: schema.SystemOwner, Member: "ALIEN"})
	sup := NewSupervisor()
	if _, err := sup.Run(context.Background(), schema.CompanyV1(), weird, nil, nil, nil); err == nil {
		t.Error("unclassifiable change should error")
	}
}

func TestDispositionString(t *testing.T) {
	for d, w := range map[Disposition]string{Auto: "auto", Qualified: "qualified",
		Manual: "manual", Disposition(9): "disposition(9)"} {
		if d.String() != w {
			t.Errorf("%d = %q", d, d.String())
		}
	}
}

func TestDispositionTextMarshalling(t *testing.T) {
	for _, d := range []Disposition{Auto, Qualified, Manual} {
		text, err := d.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Disposition
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != d {
			t.Errorf("round trip %v → %s → %v", d, text, back)
		}
	}
	if _, err := Disposition(9).MarshalText(); err != nil {
		t.Errorf("unknown disposition must still marshal: %v", err)
	}
	var d Disposition
	if err := d.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("unknown text must not unmarshal")
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sup := NewSupervisor()
	_, err := sup.Run(ctx, schema.CompanyV1(), nil, planFigure(), nil, applicationSystem(t))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

func TestParallelRunMatchesSerial(t *testing.T) {
	progs := applicationSystem(t)
	serial := &Supervisor{Analyst: Policy{}, Parallelism: 1}
	par := &Supervisor{Analyst: Policy{}, Parallelism: 4}
	a, err := serial.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, companyV1DB(t), progs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, companyV1DB(t), progs)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("serial and parallel reports differ:\n%s\nvs\n%s", a, b)
	}
}

func TestMetricsRecorded(t *testing.T) {
	sup := NewSupervisor()
	sup.Metrics = true
	report, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil,
		companyV1DB(t), applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	if report.Metrics == nil {
		t.Fatal("timed run reported no metrics")
	}
	an := report.Metrics.Stage(obs.StageAnalyze)
	if an.Count != int64(len(report.Outcomes)) {
		t.Errorf("analyze spans = %d, want %d", an.Count, len(report.Outcomes))
	}
	if report.Metrics.Stage(obs.StageVerify).Count == 0 {
		t.Error("verified run recorded no verify spans")
	}
	// The generate stage produced real program text for converted outcomes.
	for _, o := range report.Outcomes {
		if o.Converted != nil && o.Generated == "" {
			t.Errorf("%s: converted but no generated text", o.Name)
		}
	}
}

// TestAuditTrail: every outcome carries the reason it landed at its
// disposition, with hazards, analyst decisions and the implicated plan
// step preserved.
func TestAuditTrail(t *testing.T) {
	sup := NewSupervisor()
	report, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil,
		companyV1DB(t), applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Outcome{}
	for _, o := range report.Outcomes {
		if o.Audit.Reason == "" {
			t.Errorf("%s: empty audit reason", o.Name)
		}
		byName[o.Name] = o
	}
	if a := byName["LIST-OLD"].Audit; a.Reason != "every statement matched a rewrite rule" ||
		len(a.Hazards) != 0 || len(a.Decisions) != 0 {
		t.Errorf("LIST-OLD audit = %+v", a)
	}
	// PRINT-ALL's order dependence: the strict analyst declined, the
	// hazard and the responsible plan step are on record.
	pa := byName["PRINT-ALL"].Audit
	if pa.Reason != "analyst declined the order-dependence finding" {
		t.Errorf("PRINT-ALL reason = %q", pa.Reason)
	}
	if len(pa.Hazards) == 0 || pa.Hazards[0] != "order-dependence" {
		t.Errorf("PRINT-ALL hazards = %v", pa.Hazards)
	}
	if pa.PlanStep != "introduce-intermediate" {
		t.Errorf("PRINT-ALL plan step = %q", pa.PlanStep)
	}
	if len(pa.Decisions) != 1 || pa.Decisions[0].Accepted ||
		pa.Decisions[0].Issue.Kind != analyzer.OrderDependence {
		t.Errorf("PRINT-ALL decisions = %+v", pa.Decisions)
	}
	// INPUT-DRIVEN is blocked before conversion (run-time variability).
	if r := byName["INPUT-DRIVEN"].Audit.Reason; r != "a blocking hazard stopped conversion" {
		t.Errorf("INPUT-DRIVEN reason = %q", r)
	}

	// With an accepting analyst, the qualified path records its reason.
	sup = &Supervisor{Analyst: Policy{AcceptOrderChanges: true}}
	report, err = sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil,
		nil, applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range report.Outcomes {
		if o.Name != "PRINT-ALL" {
			continue
		}
		if o.Disposition != Qualified || o.Audit.Reason != "analyst accepted a weaker equivalence" {
			t.Errorf("accepted PRINT-ALL audit = %v %+v", o.Disposition, o.Audit)
		}
		if len(o.Audit.Decisions) != 1 || !o.Audit.Decisions[0].Accepted {
			t.Errorf("accepted PRINT-ALL decisions = %+v", o.Audit.Decisions)
		}
	}
}

// TestEventLogEmitted: a supervisor with an event sink emits the full
// per-program trail — stage brackets, hazards, rewrites, decisions,
// verification verdicts and one closing outcome per program.
func TestEventLogEmitted(t *testing.T) {
	ring := obs.NewRingSink(4096)
	sup := NewSupervisor()
	sup.Events = ring
	report, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil,
		companyV1DB(t), applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[obs.EventKind]int{}
	outcomes := map[string]string{}
	for _, ev := range ring.Events() {
		byKind[ev.Kind]++
		if ev.Kind == obs.EvOutcome {
			outcomes[ev.Prog] = ev.Label
		}
	}
	if byKind[obs.EvOutcome] != len(report.Outcomes) {
		t.Errorf("outcome events = %d, want %d", byKind[obs.EvOutcome], len(report.Outcomes))
	}
	for _, o := range report.Outcomes {
		if outcomes[o.Name] != o.Disposition.String() {
			t.Errorf("%s outcome event label = %q, want %q",
				o.Name, outcomes[o.Name], o.Disposition)
		}
	}
	if byKind[obs.EvStageStart] == 0 || byKind[obs.EvStageStart] != byKind[obs.EvStageEnd] {
		t.Errorf("stage events unbalanced: %d starts, %d ends",
			byKind[obs.EvStageStart], byKind[obs.EvStageEnd])
	}
	for _, kind := range []obs.EventKind{obs.EvHazard, obs.EvRewrite, obs.EvDecision, obs.EvVerify} {
		if byKind[kind] == 0 {
			t.Errorf("no %v events from the mixed inventory", kind)
		}
	}
	// The report itself is unchanged by observation (byte-compat pin).
	bare, err := NewSupervisor().Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(),
		nil, companyV1DB(t), applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	if report.String() != bare.String() {
		t.Error("observed and unobserved reports differ")
	}
}

func TestPolicyDecide(t *testing.T) {
	p := Policy{AcceptOrderChanges: true}
	if !p.Decide("X", analyzer.Issue{Kind: analyzer.OrderDependence}) {
		t.Error("order change should be accepted")
	}
	if p.Decide("X", analyzer.Issue{Kind: analyzer.RunTimeVariability}) {
		t.Error("run-time variability never accepted")
	}
}

func planFigure() *xform.Plan {
	return &xform.Plan{Steps: []xform.Transformation{
		xform.IntroduceIntermediate{
			Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
			Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		},
	}}
}
