package convert

import (
	"context"
	"strings"
	"testing"

	"progconv/internal/analyzer"
	"progconv/internal/dbprog"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/xform"
)

func figurePlan() *xform.Plan {
	return &xform.Plan{Steps: []xform.Transformation{
		xform.IntroduceIntermediate{
			Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
			Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		},
	}}
}

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

// convertAndCompare runs the source program against the V1 database and
// the converted program against the migrated V2 database, asserting
// identical non-database I/O — the paper's §1.1 equivalence test.
func convertAndCompare(t *testing.T, src string) *Result {
	t.Helper()
	p, err := dbprog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan := figurePlan()
	res, err := Convert(context.Background(), p, schema.CompanyV1(), plan)
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if !res.Auto {
		t.Fatalf("not auto-converted: %v", res.Issues)
	}
	v1 := companyV1DB(t)
	v2, _, err := plan.Migrate(context.Background(), v1, xform.MigrateOptions{})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	tr1, err1 := dbprog.Run(p, dbprog.Config{Net: v1})
	tr2, err2 := dbprog.Run(res.Program, dbprog.Config{Net: v2})
	if err1 != nil || err2 != nil {
		t.Fatalf("run: %v / %v\nconverted:\n%s", err1, err2, dbprog.Format(res.Program))
	}
	if !tr1.Equal(tr2) {
		t.Fatalf("traces differ.\nsource trace:\n%s\nconverted trace:\n%s\nconverted program:\n%s",
			tr1, tr2, dbprog.Format(res.Program))
	}
	return res
}

// TestPaperFindExample1 is §4.2 example 1 converted per the paper: the
// FIND gains the DIV-DEPT/DEPT/DEPT-EMP chain and a SORT ON (EMP-NAME).
func TestPaperFindExample1(t *testing.T) {
	res := convertAndCompare(t, `
PROGRAM EX1 DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO OLD.
  FOR EACH E IN OLD
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
END PROGRAM.
`)
	text := dbprog.Format(res.Program)
	for _, want := range []string{
		"SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-DEPT, DEPT, DEPT-EMP, EMP(AGE > 30))) ON (EMP-NAME)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("converted text missing %q:\n%s", want, text)
		}
	}
}

// TestPaperFindExample2 is §4.2 example 2: the DEPT-NAME equality moves
// to the new DEPT step and no SORT is needed.
func TestPaperFindExample2(t *testing.T) {
	res := convertAndCompare(t, `
PROGRAM EX2 DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES')) INTO SALES.
  FOR EACH E IN SALES
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	text := dbprog.Format(res.Program)
	want := "FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-DEPT, DEPT(DEPT-NAME = 'SALES'), DEPT-EMP, EMP)"
	if !strings.Contains(text, want) {
		t.Errorf("converted text missing %q:\n%s", want, text)
	}
	if strings.Contains(text, "SORT") {
		t.Errorf("pinned group needs no SORT:\n%s", text)
	}
}

func TestMarylandExplicitSortDominates(t *testing.T) {
	res := convertAndCompare(t, `
PROGRAM EXS DIALECT MARYLAND.
  SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))) ON (AGE) INTO BYAGE.
  FOR EACH E IN BYAGE
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	text := dbprog.Format(res.Program)
	if !strings.Contains(text, "ON (AGE)") || strings.Contains(text, "ON (EMP-NAME)") {
		t.Errorf("explicit SORT should dominate:\n%s", text)
	}
}

func TestMarylandMixedQualSplits(t *testing.T) {
	// DEPT-NAME equality moves; the AGE conjunct stays on EMP.
	res := convertAndCompare(t, `
PROGRAM EXM DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DEPT-NAME = 'SALES' AND AGE > 30)) INTO C.
  FOR EACH E IN C
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	text := dbprog.Format(res.Program)
	if !strings.Contains(text, "DEPT(DEPT-NAME = 'SALES')") || !strings.Contains(text, "EMP(AGE > 30)") {
		t.Errorf("conjunct split wrong:\n%s", text)
	}
}

func TestMarylandNonEqualityGroupQualSorts(t *testing.T) {
	// DEPT-NAME <> 'SALES' cannot pin a group: stays on EMP (virtual) and
	// forces a SORT.
	res := convertAndCompare(t, `
PROGRAM EXN DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DEPT-NAME <> 'SALES')) INTO C.
  FOR EACH E IN C
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	text := dbprog.Format(res.Program)
	if !strings.Contains(text, "SORT") || !strings.Contains(text, "EMP(DEPT-NAME <> 'SALES')") {
		t.Errorf("non-equality group qual:\n%s", text)
	}
}

// TestNetworkSweepPinnedGroup: a network sweep USING the lifted field
// converts to nested loops with the outer loop pinned, preserving order.
func TestNetworkSweepPinnedGroup(t *testing.T) {
	res := convertAndCompare(t, `
PROGRAM NSW DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP USING DEPT-NAME.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP, AGE IN EMP.
    END-IF.
  END-PERFORM.
  PRINT 'DONE'.
END PROGRAM.
`)
	text := dbprog.Format(res.Program)
	for _, want := range []string{
		"MOVE 'SALES' TO DEPT-NAME IN DEPT",
		"FIND NEXT DEPT WITHIN DIV-DEPT USING DEPT-NAME",
		"FIND NEXT EMP WITHIN DEPT-EMP",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("converted text missing %q:\n%s", want, text)
		}
	}
}

// TestNetworkSilentSweepConverts: an unpinned sweep with an accumulating
// (unobservable) body converts despite the order change.
func TestNetworkSilentSweepConverts(t *testing.T) {
	convertAndCompare(t, `
PROGRAM NSUM DIALECT NETWORK.
  LET TOTAL = 0.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      LET TOTAL = TOTAL + AGE IN EMP.
    END-IF.
  END-PERFORM.
  PRINT TOTAL.
END PROGRAM.
`)
}

// TestNetworkObservableUnpinnedSweepFlagged: printing per record with the
// order changed by the split cannot be auto-converted in the network DML.
func TestNetworkObservableUnpinnedSweepFlagged(t *testing.T) {
	p, _ := dbprog.Parse(`
PROGRAM NOBS DIALECT NETWORK.
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
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	if res.Auto {
		t.Fatal("observable unpinned sweep should not auto-convert")
	}
	if !hasIssue(res, analyzer.OrderDependence) {
		t.Errorf("issues = %v", res.Issues)
	}
}

func hasIssue(r *Result, k analyzer.IssueKind) bool {
	for _, i := range r.Issues {
		if i.Kind == k {
			return true
		}
	}
	return false
}

func TestRenamePlanNetworkProgram(t *testing.T) {
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameRecord{Old: "EMP", New: "WORKER"},
		xform.RenameField{Record: "WORKER", Old: "AGE", New: "YEARS"},
		xform.RenameSet{Old: "DIV-EMP", New: "DIV-WORKER"},
	}}
	p, _ := dbprog.Parse(`
PROGRAM RN DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP, AGE IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), plan)
	if err != nil || !res.Auto {
		t.Fatalf("%v %v", res, err)
	}
	v1 := companyV1DB(t)
	v2, _, err := plan.Migrate(context.Background(), v1, xform.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr1, _ := dbprog.Run(p, dbprog.Config{Net: v1})
	tr2, err2 := dbprog.Run(res.Program, dbprog.Config{Net: v2})
	if err2 != nil {
		t.Fatalf("converted run: %v\n%s", err2, dbprog.Format(res.Program))
	}
	if !tr1.Equal(tr2) {
		t.Errorf("traces differ:\n%s\nvs\n%s\n%s", tr1, tr2, dbprog.Format(res.Program))
	}
	text := dbprog.Format(res.Program)
	for _, want := range []string{"WORKER", "DIV-WORKER", "YEARS IN WORKER"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q:\n%s", want, text)
		}
	}
}

func TestDroppedFieldBlocksConversion(t *testing.T) {
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.DropField{Record: "EMP", Field: "AGE"},
	}}
	p, _ := dbprog.Parse(`
PROGRAM DF DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO C.
  FOR EACH E IN C
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Auto {
		t.Error("program referencing a dropped field must not auto-convert")
	}
	// A program not touching the field converts fine.
	p2, _ := dbprog.Parse(`
PROGRAM DF2 DIALECT MARYLAND.
  FIND(DIV: SYSTEM, ALL-DIV, DIV) INTO C.
  FOR EACH D IN C
    PRINT DIV-NAME IN D.
  END-FOR.
END PROGRAM.
`)
	res2, err := Convert(context.Background(), p2, schema.CompanyV1(), plan)
	if err != nil || !res2.Auto {
		t.Errorf("unaffected program should convert: %v %v", res2.Issues, err)
	}
}

func TestRunTimeVariabilityBlocks(t *testing.T) {
	p, _ := dbprog.Parse(`
PROGRAM RTV DIALECT NETWORK.
  ACCEPT MODE.
  IF MODE = 'W'
    STORE DIV.
  END-IF.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	if res.Auto || res.Program != nil {
		t.Errorf("blocking hazard should stop conversion: %+v", res)
	}
}

func TestViewUpdateFlags(t *testing.T) {
	cases := []string{
		// STORE of the split member.
		`PROGRAM S1 DIALECT MARYLAND.
  STORE EMP (EMP-NAME = 'X', DEPT-NAME = 'Y', AGE = 1)
    VIA DIV-EMP = FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY')).
END PROGRAM.`,
		// MODIFY of the lifted field.
		`PROGRAM S2 DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP) INTO C.
  MODIFY C SET (DEPT-NAME = 'Z').
END PROGRAM.`,
	}
	for _, src := range cases {
		p, err := dbprog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Convert(context.Background(), p, schema.CompanyV1(), figurePlan())
		if err != nil {
			t.Fatal(err)
		}
		if res.Auto {
			t.Errorf("view-update case should be flagged:\n%s", src)
		}
	}
}

func TestNetworkRawDMLFlagsOnSplit(t *testing.T) {
	cases := []struct {
		src  string
		auto bool
	}{
		{`PROGRAM R1 DIALECT NETWORK. FIND ANY DIV. FIND FIRST EMP WITHIN DIV-EMP. GET EMP. PRINT EMP-NAME IN EMP. END PROGRAM.`, false},
		{`PROGRAM R2 DIALECT NETWORK. FIND ANY EMP. CONNECT EMP TO DIV-EMP. END PROGRAM.`, false},
		{`PROGRAM R3 DIALECT NETWORK. FIND ANY EMP. DISCONNECT EMP FROM DIV-EMP. END PROGRAM.`, false},
		{`PROGRAM R4 DIALECT NETWORK. MOVE 'X' TO EMP-NAME IN EMP. FIND ANY EMP USING EMP-NAME. ERASE EMP. END PROGRAM.`, true},
		{`PROGRAM R5 DIALECT NETWORK. FIND ANY EMP. MODIFY EMP USING AGE. END PROGRAM.`, true},
		{`PROGRAM R6 DIALECT NETWORK. FIND ANY EMP. MODIFY EMP. END PROGRAM.`, false},
		{`PROGRAM R7 DIALECT NETWORK. FIND ANY EMP. STORE EMP. END PROGRAM.`, false},
	}
	for _, tc := range cases {
		p, err := dbprog.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Convert(context.Background(), p, schema.CompanyV1(), figurePlan())
		if err != nil {
			t.Fatal(err)
		}
		if res.Auto != tc.auto {
			t.Errorf("auto = %v, want %v for:\n%s\nissues: %v", res.Auto, tc.auto, tc.src, res.Issues)
		}
	}
}

// TestFindOwnerAcrossSplit: the one raw structural rewrite — FIND OWNER
// becomes a two-step climb — runs equivalently.
func TestFindOwnerAcrossSplit(t *testing.T) {
	convertAndCompare(t, `
PROGRAM FO DIALECT NETWORK.
  MOVE 'DAVIS' TO EMP-NAME IN EMP.
  FIND ANY EMP USING EMP-NAME.
  FIND OWNER WITHIN DIV-EMP.
  GET DIV.
  PRINT DIV-NAME IN DIV, DIV-LOC IN DIV.
END PROGRAM.
`)
}

// TestOrderChangeOnObservableLoop: ChangeSetKeys plus a printing loop is
// the §3.2 order-dependence hazard made concrete.
func TestOrderChangeOnObservableLoop(t *testing.T) {
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.ChangeSetKeys{Set: "DIV-EMP", Keys: []string{"AGE"}},
	}}
	p, _ := dbprog.Parse(`
PROGRAM OC DIALECT NETWORK.
  FIND ANY DIV.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Auto || !hasIssue(res, analyzer.OrderDependence) {
		t.Errorf("order change over printing loop: %+v", res.Issues)
	}
	// The same plan with a silent loop converts.
	p2, _ := dbprog.Parse(`
PROGRAM OC2 DIALECT NETWORK.
  LET N = 0.
  FIND ANY DIV.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      LET N = N + 1.
    END-IF.
  END-PERFORM.
  PRINT N.
END PROGRAM.
`)
	res2, err := Convert(context.Background(), p2, schema.CompanyV1(), plan)
	if err != nil || !res2.Auto {
		t.Errorf("silent loop should convert: %v %v", res2.Issues, err)
	}
}

func TestSequelProgramsPassThrough(t *testing.T) {
	p, _ := dbprog.Parse(`
PROGRAM SQ DIALECT SEQUEL.
  FOR EACH R IN (SELECT CNO FROM COURSE)
    PRINT CNO IN R.
  END-FOR.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), figurePlan())
	if err != nil || !res.Auto || res.Program != p {
		t.Errorf("SEQUEL pass-through: %+v %v", res, err)
	}
}

func TestRetentionNoteSurfaces(t *testing.T) {
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.ChangeRetention{Set: "DIV-EMP", Retention: schema.Optional},
	}}
	p, _ := dbprog.Parse(`PROGRAM N DIALECT NETWORK. PRINT 'HI'. END PROGRAM.`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), plan)
	if err != nil || !res.Auto {
		t.Fatal(err)
	}
	if len(res.Notes) != 1 || !strings.Contains(res.Notes[0], "retention") {
		t.Errorf("notes = %v", res.Notes)
	}
}

func TestConvertErrorPropagation(t *testing.T) {
	bad := &xform.Plan{Steps: []xform.Transformation{xform.RenameRecord{Old: "NOPE", New: "X"}}}
	p, _ := dbprog.Parse(`PROGRAM X DIALECT NETWORK. PRINT 'HI'. END PROGRAM.`)
	if _, err := Convert(context.Background(), p, schema.CompanyV1(), bad); err == nil {
		t.Error("bad plan should error")
	}
}
