package convert

import (
	"context"
	"strings"
	"testing"

	"progconv/internal/dbprog"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

func renamePlan() *xform.Plan {
	return &xform.Plan{Steps: []xform.Transformation{
		xform.RenameRecord{Old: "EMP", New: "WORKER"},
		xform.RenameField{Record: "WORKER", Old: "AGE", New: "YEARS"},
		xform.RenameSet{Old: "DIV-EMP", New: "DIV-WORKER"},
	}}
}

// TestMStoreUnderRenames: a Maryland STORE whose set is only renamed
// converts fully, with assignments, owner paths and set names mapped.
func TestMStoreUnderRenames(t *testing.T) {
	p, _ := dbprog.Parse(`
PROGRAM ST DIALECT MARYLAND.
  STORE EMP (EMP-NAME = 'NEW', DEPT-NAME = 'SALES', AGE = 31)
    VIA DIV-EMP = FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY')).
  PRINT 'STORED'.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), renamePlan())
	if err != nil || !res.Auto {
		t.Fatalf("%+v %v", res, err)
	}
	text := dbprog.Format(res.Program)
	for _, want := range []string{"STORE WORKER", "YEARS = 31", "VIA DIV-WORKER ="} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q:\n%s", want, text)
		}
	}
	// And it runs equivalently.
	v1 := companyV1DB(t)
	v2, _, err := renamePlan().Migrate(context.Background(), v1, xform.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr1, err1 := dbprog.Run(p, dbprog.Config{Net: v1})
	tr2, err2 := dbprog.Run(res.Program, dbprog.Config{Net: v2})
	if err1 != nil || err2 != nil || !tr1.Equal(tr2) {
		t.Errorf("traces: %v %v\n%s\n%s", err1, err2, tr1, tr2)
	}
	if v2.Count("WORKER") != 5 {
		t.Errorf("store did not land: %d workers", v2.Count("WORKER"))
	}
}

// TestMModifyUnderRenames: collection modification under a rename plan.
func TestMModifyUnderRenames(t *testing.T) {
	p, _ := dbprog.Parse(`
PROGRAM MM DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 40)) INTO C.
  MODIFY C SET (AGE = 39).
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 40)) INTO D.
  FOR EACH E IN D
    PRINT EMP-NAME IN E.
  END-FOR.
  PRINT 'DONE'.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), renamePlan())
	if err != nil || !res.Auto {
		t.Fatalf("%+v %v", res, err)
	}
	text := dbprog.Format(res.Program)
	if !strings.Contains(text, "MODIFY C SET (YEARS = 39)") ||
		!strings.Contains(text, "WORKER(YEARS > 40)") {
		t.Errorf("renamed modify:\n%s", text)
	}
	v1 := companyV1DB(t)
	v2, _, _ := renamePlan().Migrate(context.Background(), v1, xform.MigrateOptions{})
	tr1, err1 := dbprog.Run(p, dbprog.Config{Net: v1})
	tr2, err2 := dbprog.Run(res.Program, dbprog.Config{Net: v2})
	if err1 != nil || err2 != nil || !tr1.Equal(tr2) {
		t.Errorf("traces: %v %v\n%svs\n%s", err1, err2, tr1, tr2)
	}
}

// TestQualConnectivesRewritten: OR/NOT qualifications survive renames.
func TestQualConnectivesRewritten(t *testing.T) {
	p, _ := dbprog.Parse(`
PROGRAM Q DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 40 OR NOT AGE > 25)) INTO C.
  FOR EACH E IN C
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), renamePlan())
	if err != nil || !res.Auto {
		t.Fatalf("%+v %v", res, err)
	}
	text := dbprog.Format(res.Program)
	if !strings.Contains(text, "(YEARS > 40 OR (NOT YEARS > 25))") {
		t.Errorf("connectives:\n%s", text)
	}
}

// TestHostExpressionRewrites: WRITE, arithmetic, unary, RECORD refs, and
// loop-variable buffers all map fields correctly.
func TestHostExpressionRewrites(t *testing.T) {
	p, _ := dbprog.Parse(`
PROGRAM HX DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP) INTO C.
  FOR EACH E IN C
    LET X = - (AGE IN E) + 1.
    WRITE 'OUT' AGE IN E, X.
    IF NOT (AGE IN E > 100)
      PRINT RECORD E.
    END-IF.
  END-FOR.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), renamePlan())
	if err != nil || !res.Auto {
		t.Fatalf("%+v %v", res, err)
	}
	text := dbprog.Format(res.Program)
	for _, want := range []string{"YEARS IN E", "WRITE 'OUT' YEARS IN E, X", "RECORD E"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q:\n%s", want, text)
		}
	}
}

// TestDroppedFieldInAllPositions: the drop-field plan blocks every
// reference position — qual, SORT keys, modify, store assigns, exprs.
func TestDroppedFieldInAllPositions(t *testing.T) {
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.DropField{Record: "EMP", Field: "AGE"},
	}}
	sources := []string{
		`PROGRAM D1 DIALECT MARYLAND.
  SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)) ON (AGE) INTO C.
END PROGRAM.`,
		`PROGRAM D2 DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP) INTO C.
  MODIFY C SET (AGE = 1).
END PROGRAM.`,
		`PROGRAM D3 DIALECT MARYLAND.
  STORE EMP (EMP-NAME = 'X', AGE = 1)
    VIA DIV-EMP = FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'M')).
END PROGRAM.`,
		`PROGRAM D4 DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP) INTO C.
  FOR EACH E IN C
    PRINT AGE IN E.
  END-FOR.
END PROGRAM.`,
		`PROGRAM D5 DIALECT NETWORK.
  MOVE 30 TO AGE IN EMP.
  FIND ANY EMP USING AGE.
END PROGRAM.`,
	}
	for _, src := range sources {
		p, err := dbprog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Convert(context.Background(), p, schema.CompanyV1(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.Auto {
			t.Errorf("dropped-field reference should block:\n%s", src)
		}
	}
}

// TestNetworkFindDupAndSystemSweepRenames: remaining raw statements map
// names through rename plans.
func TestNetworkFindDupAndSystemSweepRenames(t *testing.T) {
	p, _ := dbprog.Parse(`
PROGRAM FD DIALECT NETWORK.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  FIND ANY EMP USING DEPT-NAME.
  FIND DUPLICATE EMP USING DEPT-NAME.
  GET EMP.
  PRINT EMP-NAME IN EMP.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT DIV WITHIN ALL-DIV.
    IF DB-STATUS = 'OK'
      GET DIV.
      PRINT DIV-NAME IN DIV.
    END-IF.
  END-PERFORM.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, schema.CompanyV1(), renamePlan())
	if err != nil || !res.Auto {
		t.Fatalf("%+v %v", res, err)
	}
	text := dbprog.Format(res.Program)
	for _, want := range []string{"FIND DUPLICATE WORKER USING DEPT-NAME", "FIND ANY WORKER"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q:\n%s", want, text)
		}
	}
	v1 := companyV1DB(t)
	v2, _, _ := renamePlan().Migrate(context.Background(), v1, xform.MigrateOptions{})
	tr1, e1 := dbprog.Run(p, dbprog.Config{Net: v1})
	tr2, e2 := dbprog.Run(res.Program, dbprog.Config{Net: v2})
	if e1 != nil || e2 != nil || !tr1.Equal(tr2) {
		t.Errorf("traces differ: %v %v\n%svs\n%s", e1, e2, tr1, tr2)
	}
}

// TestOrderChangedSilentLoopGetsNote: ChangeSetKeys over an unobservable
// loop converts with the behaviour note carried through.
func TestEraseAndDisconnectUnderRenames(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Insertion = schema.Manual
	sch.Set("DIV-EMP").Retention = schema.Optional
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameSet{Old: "DIV-EMP", New: "DIV-STAFF"},
	}}
	p, _ := dbprog.Parse(`
PROGRAM ED DIALECT NETWORK.
  MOVE 'ADAMS' TO EMP-NAME IN EMP.
  FIND ANY EMP USING EMP-NAME.
  DISCONNECT EMP FROM DIV-EMP.
  PRINT DB-STATUS.
  CONNECT EMP TO DIV-EMP.
  PRINT DB-STATUS.
  ERASE EMP.
  PRINT DB-STATUS.
END PROGRAM.
`)
	res, err := Convert(context.Background(), p, sch, plan)
	if err != nil || !res.Auto {
		t.Fatalf("%+v %v", res, err)
	}
	text := dbprog.Format(res.Program)
	for _, want := range []string{"DISCONNECT EMP FROM DIV-STAFF", "CONNECT EMP TO DIV-STAFF", "ERASE EMP"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q:\n%s", want, text)
		}
	}
}
