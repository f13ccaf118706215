package dbprog

import (
	"testing"

	"progconv/internal/mdml"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// formatSources exercises every statement and expression form once.
var formatSources = []string{
	`
PROGRAM NET-ALL DIALECT NETWORK.
  LET X = 1 + 2 * (3 - 4) / 5.
  LET Y = NOT (X = 1) AND ('A' + 'B') = 'AB' OR 1 < 2.
  LET Z = - (X + 1).
  PRINT X, Y, RECORD DIV, DB-STATUS.
  ACCEPT W.
  READ 'F1' INTO L.
  WRITE 'F2' L, X.
  IF X > 0
    PRINT 'POS'.
  ELSE
    PRINT 'NEG'.
  END-IF.
  PERFORM UNTIL X >= 3
    LET X = X + 1.
  END-PERFORM.
  MOVE 'M' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  FIND DUPLICATE DIV.
  FIND NEXT EMP WITHIN DIV-EMP USING DEPT-NAME.
  FIND OWNER WITHIN DIV-EMP.
  GET EMP.
  STORE EMP.
  MODIFY EMP USING AGE.
  ERASE EMP.
  CONNECT EMP TO DIV-EMP.
  DISCONNECT EMP FROM DIV-EMP.
  STOP.
END PROGRAM.
`,
	`
PROGRAM MD-ALL DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'M'), DIV-EMP, EMP(AGE > 30 AND DEPT-NAME <> 'X')) INTO C1.
  SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)) ON (EMP-NAME, AGE) INTO C2.
  FOR EACH E IN C1
    PRINT EMP-NAME IN E.
  END-FOR.
  DELETE C2.
  MODIFY C1 SET (AGE = 1, DEPT-NAME = 'Y').
  STORE EMP (EMP-NAME = 'Z', AGE = 2)
    VIA DIV-EMP = FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'M')).
END PROGRAM.
`,
	`
PROGRAM SQ-ALL DIALECT SEQUEL.
  FOR EACH R IN (SELECT ENAME, AGE FROM EMP WHERE AGE > :MIN AND E# IN (SELECT E# FROM EMP-DEPT WHERE D# = 'D2'))
    PRINT ENAME IN R.
  END-FOR.
  INSERT INTO EMP (E#, ENAME) VALUES ('E9', 'NEW').
  DELETE FROM EMP WHERE E# = 'E9'.
  UPDATE EMP SET AGE = 1 WHERE ENAME = 'NEW'.
END PROGRAM.
`,
	`
PROGRAM DLI-ALL DIALECT DLI.
  ISRT DEPT (D# = 'D1', DNAME = 'A', MGR = 'M').
  ISRT EMP (E# = 'E1', ENAME = 'X', AGE = 1, YEAR-OF-SERVICE = 1) UNDER DEPT(D# = 'D1').
  GU DEPT(D# = 'D1'), EMP.
  GN EMP(AGE >= 1).
  GNP EMP.
  REPL (AGE = 2).
  DLET.
END PROGRAM.
`,
}

// TestFormatRoundTrip: Format(Parse(src)) re-parses and re-formats to the
// identical text — the generator's core guarantee.
func TestFormatRoundTrip(t *testing.T) {
	for _, src := range formatSources {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		text1 := Format(p1)
		p2, err := Parse(text1)
		if err != nil {
			t.Fatalf("formatted program does not reparse: %v\n%s", err, text1)
		}
		text2 := Format(p2)
		if text1 != text2 {
			t.Errorf("format not stable:\n%s\nvs\n%s", text1, text2)
		}
	}
}

// TestFormatPreservesBehaviour: a formatted program traces identically to
// the original (on the dialects with simple fixtures).
func TestFormatPreservesBehaviour(t *testing.T) {
	src := `
PROGRAM P DIALECT NETWORK.
  LET I = 0.
  PERFORM UNTIL I = 3
    LET I = I + 1.
    IF I = 2
      PRINT 'TWO'.
    ELSE
      PRINT I * 10.
    END-IF.
  END-PERFORM.
END PROGRAM.
`
	p1 := mustParse(t, src)
	p2 := mustParse(t, Format(p1))
	tr1, err1 := Run(p1, Config{Net: netstore.NewDB(schema.CompanyV1())})
	tr2, err2 := Run(p2, Config{Net: netstore.NewDB(schema.CompanyV1())})
	if err1 != nil || err2 != nil {
		t.Fatalf("%v %v", err1, err2)
	}
	if !tr1.Equal(tr2) {
		t.Errorf("traces differ:\n%s\nvs\n%s", tr1, tr2)
	}
}

func TestFormatExprForms(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Lit{V: value.Str("a'b")}, "'a''b'"},
		{Field{Record: "EMP", Field: "AGE"}, "AGE IN EMP"},
		{StatusRef{}, "DB-STATUS"},
		{RecordRef{Record: "EMP"}, "RECORD EMP"},
		{Un{Op: "NOT", E: Var{Name: "X"}}, "NOT X"},
		{Un{Op: "-", E: Bin{Op: "+", L: Var{Name: "X"}, R: Var{Name: "Y"}}}, "- (X + Y)"},
	}
	for _, tc := range cases {
		if got := FormatExpr(tc.e); got != tc.want {
			t.Errorf("FormatExpr = %q, want %q", got, tc.want)
		}
	}
}

// bogusStmt is a statement the Program Generator does not know.
type bogusStmt struct{}

func (bogusStmt) stmt() {}

// TestFormatMatchesOracleOnBuiltASTs: the writer matches the oracle on
// every statement form and on trees the parser never builds but the
// converter and optimizer can — classified path steps, collection
// steps, more owners than the writer sorts on the stack, nil FINDs and
// expressions, and statements it cannot render.
func TestFormatMatchesOracleOnBuiltASTs(t *testing.T) {
	for _, src := range formatSources {
		p := mustParse(t, src)
		if got, want := Format(p), OracleFormat(p); got != want {
			t.Errorf("%s: got\n%s\nwant\n%s", p.Name, got, want)
		}
	}
	qual := mdml.And{
		L: mdml.Or{L: mdml.Cmp{Field: "AGE", Op: ">", Lit: value.F(-2.5)}, R: mdml.Not{Q: mdml.Cmp{Field: "OK", Op: "=", Lit: value.B(true)}}},
		R: mdml.Cmp{Field: "DEPT-NAME", Op: "<>", Param: "D"},
	}
	find := &mdml.Find{Target: "EMP", Steps: []mdml.Step{
		{Kind: mdml.CollectionStep, Name: "C1"},
		{Kind: mdml.SetStep, Name: "DIV-EMP", Qual: qual},
		{Kind: mdml.RecordStep, Name: "EMP"},
		{Kind: mdml.RecordStep, Name: "EMP", Qual: qual},
		{Kind: mdml.StepKind(9), Name: "ODD", Qual: mdml.Cmp{Field: "X", Op: "=", Lit: value.NullValue()}},
	}}
	owners := map[string]*mdml.Find{"S5": find, "S1": nil, "S3": find, "S2": find, "S4": {Target: "DIV", Steps: []mdml.Step{{Kind: mdml.SystemStep}}}}
	p := &Program{Name: "BUILT", Dialect: Dialect(7), Stmts: []Stmt{
		MFind{Coll: "C2", Find: find},
		MFind{Coll: "C3", Sort: &mdml.Sort{Inner: find, On: []string{"AGE"}}},
		MFind{Coll: "C4"},
		MStore{Record: "EMP", Owners: owners},
		MStore{Record: "EMP", Assigns: []FieldAssign{{Field: "AGE", E: Lit{V: value.Of(-3)}}}},
		Print{},
		Let{Var: "X", E: Bin{Op: "+", L: nil, R: Un{Op: "-", E: Lit{V: value.Str("it''s")}}}},
		DLIGet{Func: "GN"},
		DLIInsert{Record: "EMP", Under: []SSASpec{{Segment: "DEPT"}, {Segment: "EMP", Field: "E#", Op: "=", E: Var{Name: "K"}}}},
		ForEach{Var: "E", Coll: "C2", Body: []Stmt{nil, bogusStmt{}, If{Cond: Var{Name: "B"}}}},
	}}
	if got, want := Format(p), OracleFormat(p); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}
