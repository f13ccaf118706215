package dbprog

import (
	"errors"
	"strings"
	"testing"

	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/relstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func terminalLines(tr *Trace) []string {
	var out []string
	for _, e := range tr.Events {
		if e.Kind == Terminal {
			out = append(out, e.Text)
		}
	}
	return out
}

// companyNet loads the Figure 4.2 population.
func companyNet(t *testing.T) *netstore.DB {
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

func TestHostLanguageBasics(t *testing.T) {
	p := mustParse(t, `
PROGRAM HOST-BASICS DIALECT NETWORK.
  LET X = 2 + 3 * 4.
  LET Y = (2 + 3) * 4.
  LET NAME = 'AL' + 'ICE'.
  LET NEG = - X.
  PRINT X, Y, NAME, NEG.
  IF X < Y PRINT 'LESS'. ELSE PRINT 'NOT LESS'. END-IF.
  LET I = 0.
  PERFORM UNTIL I >= 3
    LET I = I + 1.
    PRINT 'ITER', I.
  END-PERFORM.
  PRINT 1.5 + 1, 7 / 2, 8.0 / 2.
END PROGRAM.
`)
	tr, err := Run(p, Config{Net: netstore.NewDB(schema.CompanyV1())})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"14 20 ALICE -14",
		"LESS",
		"ITER 1", "ITER 2", "ITER 3",
		"2.5 3 4",
	}
	got := terminalLines(tr)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("terminal:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestStopAndBooleans(t *testing.T) {
	p := mustParse(t, `
PROGRAM STOPS DIALECT NETWORK.
  IF 1 = 1 AND NOT 2 = 3 PRINT 'YES'. END-IF.
  IF 1 = 2 OR 3 = 3 PRINT 'ALSO'. END-IF.
  STOP.
  PRINT 'NEVER'.
END PROGRAM.
`)
	tr, err := Run(p, Config{Net: netstore.NewDB(schema.CompanyV1())})
	if err != nil {
		t.Fatal(err)
	}
	got := terminalLines(tr)
	if len(got) != 2 || got[0] != "YES" || got[1] != "ALSO" {
		t.Errorf("terminal = %v", got)
	}
}

func TestAcceptAndFiles(t *testing.T) {
	p := mustParse(t, `
PROGRAM FILES DIALECT NETWORK.
  ACCEPT WHO.
  PRINT 'HELLO', WHO.
  READ 'IN-FILE' INTO L1.
  READ 'IN-FILE' INTO L2.
  READ 'IN-FILE' INTO L3.
  WRITE 'OUT-FILE' L1, '/', L2.
  IF L3 = 'X' PRINT 'IMPOSSIBLE'. END-IF.
END PROGRAM.
`)
	_, err := Run(p, Config{
		Net:           netstore.NewDB(schema.CompanyV1()),
		TerminalInput: []string{"WORLD"},
		Files:         map[string][]string{"IN-FILE": {"A", "B"}},
	})
	// L3 is null after EOF; comparing null with a string is an error per
	// the host semantics? No: Compare treats null as ordered-below, so
	// L3 = 'X' is false, not an error.
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, _ := Run(p, Config{
		Net:           netstore.NewDB(schema.CompanyV1()),
		TerminalInput: []string{"WORLD"},
		Files:         map[string][]string{"IN-FILE": {"A", "B"}},
	})
	var kinds []string
	for _, e := range tr.Events {
		kinds = append(kinds, e.String())
	}
	joined := strings.Join(kinds, "\n")
	for _, want := range []string{
		"TERMINAL| HELLO WORLD",
		"READ IN-FILE| A",
		"READ IN-FILE| B",
		"READ IN-FILE| <eof>",
		"WRITE OUT-FILE| A / B",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q:\n%s", want, joined)
		}
	}
}

// TestPaperTemplateB runs the paper's §4.1 CODASYL template (B) shape:
// find EMP-DEPT records for department D2 with three years of service.
func TestPaperTemplateB(t *testing.T) {
	db := netstore.NewDB(schema.EmpDeptNetwork())
	s := netstore.NewSession(db)
	s.Store("DEPT", value.FromPairs("D#", "D2", "DNAME", "SALES", "MGR", "SMITH"))
	s.Store("DEPT", value.FromPairs("D#", "D12", "DNAME", "ACCT", "MGR", "JONES"))
	for _, e := range []struct {
		e, d string
		yos  int
	}{
		{"E1", "D2", 3}, {"E2", "D2", 11}, {"E3", "D12", 3},
	} {
		s.FindAny("EMP", nil) // ensure EMP currency not needed; store EMPs first
		s.Store("EMP", value.FromPairs("E#", e.e, "ENAME", "EMP-"+e.e, "AGE", 30))
		s.FindAny("DEPT", value.FromPairs("D#", e.d))
		s.FindAny("EMP", value.FromPairs("E#", e.e))
		// Order matters: currency for both sets must be right before STORE.
		s.FindAny("DEPT", value.FromPairs("D#", e.d))
		sEmp := value.FromPairs("E#", e.e, "D#", e.d, "YEAR-OF-SERVICE", e.yos)
		// Need EMP currency for E-ED: restore it via FindAny on EMP.
		s2 := netstore.NewSession(db)
		s2.FindAny("DEPT", value.FromPairs("D#", e.d))
		s2.FindAny("EMP", value.FromPairs("E#", e.e))
		if _, st, err := s2.Store("EMP-DEPT", sEmp); st != netstore.OK || err != nil {
			t.Fatalf("store EMP-DEPT: %v %v", st, err)
		}
	}

	p := mustParse(t, `
PROGRAM TEMPLATE-B DIALECT NETWORK.
  MOVE 'D2' TO D# IN DEPT.
  FIND ANY DEPT USING D#.
  IF DB-STATUS <> 'OK'
    PRINT 'NOT FOUND'.
    STOP.
  END-IF.
  MOVE 3 TO YEAR-OF-SERVICE IN EMP-DEPT.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP-DEPT WITHIN ED USING YEAR-OF-SERVICE.
    IF DB-STATUS = 'OK'
      GET EMP-DEPT.
      PRINT E# IN EMP-DEPT, YEAR-OF-SERVICE IN EMP-DEPT.
    END-IF.
  END-PERFORM.
  PRINT 'DONE'.
END PROGRAM.
`)
	tr, err := Run(p, Config{Net: db})
	if err != nil {
		t.Fatal(err)
	}
	got := terminalLines(tr)
	want := []string{"E1 3", "DONE"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("terminal = %v, want %v", got, want)
	}
}

func TestNetworkStoreModifyEraseConnect(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Insertion = schema.Manual
	sch.Set("DIV-EMP").Retention = schema.Optional
	db := netstore.NewDB(sch)
	p := mustParse(t, `
PROGRAM LIFECYCLE DIALECT NETWORK.
  MOVE 'M' TO DIV-NAME IN DIV.
  MOVE 'DETROIT' TO DIV-LOC IN DIV.
  STORE DIV.
  MOVE 'ADAMS' TO EMP-NAME IN EMP.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  MOVE 45 TO AGE IN EMP.
  STORE EMP.
  CONNECT EMP TO DIV-EMP.
  PRINT DB-STATUS.
  GET EMP.
  PRINT DIV-NAME IN EMP.
  MOVE 46 TO AGE IN EMP.
  MODIFY EMP USING AGE.
  GET EMP.
  PRINT AGE IN EMP.
  DISCONNECT EMP FROM DIV-EMP.
  PRINT DB-STATUS.
  ERASE EMP.
  PRINT DB-STATUS.
END PROGRAM.
`)
	tr, err := Run(p, Config{Net: db})
	if err != nil {
		t.Fatal(err)
	}
	got := terminalLines(tr)
	want := []string{"OK", "M", "46", "OK", "OK"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("terminal = %v, want %v", got, want)
	}
	if db.Count("EMP") != 0 {
		t.Error("EMP not erased")
	}
}

func TestFindVariantsAndOwner(t *testing.T) {
	db := companyNet(t)
	p := mustParse(t, `
PROGRAM NAV DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  FIND LAST EMP WITHIN DIV-EMP.
  GET EMP.
  PRINT EMP-NAME IN EMP.
  FIND PRIOR EMP WITHIN DIV-EMP.
  GET EMP.
  PRINT EMP-NAME IN EMP.
  FIND FIRST EMP WITHIN DIV-EMP.
  GET EMP.
  PRINT EMP-NAME IN EMP.
  FIND OWNER WITHIN DIV-EMP.
  GET DIV.
  PRINT DIV-LOC IN DIV.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  FIND ANY EMP USING DEPT-NAME.
  GET EMP.
  PRINT EMP-NAME IN EMP.
  FIND DUPLICATE EMP USING DEPT-NAME.
  GET EMP.
  PRINT EMP-NAME IN EMP.
  PRINT RECORD DIV.
END PROGRAM.
`)
	tr, err := Run(p, Config{Net: db})
	if err != nil {
		t.Fatal(err)
	}
	got := terminalLines(tr)
	want := []string{"CLARK", "BAKER", "ADAMS", "DETROIT", "ADAMS", "BAKER",
		"{DIV-NAME=MACHINERY, DIV-LOC=DETROIT}"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("terminal = %v, want %v", got, want)
	}
}

// GET refills the record buffer: fields MOVEd in that the record type
// lacks are gone, a failed GET leaves the buffer as it was, and a failed
// GET makes no buffer where there was none.
func TestGetRefillsBuffer(t *testing.T) {
	db := companyNet(t)
	p := mustParse(t, `
PROGRAM REFILL DIALECT NETWORK.
  MOVE 'X' TO EXTRA IN EMP.
  MOVE 'CLARK' TO EMP-NAME IN EMP.
  FIND ANY EMP USING EMP-NAME.
  GET EMP.
  PRINT RECORD EMP.
  FIND OWNER WITHIN DIV-EMP.
  GET EMP.
  PRINT DB-STATUS.
  PRINT RECORD EMP.
  FIND FIRST EMP WITHIN DIV-EMP.
  GET EMP.
  PRINT RECORD EMP.
END PROGRAM.
`)
	tr, err := Run(p, Config{Net: db})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"{EMP-NAME=CLARK, DEPT-NAME=WELDING, AGE=33, DIV-NAME=MACHINERY}",
		"WRONG-TYPE",
		"{EMP-NAME=CLARK, DEPT-NAME=WELDING, AGE=33, DIV-NAME=MACHINERY}",
		"{EMP-NAME=ADAMS, DEPT-NAME=SALES, AGE=45, DIV-NAME=MACHINERY}",
	}
	if got := terminalLines(tr); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("terminal = %v, want %v", got, want)
	}

	p = mustParse(t, `
PROGRAM NOBUF DIALECT NETWORK.
  MOVE 'CLARK' TO EMP-NAME IN EMP.
  FIND ANY EMP USING EMP-NAME.
  GET DIV.
  PRINT RECORD DIV.
END PROGRAM.
`)
	if _, err := Run(p, Config{Net: db}); err == nil || !strings.Contains(err.Error(), "no record buffer DIV") {
		t.Errorf("failed GET into no buffer: err = %v", err)
	}
}

func TestMarylandDialect(t *testing.T) {
	db := companyNet(t)
	p := mustParse(t, `
PROGRAM MD DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO OLD.
  FOR EACH E IN OLD
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
  SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))) ON (AGE) INTO BYAGE.
  FOR EACH E IN BYAGE
    PRINT EMP-NAME IN E.
  END-FOR.
  MODIFY OLD SET (DEPT-NAME = 'SENIOR').
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DEPT-NAME = 'SENIOR')) INTO SENIORS.
  FOR EACH E IN SENIORS
    PRINT 'S', EMP-NAME IN E.
  END-FOR.
  STORE EMP (EMP-NAME = 'FOSTER', DEPT-NAME = 'LOOMS', AGE = 30)
    VIA DIV-EMP = FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'TEXTILES')).
  DELETE SENIORS.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP) INTO REST.
  FOR EACH E IN REST
    PRINT 'R', EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	tr, err := Run(p, Config{Net: db})
	if err != nil {
		t.Fatal(err)
	}
	got := terminalLines(tr)
	want := []string{
		"ADAMS 45", "CLARK 33", "DAVIS 51",
		"CLARK", "ADAMS", "DAVIS",
		"S ADAMS", "S CLARK", "S DAVIS",
		"R BAKER", "R FOSTER",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("terminal = %v\nwant %v", got, want)
	}
}

func TestSequelDialect(t *testing.T) {
	db := relstore.NewDB(schema.EmpDeptRelational())
	for _, r := range []struct {
		rel string
		rec *value.Record
	}{
		{"EMP", value.FromPairs("E#", "E1", "ENAME", "BAKER", "AGE", 28)},
		{"EMP", value.FromPairs("E#", "E2", "ENAME", "CLARK", "AGE", 33)},
		{"DEPT", value.FromPairs("D#", "D2", "DNAME", "SALES", "MGR", "SMITH")},
		{"EMP-DEPT", value.FromPairs("E#", "E1", "D#", "D2", "YEAR-OF-SERVICE", 3)},
	} {
		db.Insert(r.rel, r.rec)
	}
	p := mustParse(t, `
PROGRAM SQ DIALECT SEQUEL.
  LET MIN = 30.
  FOR EACH R IN (SELECT ENAME, AGE FROM EMP WHERE AGE > :MIN)
    PRINT ENAME IN R, AGE IN R.
  END-FOR.
  INSERT INTO EMP (E#, ENAME, AGE) VALUES ('E9', 'NEW', 20).
  UPDATE EMP SET AGE = 21 WHERE E# = 'E9'.
  FOR EACH R IN (SELECT ENAME FROM EMP WHERE E# IN
      (SELECT E# FROM EMP-DEPT WHERE D# = 'D2' AND YEAR-OF-SERVICE = 3))
    PRINT 'TPL-A', ENAME IN R.
  END-FOR.
  DELETE FROM EMP WHERE E# = 'E9'.
  FOR EACH R IN (SELECT E# FROM EMP)
    PRINT 'LEFT', E# IN R.
  END-FOR.
END PROGRAM.
`)
	tr, err := Run(p, Config{Rel: db})
	if err != nil {
		t.Fatal(err)
	}
	got := terminalLines(tr)
	want := []string{"CLARK 33", "TPL-A BAKER", "LEFT E1", "LEFT E2"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("terminal = %v, want %v", got, want)
	}
}

func TestDLIDialect(t *testing.T) {
	db := hierstore.NewDB(schema.EmpDeptHierarchy())
	p := mustParse(t, `
PROGRAM HIER DIALECT DLI.
  ISRT DEPT (D# = 'D12', DNAME = 'ACCT', MGR = 'SMITH').
  ISRT DEPT (D# = 'D2', DNAME = 'SALES', MGR = 'JONES').
  ISRT EMP (E# = 'E1', ENAME = 'BAKER', AGE = 28, YEAR-OF-SERVICE = 3) UNDER DEPT(D# = 'D12').
  ISRT EMP (E# = 'E2', ENAME = 'CLARK', AGE = 33, YEAR-OF-SERVICE = 3) UNDER DEPT(D# = 'D2').
  GU DEPT(D# = 'D12').
  PRINT DNAME IN DEPT.
  GNP EMP.
  PRINT ENAME IN EMP.
  GNP EMP.
  PRINT DB-STATUS.
  GU DEPT(D# = 'D2'), EMP(E# = 'E2').
  REPL (AGE = 34).
  GU EMP(AGE > 30).
  PRINT ENAME IN EMP, AGE IN EMP.
  DLET.
  GU EMP(AGE > 30).
  PRINT DB-STATUS.
  GU DEPT(D# = 'D12').
  PERFORM UNTIL DB-STATUS <> 'OK'
    GN EMP.
    IF DB-STATUS = 'OK'
      PRINT 'SWEEP', ENAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`)
	tr, err := Run(p, Config{Hier: db})
	if err != nil {
		t.Fatal(err)
	}
	got := terminalLines(tr)
	want := []string{"ACCT", "BAKER", "GE", "CLARK 34", "GE", "SWEEP BAKER"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("terminal = %v, want %v", got, want)
	}
}

func TestStepBudget(t *testing.T) {
	p := mustParse(t, `
PROGRAM RUNAWAY DIALECT NETWORK.
  LET I = 0.
  PERFORM UNTIL 1 = 2
    LET I = I + 1.
  END-PERFORM.
END PROGRAM.
`)
	_, err := Run(p, Config{Net: netstore.NewDB(schema.CompanyV1()), MaxSteps: 1000})
	if !errors.Is(err, ErrSteps) {
		t.Errorf("err = %v, want ErrSteps", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	net := netstore.NewDB(schema.CompanyV1())
	cases := []struct {
		name, src string
	}{
		{"unknown var", `PROGRAM X DIALECT NETWORK. PRINT NOPE. END PROGRAM.`},
		{"no buffer", `PROGRAM X DIALECT NETWORK. PRINT F IN EMP. END PROGRAM.`},
		{"unknown set", `PROGRAM X DIALECT NETWORK. FIND FIRST EMP WITHIN NOPE. END PROGRAM.`},
		{"bad record ref", `PROGRAM X DIALECT NETWORK. PRINT RECORD EMP. END PROGRAM.`},
		{"division by zero", `PROGRAM X DIALECT NETWORK. PRINT 1 / 0. END PROGRAM.`},
		{"float div by zero", `PROGRAM X DIALECT NETWORK. PRINT 1.0 / 0.0. END PROGRAM.`},
		{"not on number", `PROGRAM X DIALECT NETWORK. PRINT NOT 3. END PROGRAM.`},
		{"neg on string", `PROGRAM X DIALECT NETWORK. PRINT - 'A'. END PROGRAM.`},
		{"and on number", `PROGRAM X DIALECT NETWORK. PRINT 1 AND 2. END PROGRAM.`},
		{"and rhs not bool", `PROGRAM X DIALECT NETWORK. PRINT 1 = 1 AND 2. END PROGRAM.`},
		{"arith on string", `PROGRAM X DIALECT NETWORK. PRINT 'A' * 2. END PROGRAM.`},
		{"incomparable", `PROGRAM X DIALECT NETWORK. PRINT 'A' < 2. END PROGRAM.`},
		{"cond not bool", `PROGRAM X DIALECT NETWORK. IF 3 PRINT 'X'. END-IF. END PROGRAM.`},
		{"unknown collection", `PROGRAM X DIALECT MARYLAND. FOR EACH E IN NOPE PRINT 'X'. END-FOR. END PROGRAM.`},
		{"unknown coll delete", `PROGRAM X DIALECT MARYLAND. DELETE NOPE. END PROGRAM.`},
		{"unknown coll modify", `PROGRAM X DIALECT MARYLAND. MODIFY NOPE SET (A = 1). END PROGRAM.`},
		{"bad net record", `PROGRAM X DIALECT NETWORK. FIND ANY NOPE. END PROGRAM.`},
	}
	for _, tc := range cases {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if _, err := Run(p, Config{Net: net}); err == nil {
			t.Errorf("%s: expected runtime error", tc.name)
		}
	}
}

func TestMissingDatabaseConfig(t *testing.T) {
	for _, src := range []string{
		`PROGRAM X DIALECT NETWORK. PRINT 'HI'. END PROGRAM.`,
		`PROGRAM X DIALECT MARYLAND. PRINT 'HI'. END PROGRAM.`,
		`PROGRAM X DIALECT SEQUEL. PRINT 'HI'. END PROGRAM.`,
		`PROGRAM X DIALECT DLI. PRINT 'HI'. END PROGRAM.`,
	} {
		p := mustParse(t, src)
		if _, err := Run(p, Config{}); err == nil {
			t.Errorf("%s: expected config error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"PROGRAM X DIALECT COBOL.",
		"PROGRAM X DIALECT NETWORK. FROB. END PROGRAM.",
		"PROGRAM X DIALECT NETWORK. PRINT 'X'.",
		"PROGRAM X DIALECT NETWORK. IF 1 = 1 PRINT 'X'.",
		"PROGRAM X DIALECT NETWORK. FIND SIDEWAYS EMP. END PROGRAM.",
		"PROGRAM X DIALECT NETWORK. LET X 3. END PROGRAM.",
		"PROGRAM X DIALECT NETWORK. READ BADNAME INTO X. END PROGRAM.",
		"PROGRAM X DIALECT NETWORK. WRITE BADNAME X. END PROGRAM.",
		"PROGRAM X DIALECT SEQUEL. FOR EACH R IN (DELETE FROM X) PRINT 'A'. END-FOR. END PROGRAM.",
		"PROGRAM X DIALECT NETWORK. PRINT 9999999999999999999999999. END PROGRAM.",
		"PROGRAM X DIALECT NETWORK. END PROGRAM. JUNK",
		"PROGRAM X DIALECT MARYLAND. FIND(EMP: SYSTEM INTO C. END PROGRAM.",
		"PROGRAM X DIALECT DLI. GU DEPT(D# ! 1). END PROGRAM.",
		"'lex",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q should not parse", src)
		}
	}
}

func TestTraceEqualAndString(t *testing.T) {
	a := &Trace{Events: []Event{{Kind: Terminal, Text: "X"}}}
	b := &Trace{Events: []Event{{Kind: Terminal, Text: "X"}}}
	c := &Trace{Events: []Event{{Kind: Terminal, Text: "Y"}}}
	d := &Trace{}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Trace.Equal")
	}
	if !strings.Contains(a.String(), "TERMINAL| X") {
		t.Error("Trace.String")
	}
	if (Event{Kind: FileWrite, File: "F", Text: "L"}).String() != "WRITE F| L" {
		t.Error("Event.String")
	}
	if Terminal.String() != "TERMINAL" || FileRead.String() != "READ" ||
		FileWrite.String() != "WRITE" || EventKind(9).String() != "?" {
		t.Error("EventKind.String")
	}
}

func TestDialectString(t *testing.T) {
	for d, w := range map[Dialect]string{Network: "NETWORK", Maryland: "MARYLAND",
		Sequel: "SEQUEL", DLI: "DLI", Dialect(9): "?"} {
		if d.String() != w {
			t.Errorf("%d = %q", d, d.String())
		}
	}
	if _, err := ParseDialect("nope"); err == nil {
		t.Error("ParseDialect")
	}
	for _, n := range []string{"network", "MARYLAND", "Sequel", "dli"} {
		if _, err := ParseDialect(n); err != nil {
			t.Errorf("ParseDialect(%q): %v", n, err)
		}
	}
}

func TestNullComparisonsInHost(t *testing.T) {
	// ACCEPT at exhausted input yields null; null sorts below everything,
	// so WHO = '' is false and WHO < 'A' is true. Programs use this to
	// detect end-of-input.
	p := mustParse(t, `
PROGRAM NULLS DIALECT NETWORK.
  ACCEPT WHO.
  IF WHO < 'A' PRINT 'NO INPUT'. END-IF.
END PROGRAM.
`)
	tr, err := Run(p, Config{Net: netstore.NewDB(schema.CompanyV1())})
	if err != nil {
		t.Fatal(err)
	}
	if got := terminalLines(tr); len(got) != 1 || got[0] != "NO INPUT" {
		t.Errorf("terminal = %v", got)
	}
}

func TestWritesDetection(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`
PROGRAM READER DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP, DEPT-NAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`, false},
		{`PROGRAM W DIALECT NETWORK. STORE DIV. END PROGRAM.`, true},
		{`PROGRAM W DIALECT NETWORK. IF 1 = 1 ERASE EMP. END-IF. END PROGRAM.`, true},
		{`PROGRAM W DIALECT MARYLAND. FIND(DIV: SYSTEM, ALL-DIV, DIV) INTO C. DELETE C. END PROGRAM.`, true},
		{`PROGRAM W DIALECT MARYLAND. FIND(DIV: SYSTEM, ALL-DIV, DIV) INTO C. FOR EACH D IN C PRINT 'X'. END-FOR. END PROGRAM.`, false},
		{`PROGRAM W DIALECT SEQUEL. FOR EACH R IN (SELECT CNO FROM C) DELETE FROM C WHERE CNO = 'X'. END-FOR. END PROGRAM.`, true},
		{`PROGRAM W DIALECT NETWORK. PERFORM UNTIL 1 = 1 CONNECT EMP TO DIV-EMP. END-PERFORM. END PROGRAM.`, true},
		{`PROGRAM W DIALECT DLI. GU DEPT(D# = 'D12'). PRINT MGR IN DEPT. END PROGRAM.`, false},
		{`PROGRAM W DIALECT DLI. GU DEPT(D# = 'D12'). IF DB-STATUS = 'OK' REPL (MGR = 'X'). END-IF. END PROGRAM.`, true},
		{`PROGRAM W DIALECT DLI. ISRT DEPT (D# = 'D9', DNAME = 'X', MGR = 'Y'). END PROGRAM.`, true},
	}
	for _, tc := range cases {
		if got := Writes(mustParse(t, tc.src)); got != tc.want {
			t.Errorf("Writes = %v, want %v for\n%s", got, tc.want, tc.src)
		}
	}
}
