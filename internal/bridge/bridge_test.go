package bridge

import (
	"context"
	"strings"
	"testing"

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

func v1DB(t *testing.T) *netstore.DB {
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

const readerProgram = `
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
`

// TestBridgeRunsUnmodifiedProgram: the original program, untouched, runs
// against the reconstruction and produces exactly its original output.
func TestBridgeRunsUnmodifiedProgram(t *testing.T) {
	src := v1DB(t)
	target, _, err := figurePlan().Migrate(context.Background(), src, xform.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(schema.CompanyV1(), target, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	p := parse(t, readerProgram)
	want, err := dbprog.Run(p, dbprog.Config{Net: src.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Run(p, dbprog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("bridge trace differs:\n%s\nvs\n%s", want, got)
	}
}

func TestBridgeReconstructionCached(t *testing.T) {
	target, _, _ := figurePlan().Migrate(context.Background(), v1DB(t), xform.MigrateOptions{})
	b, err := New(schema.CompanyV1(), target, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := b.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := b.Reconstruct()
	if r1 != r2 {
		t.Error("reconstruction should be cached while the target is unchanged")
	}
}

// TestBridgeWriteBack: an updating program's effects are retranslated
// into the target and visible to later bridge runs.
func TestBridgeWriteBack(t *testing.T) {
	target, _, _ := figurePlan().Migrate(context.Background(), v1DB(t), xform.MigrateOptions{})
	b, err := New(schema.CompanyV1(), target, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	writer := parse(t, `
PROGRAM WRITER DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  MOVE 'FOSTER' TO EMP-NAME IN EMP.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  MOVE 29 TO AGE IN EMP.
  STORE EMP.
  PRINT DB-STATUS.
END PROGRAM.
`)
	tr, err := b.Run(writer, dbprog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Text != "OK" {
		t.Fatalf("store failed: %v", tr.Events)
	}
	// The retranslated target has the new employee under MACHINERY/SALES.
	if b.Target().Count("EMP") != 5 {
		t.Errorf("target EMP count = %d", b.Target().Count("EMP"))
	}
	// A later bridged reader sees the write.
	got, err := b.Run(parse(t, readerProgram), dbprog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.String(), "FOSTER SALES") {
		t.Errorf("write not visible to later run:\n%s", got)
	}
}

func TestBridgeRequiresInvertiblePlan(t *testing.T) {
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.DropField{Record: "EMP", Field: "AGE"},
	}}
	if _, err := New(schema.CompanyV1(), netstore.NewDB(schema.CompanyV1()), plan); err == nil {
		t.Error("non-invertible plan must be refused (Housel's restriction)")
	}
}
