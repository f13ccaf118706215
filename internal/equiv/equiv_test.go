package equiv

import (
	"context"
	"errors"
	"strings"
	"testing"

	"progconv/internal/dbprog"
	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/schema"
)

func parse(t *testing.T, src string) *dbprog.Program {
	t.Helper()
	p, err := dbprog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func cfg() dbprog.Config {
	return dbprog.Config{Net: netstore.NewDB(schema.CompanyV1())}
}

func TestCheckEqual(t *testing.T) {
	a := parse(t, `PROGRAM A DIALECT NETWORK. PRINT 'X'. PRINT 'Y'. END PROGRAM.`)
	b := parse(t, `PROGRAM B DIALECT NETWORK. PRINT 'X'. PRINT 'Y'. END PROGRAM.`)
	v := Check(context.Background(), a, cfg(), b, cfg())
	if !v.Equal {
		t.Errorf("verdict = %+v", v)
	}
	if v.Diff() != "traces identical" {
		t.Error("Diff on equal")
	}
}

func TestCheckDivergent(t *testing.T) {
	a := parse(t, `PROGRAM A DIALECT NETWORK. PRINT 'X'. END PROGRAM.`)
	b := parse(t, `PROGRAM B DIALECT NETWORK. PRINT 'Z'. END PROGRAM.`)
	v := Check(context.Background(), a, cfg(), b, cfg())
	if v.Equal {
		t.Error("should diverge")
	}
	if !strings.Contains(v.Diff(), "event 0") {
		t.Errorf("diff = %s", v.Diff())
	}
	// Length divergence.
	c := parse(t, `PROGRAM C DIALECT NETWORK. PRINT 'X'. PRINT 'MORE'. END PROGRAM.`)
	v2 := Check(context.Background(), a, cfg(), c, cfg())
	if v2.Equal || !strings.Contains(v2.Diff(), "source ended") {
		t.Errorf("diff = %s", v2.Diff())
	}
	v3 := Check(context.Background(), c, cfg(), a, cfg())
	if v3.Equal || !strings.Contains(v3.Diff(), "target ended") {
		t.Errorf("diff = %s", v3.Diff())
	}
}

func TestCheckAbortedRun(t *testing.T) {
	a := parse(t, `PROGRAM A DIALECT NETWORK. PRINT 'X'. END PROGRAM.`)
	bad := parse(t, `PROGRAM B DIALECT NETWORK. PRINT NOPE. END PROGRAM.`)
	v := Check(context.Background(), a, cfg(), bad, cfg())
	if v.Equal || v.TargetErr == nil {
		t.Errorf("verdict = %+v", v)
	}
	if !strings.Contains(v.Diff(), "aborted") {
		t.Errorf("diff = %s", v.Diff())
	}
}

func TestTerminalLinesAndSummary(t *testing.T) {
	a := parse(t, `PROGRAM A DIALECT NETWORK. PRINT 'X'. WRITE 'F' 'L'. PRINT 'Y'. END PROGRAM.`)
	tr, _ := dbprog.Run(a, cfg())
	lines := TerminalLines(tr)
	if len(lines) != 2 || lines[0] != "X" {
		t.Errorf("lines = %v", lines)
	}
	s := Summary(map[string]Verdict{
		"ok":  {Equal: true},
		"bad": {Equal: false, Source: &dbprog.Trace{}, Target: &dbprog.Trace{}},
	})
	if !strings.Contains(s, "1 equivalent, 1 divergent") || !strings.Contains(s, "bad:") {
		t.Errorf("summary = %s", s)
	}
}

// TestCheckRefusedWritesAbort: a write refused by a read-only view never
// reaches the program as a status. On the network side the verb's error
// aborts the run; on the DL/I side the refusal panics, and Check
// re-raises it on the calling goroutine even when it struck the target
// run's goroutine.
func TestCheckRefusedWritesAbort(t *testing.T) {
	reader := parse(t, `PROGRAM R DIALECT NETWORK. PRINT 'X'. END PROGRAM.`)
	writer := parse(t, `PROGRAM W DIALECT NETWORK. STORE DIV. PRINT DB-STATUS. END PROGRAM.`)
	view := dbprog.Config{Net: netstore.NewDB(schema.CompanyV1()).View()}
	v := Check(context.Background(), reader, cfg(), writer, view)
	if v.Equal || !errors.Is(v.TargetErr, netstore.ErrReadOnly) || len(v.Target.Events) != 0 {
		t.Errorf("network writer on a view: %+v", v)
	}

	hier := dbprog.Config{Hier: hierstore.NewDB(schema.EmpDeptHierarchy()).View()}
	dli := parse(t, `PROGRAM I DIALECT DLI. ISRT DEPT (D# = 'D1', DNAME = 'X', MGR = 'Y'). PRINT DB-STATUS. END PROGRAM.`)
	getter := parse(t, `PROGRAM G DIALECT DLI. GU DEPT. PRINT DB-STATUS. END PROGRAM.`)
	for _, side := range []string{"source", "target"} {
		t.Run(side, func(t *testing.T) {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, hierstore.ErrReadOnly) {
					t.Errorf("recovered %v, want hierstore.ErrReadOnly", err)
				}
			}()
			if side == "source" {
				Check(context.Background(), dli, hier, getter, hier)
			} else {
				Check(context.Background(), getter, hier, dli, hier)
			}
			t.Error("Check returned normally")
		})
	}
}
