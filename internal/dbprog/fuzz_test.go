package dbprog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/dbprog"
)

// addProgramSeeds seeds a program fuzz target with the example
// programs, a period corpus inventory and the IMS study.
func addProgramSeeds(f *testing.F) {
	for _, src := range programSeeds(f) {
		f.Add(src)
	}
}

// programSeeds returns the sources addProgramSeeds adds.
func programSeeds(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob("../../examples/*/*.prog")
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) == 0 {
		tb.Fatal("no example programs to seed from")
	}
	var srcs []string
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	members, err := corpus.Programs(corpus.PeriodProfile(1))
	if err != nil {
		tb.Fatal(err)
	}
	entry, err := corpus.IMSReorder()
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range append(members, entry.Members...) {
		srcs = append(srcs, m.Source)
	}
	return append(srcs, twoOwnerStores...)
}

// twoOwnerStores spell one two-owner Maryland STORE both ways: VIA
// before each owner, and VIA once, as Format writes it.
var twoOwnerStores = []string{`PROGRAM TWO-VIAS DIALECT MARYLAND.
  STORE EMP (EMP-NAME = 'ZED', AGE = 30)
    VIA DIV-EMP = FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY')), VIA DEPT-EMP = FIND(DEPT: SYSTEM, ALL-DEPT, DEPT(DEPT-NAME = 'SALES')).
END PROGRAM.
`, `PROGRAM ONE-VIA DIALECT MARYLAND.
  STORE EMP (EMP-NAME = 'ZED', AGE = 30)
    VIA DIV-EMP = FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY')), DEPT-EMP = FIND(DEPT: SYSTEM, ALL-DEPT, DEPT(DEPT-NAME = 'SALES')).
END PROGRAM.
`}

// TestTwoOwnerStoreReparses: both spellings of a two-owner STORE parse
// to the same statement, and its rendering re-parses to the same text —
// the Program Generator's output for such a program is real source.
func TestTwoOwnerStoreReparses(t *testing.T) {
	var want string
	for i, src := range twoOwnerStores {
		p := mustParse(t, src)
		p.Name = "TWO-OWNERS"
		text := dbprog.Format(p)
		if i == 0 {
			want = text
		} else if text != want {
			t.Errorf("spellings render differently:\n%s\nvs\n%s", want, text)
		}
		again, err := dbprog.Parse(text)
		if err != nil {
			t.Fatalf("rendering does not re-parse: %v\n%s", err, text)
		}
		if got := dbprog.Format(again); got != text {
			t.Fatalf("rendering is not a fixed point:\n%s\nre-rendered as\n%s", text, got)
		}
	}
}

// FuzzFormatFixedPoint: Parse never panics, and the Program
// Generator's rendering of a parsed program re-parses to the same text.
// A program's cache fingerprint hashes that rendering, so a rendering
// that drifted under re-parse would key one program two ways.
//
// Plain go test runs the seeds; go test -fuzz FuzzFormatFixedPoint
// explores from them.
func FuzzFormatFixedPoint(f *testing.F) {
	addProgramSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := dbprog.Parse(src)
		if err != nil {
			return
		}
		text := dbprog.Format(p)
		again, err := dbprog.Parse(text)
		if err != nil {
			t.Fatalf("rendering does not re-parse: %v\n%s", err, text)
		}
		if got := dbprog.Format(again); got != text {
			t.Fatalf("rendering is not a fixed point:\n%s\nre-rendered as\n%s", text, got)
		}
	})
}

// FuzzFormatOracle: the appending Program Generator renders every
// parsed program to the same bytes as the fmt-based one it replaced
// (OracleFormat), through Format and through AppendFormat after
// existing bytes.
//
// Plain go test runs the seeds; go test -fuzz FuzzFormatOracle explores
// from them.
func FuzzFormatOracle(f *testing.F) {
	addProgramSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := dbprog.Parse(src)
		if err != nil {
			return
		}
		checkAgainstOracle(t, p)
	})
}

// checkAgainstOracle fails t unless both renderings of p match the
// oracle's bytes.
func checkAgainstOracle(t *testing.T, p *dbprog.Program) {
	t.Helper()
	want := dbprog.OracleFormat(p)
	if got := dbprog.Format(p); got != want {
		t.Fatalf("%s: Format differs from the oracle:\n%s\nwant\n%s", p.Name, got, want)
	}
	if got := string(dbprog.AppendFormat([]byte("prefix"), p)); got != "prefix"+want {
		t.Fatalf("%s: AppendFormat did not append the oracle's bytes:\n%s", p.Name, got)
	}
}

// TestFormatMatchesOracle: the writer matches the oracle byte for byte
// on the fuzz seeds (which hold the IMS study) and twenty 200-program
// corpus inventories.
func TestFormatMatchesOracle(t *testing.T) {
	for _, src := range programSeeds(t) {
		checkAgainstOracle(t, mustParse(t, src))
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, m := range corpusPrograms(t, seed, 200) {
			checkAgainstOracle(t, m)
		}
	}
}

// TestFormatAllocs: the writer renders the corpus into a warm buffer
// without allocating. The old fmt-based Format built every statement
// through Fprintf and intermediate strings.
func TestFormatAllocs(t *testing.T) {
	var progs []*dbprog.Program
	for seed := int64(1); seed <= 3; seed++ {
		progs = append(progs, corpusPrograms(t, seed, 200)...)
	}
	entry, err := corpus.IMSReorder()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range entry.Members {
		progs = append(progs, m.Program)
	}
	buf := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range progs {
			buf = dbprog.AppendFormat(buf[:0], p)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendFormat allocated %.0f times over %d programs, want 0", allocs, len(progs))
	}
}

// corpusPrograms returns a period inventory of n programs.
func corpusPrograms(t *testing.T, seed int64, n int) []*dbprog.Program {
	t.Helper()
	prof := corpus.PeriodProfile(seed)
	prof.Programs = n
	members, err := corpus.Programs(prof)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]*dbprog.Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	return progs
}

func mustParse(t *testing.T, src string) *dbprog.Program {
	t.Helper()
	p, err := dbprog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzRun: a program that parses runs against a seeded database of its
// model to a trace or an error, never a panic, and runs the same way
// twice. The daemon's submit handler runs a job's verify_init program
// like this, on text from the client, before the job is queued.
//
// Plain go test runs the seeds; go test -fuzz FuzzRun explores from
// them.
func FuzzRun(f *testing.F) {
	addProgramSeeds(f)
	f.Add(`PROGRAM INIT-DB DIALECT NETWORK.
MOVE 'MACHINERY' TO DIV-NAME IN DIV.
MOVE 'DETROIT' TO DIV-LOC IN DIV.
STORE DIV.
MOVE 'ADAMS' TO EMP-NAME IN EMP.
MOVE 'SALES' TO DEPT-NAME IN EMP.
MOVE 45 TO AGE IN EMP.
STORE EMP.
END PROGRAM.`)
	net := corpus.Database(corpus.Profile{Seed: 1, Divisions: 2, DeptsPerDiv: 2, EmpsPerDept: 3})
	entry, err := corpus.IMSReorder()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := dbprog.Parse(src)
		if err != nil {
			return
		}
		run := func() string {
			tr, err := dbprog.Run(p, dbprog.Config{Net: net.Clone(), Hier: entry.Seed(), MaxSteps: 1000})
			return fmt.Sprintf("%s%v", tr, err)
		}
		if first, second := run(), run(); first != second {
			t.Fatalf("two runs of one program differ:\n%s\n---\n%s", first, second)
		}
	})
}
