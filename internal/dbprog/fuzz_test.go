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
	files, err := filepath.Glob("../../examples/*/*.prog")
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no example programs to seed from")
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	members, err := corpus.Programs(corpus.PeriodProfile(1))
	if err != nil {
		f.Fatal(err)
	}
	entry, err := corpus.IMSReorder()
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range append(members, entry.Members...) {
		f.Add(m.Source)
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
