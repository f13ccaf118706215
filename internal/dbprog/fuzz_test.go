package dbprog_test

import (
	"os"
	"path/filepath"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/dbprog"
)

// FuzzFormatFixedPoint: Parse never panics, and the Program
// Generator's rendering of a parsed program re-parses to the same text.
// A program's cache fingerprint hashes that rendering, so a rendering
// that drifted under re-parse would key one program two ways.
//
// Plain go test runs the seeds; go test -fuzz FuzzFormatFixedPoint
// explores from them.
func FuzzFormatFixedPoint(f *testing.F) {
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
