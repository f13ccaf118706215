package dbprog_test

import (
	"sync"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/dbprog"
)

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops items on purpose, so pooled allocation counts do not
// hold there.
var raceEnabled bool

// corpusSources returns the program texts of a period inventory of n
// programs.
func corpusSources(t *testing.T, seed int64, n int) []string {
	t.Helper()
	prof := corpus.PeriodProfile(seed)
	prof.Programs = n
	members, err := corpus.Programs(prof)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]string, len(members))
	for i, m := range members {
		srcs[i] = m.Source
	}
	return srcs
}

// TestParseConcurrentMatchesSerial: parsers and token buffers go back
// to pools after each parse, so eight goroutines parse three
// inventories again and again and every AST must still render as a
// serial parse of its text does, after the others have reused the
// buffers it was parsed from. Under -race a released buffer that an
// AST still reads shows as a data race.
func TestParseConcurrentMatchesSerial(t *testing.T) {
	var srcs, want []string
	for seed := int64(1); seed <= 3; seed++ {
		srcs = append(srcs, corpusSources(t, seed, 100)...)
	}
	for _, src := range srcs {
		p, err := dbprog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dbprog.Format(p))
	}
	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			progs := make([]*dbprog.Program, len(srcs))
			for r := 0; r < rounds; r++ {
				for i := range srcs {
					// Each worker starts at its own offset, so the
					// workers parse different programs at once.
					k := (i + w*len(srcs)/workers) % len(srcs)
					p, err := dbprog.Parse(srcs[k])
					if err != nil {
						t.Error(err)
						return
					}
					progs[k] = p
				}
				for k, p := range progs {
					if got := dbprog.Format(p); got != want[k] {
						t.Errorf("worker %d round %d: program %d renders\n%s\nwant\n%s", w, r, k, got, want[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestParseAllocs pins the allocations of a warm parse of the seed-1
// inventory of 100 programs. The AST's own nodes are what remain: the
// token buffer and the parser's stacks come from pools, and each
// statement and expression list is allocated once at its exact size.
// Before that, each program allocated its token slice and regrew every
// list by append: 2,765 allocations for this inventory.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	srcs := corpusSources(t, 1, 100)
	allocs := testing.AllocsPerRun(5, func() {
		for _, src := range srcs {
			if _, err := dbprog.Parse(src); err != nil {
				t.Fatal(err)
			}
		}
	})
	const want = 2263
	if allocs > want {
		t.Errorf("parsing %d programs allocated %.0f times, want at most %d", len(srcs), allocs, want)
	}
}

// TestParseReportsLexicalErrorFirst: the whole source is scanned
// before any of it is parsed, so a lexical error is what a parse
// reports even when a syntax error comes first, with the text and
// position it always had.
func TestParseReportsLexicalErrorFirst(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"PROGRAM X DIALECT NETWORK.\n  FROB.\n  PRINT 'ok', 'unterminated.\nEND PROGRAM.",
			"line 3:15: unterminated string literal"},
		{"PROGRAM X DIALECT NETWORK.\n  LET X 3.\n  PRINT 'O''HARA', X @ 2.\nEND PROGRAM.",
			"line 3:22: unexpected character '@'"},
	} {
		_, err := dbprog.Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}
