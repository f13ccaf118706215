package lex_test

import (
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/lex"
)

// TestScanAllocs: scanning slices token texts out of the source, so a
// corpus program costs one allocation, its token slice. Allocating a
// string per punctuation token and per string literal, and growing the
// token slice, cost P-000 27.
func TestScanAllocs(t *testing.T) {
	members, err := corpus.Programs(corpus.PeriodProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := lex.Scan(m.Source); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: Scan allocated %.0f times, want 1", m.Program.Name, allocs)
		}
	}
}
