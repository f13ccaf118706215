package lex_test

import (
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/lex"
)

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops items on purpose, so pooled allocation counts do not
// hold there.
var raceEnabled bool

// TestScanAllocs: a stream takes its token buffer from a pool and
// Release hands it back, and token texts are slices of the source, so
// scanning a corpus program on a warm pool allocates nothing. Before
// the pool, each program cost one token slice of len(src)/3+2 tokens;
// before texts were sliced out of the source, P-000 cost 27.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	members, err := corpus.Programs(corpus.PeriodProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		allocs := testing.AllocsPerRun(10, func() {
			s, err := lex.NewStream(m.Source)
			if err != nil {
				t.Fatal(err)
			}
			s.Release()
		})
		if allocs != 0 {
			t.Errorf("%s: NewStream+Release allocated %.0f times, want 0", m.Program.Name, allocs)
		}
	}
}
