package promlint

import "testing"

func TestLint(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		errs       int
	}{
		{"counter", "# HELP a_total A.\n# TYPE a_total counter\na_total{kind=\"x\"} 2\n", 0},
		{"histogram named _count", "# TYPE p_count histogram\np_count_bucket{le=\"+Inf\"} 1\np_count_sum 0.5\np_count_count 1\n", 0},
		{"sample before TYPE", "a_total 1\n# TYPE a_total counter\n", 1},
		{"malformed line", "# TYPE a gauge\na{kind=x} 1\n", 1},
		{"no final newline", "# TYPE a gauge\na 1", 1},
	} {
		if got := Lint(tc.text); len(got) != tc.errs {
			t.Errorf("%s: %d errors %v, want %d", tc.name, len(got), got, tc.errs)
		}
	}
}
