// Package promlint checks Prometheus text exposition output, so every
// package that serves the format tests it with the same rules.
package promlint

import (
	"fmt"
	"regexp"
	"strings"
)

// line matches the three legal line shapes of the text exposition
// format: a HELP or TYPE comment, a labelled sample and a bare sample.
var line = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
	`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE.+-]+(Inf)?)$`)

// Lint returns one error per violation in text: a line of no legal
// shape, a sample before its family's # TYPE line, or a missing final
// newline. A histogram sample belongs to the family its one _bucket,
// _sum or _count suffix extends, so a family whose own name ends in
// _count (progconv_dataplane_probe_count) still matches.
func Lint(text string) []error {
	var errs []error
	if !strings.HasSuffix(text, "\n") {
		errs = append(errs, fmt.Errorf("output does not end with a newline"))
	}
	typed := map[string]bool{}
	for i, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case !line.MatchString(l):
			errs = append(errs, fmt.Errorf("line %d fails format lint: %q", i+1, l))
		case strings.HasPrefix(l, "# TYPE "):
			typed[strings.Fields(l)[2]] = true
		case strings.HasPrefix(l, "#"):
		default:
			name := l[:strings.IndexAny(l, "{ ")]
			ok := typed[name]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base, cut := strings.CutSuffix(name, suffix)
				ok = ok || cut && typed[base]
			}
			if !ok {
				errs = append(errs, fmt.Errorf("line %d: sample %q precedes its # TYPE", i+1, name))
			}
		}
	}
	return errs
}
