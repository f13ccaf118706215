// Package equiv is the operational equivalence checker: the paper's §1.1
// rule that "except with respect to the database, a restructured program
// must preserve the input/output behavior of the original program" — the
// same terminal messages and the same series of reads and writes to
// non-database files, while "a different combination of interactions is
// acceptable with respect to the database".
package equiv

import (
	"context"
	"fmt"
	"strings"

	"progconv/internal/dbprog"
	"progconv/internal/obs"
)

// Verdict is the outcome of one equivalence check.
type Verdict struct {
	Equal  bool
	Source *dbprog.Trace
	Target *dbprog.Trace
	// SourceErr/TargetErr record aborted runs; two runs that abort are
	// not equal (the paper's conversions must preserve behaviour, and an
	// aborting program has none to preserve).
	SourceErr error
	TargetErr error
}

// Diff renders the first divergence for the conversion report.
func (v Verdict) Diff() string {
	if v.Equal {
		return "traces identical"
	}
	if v.SourceErr != nil || v.TargetErr != nil {
		return fmt.Sprintf("runs aborted: source=%v target=%v", v.SourceErr, v.TargetErr)
	}
	a, b := v.Source.Events, v.Target.Events
	for i := 0; i < len(a) || i < len(b); i++ {
		switch {
		case i >= len(a):
			return fmt.Sprintf("event %d: source ended, target has %s", i, b[i])
		case i >= len(b):
			return fmt.Sprintf("event %d: target ended, source has %s", i, a[i])
		case a[i] != b[i]:
			return fmt.Sprintf("event %d: source %s vs target %s", i, a[i], b[i])
		}
	}
	return "traces identical"
}

// Check runs the source program under its configuration and the target
// program under its configuration and compares the observable traces.
// The two runs execute concurrently and share nothing they write: the
// caller hands each run either a read-only view of its database or, for
// a program that writes, a clone of its own. Both runs poll ctx, so a
// canceled check aborts promptly on both sides. A panic in either run —
// such as a write refused by a read-only view — is re-raised on the
// calling goroutine once both runs have stopped, so the caller's
// recover barrier sees it. The verdict and the emitted Verify event are
// built after both runs join, on the calling goroutine, keeping the
// event stream deterministic. A done ctx yields a non-Equal verdict
// carrying ctx.Err() in both error slots, so canceled checks are never
// mistaken for divergence-free runs.
func Check(ctx context.Context, src *dbprog.Program, srcCfg dbprog.Config, dst *dbprog.Program, dstCfg dbprog.Config) Verdict {
	if err := ctx.Err(); err != nil {
		return Verdict{SourceErr: err, TargetErr: err}
	}
	if srcCfg.Ctx == nil {
		srcCfg.Ctx = ctx
	}
	if dstCfg.Ctx == nil {
		dstCfg.Ctx = ctx
	}
	var (
		ta, tb             *dbprog.Trace
		ea, eb             error
		srcPanic, dstPanic any
		done               = make(chan struct{})
	)
	go func() {
		defer close(done)
		defer func() { dstPanic = recover() }()
		tb, eb = dbprog.Run(dst, dstCfg)
	}()
	func() {
		defer func() { srcPanic = recover() }()
		ta, ea = dbprog.Run(src, srcCfg)
	}()
	<-done
	if srcPanic != nil {
		panic(srcPanic)
	}
	if dstPanic != nil {
		panic(dstPanic)
	}
	v := Verdict{Source: ta, Target: tb, SourceErr: ea, TargetErr: eb}
	v.Equal = ea == nil && eb == nil && ta.Equal(tb)
	if em := obs.EmitterFrom(ctx); em.Enabled() {
		em.Verify(src.Name, v.Equal, v.Diff())
	}
	return v
}

// TerminalLines extracts the terminal output of a trace, a convenience
// for experiments that compare answers rather than full traces.
func TerminalLines(t *dbprog.Trace) []string {
	var out []string
	for _, e := range t.Events {
		if e.Kind == dbprog.Terminal {
			out = append(out, e.Text)
		}
	}
	return out
}

// Summary renders a batch of verdicts for a report.
func Summary(verdicts map[string]Verdict) string {
	var b strings.Builder
	pass, fail := 0, 0
	for name, v := range verdicts {
		if v.Equal {
			pass++
		} else {
			fail++
			fmt.Fprintf(&b, "  %s: %s\n", name, v.Diff())
		}
	}
	return fmt.Sprintf("%d equivalent, %d divergent\n%s", pass, fail, b.String())
}
