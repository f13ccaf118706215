package plancache

import (
	"context"
	"testing"

	"progconv/internal/fingerprint"
	"progconv/internal/schema"
)

// TestMemoHitAllocs: with no emitter on the context, a hit on any
// program-scoped memo allocates nothing. Keying the memos by one string
// of both hashes cost every lookup a 129-byte key.
func TestMemoHitAllocs(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	pair, err := BuildPair(schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	p := parse(t, sweepProgram)
	ph := fingerprint.Program(p)
	abs := c.Analyze(ctx, ph, pair.SrcHash, p.Name, analyzeFn(ctx, p, pair))
	res, err := c.Convert(ctx, ph, pair.Key, p.Name, convertFn(ctx, abs, pair))
	if err != nil {
		t.Fatal(err)
	}
	c.Codegen(ctx, ph, pair.Key, p.Name, optimizeFn(ctx, res.Program, pair))

	for _, hit := range []struct {
		scope string
		run   func()
	}{
		{ScopeAnalysis, func() {
			c.Analyze(ctx, ph, pair.SrcHash, p.Name, analyzeFn(ctx, p, pair))
		}},
		{ScopeConversion, func() {
			c.Convert(ctx, ph, pair.Key, p.Name, convertFn(ctx, abs, pair))
		}},
		{ScopeCodegen, func() {
			c.Codegen(ctx, ph, pair.Key, p.Name, optimizeFn(ctx, res.Program, pair))
		}},
	} {
		if n := testing.AllocsPerRun(100, hit.run); n != 0 {
			t.Errorf("%s memo: a hit allocated %.0f times, want 0", hit.scope, n)
		}
	}
	if s := c.Stats(); s.AnalysisMisses != 1 || s.ConversionMisses != 1 || s.CodegenMisses != 1 {
		t.Errorf("every lookup after the first should hit: %+v", s)
	}
}
