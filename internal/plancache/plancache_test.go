package plancache

import (
	"context"
	"sync"
	"testing"

	"progconv/internal/analyzer"
	"progconv/internal/convert"
	"progconv/internal/dbprog"
	"progconv/internal/fingerprint"
	"progconv/internal/obs"
	"progconv/internal/optimizer"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

func figurePlan() *xform.Plan {
	return &xform.Plan{Steps: []xform.Transformation{
		xform.IntroduceIntermediate{
			Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
			Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		},
	}}
}

func parse(t *testing.T, src string) *dbprog.Program {
	t.Helper()
	p, err := dbprog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sweepProgram navigates DIV-EMP, so the figure plan rewrites it and the
// analyzer flags its unpinned observable sweep.
const sweepProgram = `
PROGRAM NOBS DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`

// firstProgram's FIND FIRST draws a process-first warning from the
// analyzer without blocking conversion.
const firstProgram = `
PROGRAM PF DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  FIND FIRST EMP WITHIN DIV-EMP.
  GET EMP.
  PRINT EMP-NAME IN EMP.
END PROGRAM.
`

// analyzeFn, convertFn and optimizeFn are the network model's cold
// stage computations, as the supervisor hands them to the memos.
func analyzeFn(ctx context.Context, p *dbprog.Program, pair *Pair) func() *analyzer.Abstract {
	return func() *analyzer.Abstract { return analyzer.Analyze(ctx, p, pair.Src) }
}

func convertFn(ctx context.Context, abs *analyzer.Abstract, pair *Pair) func() (*convert.Result, error) {
	return func() (*convert.Result, error) { return convert.ConvertPrepared(ctx, abs, pair.Src, pair.Rewriters) }
}

func optimizeFn(ctx context.Context, converted *dbprog.Program, pair *Pair) func() (*dbprog.Program, []optimizer.Optimization) {
	return func() (*dbprog.Program, []optimizer.Optimization) {
		return optimizer.OptimizeWith(ctx, converted, pair.Target, pair.Cost)
	}
}

func TestBuildPairExplicitAndClassified(t *testing.T) {
	explicit, err := BuildPair(schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Target == nil || explicit.Paths == nil || explicit.Cost == nil ||
		len(explicit.Rewriters) == 0 || explicit.Description == "" {
		t.Errorf("incomplete pair: %+v", explicit)
	}
	if explicit.Key != fingerprint.PairKey(schema.CompanyV1(), nil, figurePlan()) {
		t.Error("pair key does not match the content key")
	}
	if got, want := explicit.Target.DDL(), explicit.Target.DDL(); got != want {
		t.Errorf("target DDL unstable: %q vs %q", got, want)
	}

	classified, err := BuildPair(schema.CompanyV1(), schema.CompanyV2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if classified.Plan == nil {
		t.Error("classified pair has no plan")
	}
	if classified.Key == explicit.Key {
		t.Error("plan-keyed and diff-keyed pairs collide")
	}
}

func TestBuildPairErrorPhase(t *testing.T) {
	bad := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameField{Record: "NOPE", Old: "X", New: "Y"},
	}}
	_, err := BuildPair(schema.CompanyV1(), nil, bad)
	if err == nil {
		t.Fatal("bad plan built")
	}
	var be *BuildError
	if !asBuildError(err, &be) {
		t.Fatalf("error %T is not a BuildError", err)
	}
	if be.Phase != PhaseApply {
		t.Errorf("phase = %q, want %q", be.Phase, PhaseApply)
	}
}

func asBuildError(err error, target **BuildError) bool {
	be, ok := err.(*BuildError)
	if ok {
		*target = be
	}
	return ok
}

func TestPairCacheHitAndStats(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	a, err := c.Pair(ctx, schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Pair(ctx, schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second lookup rebuilt the pair")
	}
	s := c.Stats()
	if s.PairHits != 1 || s.PairMisses != 1 || s.Pairs != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPairLRUEviction(t *testing.T) {
	c := New(1)
	ctx := context.Background()
	mustPair := func(plan *xform.Plan, dst *schema.Network) *Pair {
		p, err := c.Pair(ctx, schema.CompanyV1(), dst, plan)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := mustPair(figurePlan(), nil)
	mustPair(nil, schema.CompanyV2()) // evicts first
	again := mustPair(figurePlan(), nil)
	if first == again {
		t.Error("evicted pair came back identical — not rebuilt")
	}
	s := c.Stats()
	if s.PairMisses != 3 || s.PairEvictions != 2 || s.Pairs != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPairSingleflight(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	const callers = 16
	var wg sync.WaitGroup
	got := make([]*Pair, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Pair(ctx, schema.CompanyV1(), nil, figurePlan())
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different pair", i)
		}
	}
	s := c.Stats()
	if s.PairMisses != 1 {
		t.Errorf("PairMisses = %d, want exactly 1 (singleflight)", s.PairMisses)
	}
	if s.PairHits != callers-1 {
		t.Errorf("PairHits = %d, want %d", s.PairHits, callers-1)
	}
}

// trail extracts the non-cache events (the per-program observable
// stream) from a sink.
func trail(sink *obs.RingSink) []obs.Event {
	var out []obs.Event
	for _, ev := range sink.Events() {
		if ev.Kind == obs.EvCacheHit || ev.Kind == obs.EvCacheMiss || ev.Kind == obs.EvCacheEvict {
			continue
		}
		ev.Seq, ev.T = 0, 0
		out = append(out, ev)
	}
	return out
}

func sameTrail(t *testing.T, what string, cold, warm []obs.Event) {
	t.Helper()
	if len(cold) != len(warm) {
		t.Fatalf("%s: cold emitted %d events, warm %d", what, len(cold), len(warm))
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Errorf("%s event %d: cold %+v vs warm %+v", what, i, cold[i], warm[i])
		}
	}
}

func TestAnalyzeMemoReplaysHazards(t *testing.T) {
	c := New(4)
	pair, err := BuildPair(schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	p := parse(t, firstProgram)
	ph := fingerprint.Program(p)

	coldSink := obs.NewRingSink(64)
	coldCtx := obs.WithEmitter(context.Background(), obs.NewEmitter(coldSink))
	cold := c.Analyze(coldCtx, ph, pair.SrcHash, p.Name, analyzeFn(coldCtx, p, pair))
	if len(cold.Issues) == 0 {
		t.Fatal("fixture program produced no issues; replay test is vacuous")
	}

	warmSink := obs.NewRingSink(64)
	warmCtx := obs.WithEmitter(context.Background(), obs.NewEmitter(warmSink))
	warm := c.Analyze(warmCtx, ph, pair.SrcHash, p.Name, analyzeFn(warmCtx, p, pair))
	if warm != cold {
		t.Error("memo missed: analysis recomputed")
	}
	sameTrail(t, "analysis", trail(coldSink), trail(warmSink))
	s := c.Stats()
	if s.AnalysisHits != 1 || s.AnalysisMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestAnalyzeMemoIsPlanIndependent(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	figure, err := BuildPair(schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	diff, err := BuildPair(schema.CompanyV1(), schema.CompanyV2(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := parse(t, sweepProgram)
	ph := fingerprint.Program(p)
	a := c.Analyze(ctx, ph, figure.SrcHash, p.Name, analyzeFn(ctx, p, figure))
	b := c.Analyze(ctx, ph, diff.SrcHash, p.Name, analyzeFn(ctx, p, diff))
	if a != b {
		t.Error("same source schema, different plan: analysis recomputed")
	}
	if s := c.Stats(); s.AnalysisHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConvertMemoReplaysTrail(t *testing.T) {
	c := New(4)
	pair, err := BuildPair(schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	p := parse(t, sweepProgram)
	ph := fingerprint.Program(p)
	abs := analyzer.Analyze(context.Background(), p, pair.Src)

	coldSink := obs.NewRingSink(128)
	coldCtx := obs.WithEmitter(context.Background(), obs.NewEmitter(coldSink))
	cold, err := c.Convert(coldCtx, ph, pair.Key, p.Name, convertFn(coldCtx, abs, pair))
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Trail) == 0 {
		t.Fatal("fixture conversion recorded no trail; replay test is vacuous")
	}

	warmSink := obs.NewRingSink(128)
	warmCtx := obs.WithEmitter(context.Background(), obs.NewEmitter(warmSink))
	warm, err := c.Convert(warmCtx, ph, pair.Key, p.Name, convertFn(warmCtx, abs, pair))
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Error("memo missed: conversion recomputed")
	}
	sameTrail(t, "conversion", trail(coldSink), trail(warmSink))
	if s := c.Stats(); s.ConversionHits != 1 || s.ConversionMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCodegenMemo(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	pair, err := BuildPair(schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	p := parse(t, sweepProgram)
	ph := fingerprint.Program(p)
	abs := analyzer.Analyze(ctx, p, pair.Src)
	res, err := c.Convert(ctx, ph, pair.Key, p.Name, convertFn(ctx, abs, pair))
	if err != nil {
		t.Fatal(err)
	}

	prog1, opts1, gen1 := c.Codegen(ctx, ph, pair.Key, p.Name, optimizeFn(ctx, res.Program, pair))
	prog2, opts2, gen2 := c.Codegen(ctx, ph, pair.Key, p.Name, optimizeFn(ctx, res.Program, pair))
	if prog1 != prog2 || gen1 != gen2 || len(opts1) != len(opts2) {
		t.Error("codegen memo returned a different result")
	}
	if gen1 == "" || dbprog.Format(prog1) != gen1 {
		t.Errorf("generated text does not match the optimized program:\n%s", gen1)
	}
	if s := c.Stats(); s.CodegenHits != 1 || s.CodegenMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestNilCacheComputes: a nil *Cache is the uncached pipeline. Every
// lookup, in every scope and for either model, calls its compute
// function, and none emits a cache event.
func TestNilCacheComputes(t *testing.T) {
	var c *Cache
	sink := obs.NewRingSink(256)
	ctx := obs.WithEmitter(context.Background(), obs.NewEmitter(sink))
	pair, err := BuildPair(schema.CompanyV1(), nil, figurePlan())
	if err != nil {
		t.Fatal(err)
	}
	reorder := &xform.HierPlan{Steps: []xform.HierReorder{{Promote: "EMP"}}}
	p := parse(t, sweepProgram)
	ph := fingerprint.Program(p)
	var analyses, conversions, codegens int
	for i := 0; i < 2; i++ {
		a, err := c.Pair(ctx, schema.CompanyV1(), nil, figurePlan())
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Pair(ctx, schema.CompanyV1(), nil, figurePlan())
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Error("nil cache returned one pair twice: it memoized")
		}
		h1, err := c.HierPair(ctx, schema.EmpDeptHierarchy(), nil, reorder)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := c.HierPair(ctx, schema.EmpDeptHierarchy(), nil, reorder)
		if err != nil {
			t.Fatal(err)
		}
		if h1 == h2 {
			t.Error("nil cache returned one hierarchical pair twice: it memoized")
		}
		abs := c.Analyze(ctx, ph, pair.SrcHash, p.Name, func() *analyzer.Abstract {
			analyses++
			return analyzeFn(ctx, p, pair)()
		})
		res, err := c.Convert(ctx, ph, pair.Key, p.Name, func() (*convert.Result, error) {
			conversions++
			return convertFn(ctx, abs, pair)()
		})
		if err != nil {
			t.Fatal(err)
		}
		opt, _, gen := c.Codegen(ctx, ph, pair.Key, p.Name, func() (*dbprog.Program, []optimizer.Optimization) {
			codegens++
			return optimizeFn(ctx, res.Program, pair)()
		})
		if gen != dbprog.Format(opt) {
			t.Errorf("generated text does not match the optimized program:\n%s", gen)
		}
	}
	if analyses != 2 || conversions != 2 || codegens != 2 {
		t.Errorf("computes: analysis %d, conversion %d, codegen %d; want 2 each", analyses, conversions, codegens)
	}
	for _, ev := range sink.Events() {
		if ev.Kind == obs.EvCacheHit || ev.Kind == obs.EvCacheMiss || ev.Kind == obs.EvCacheEvict {
			t.Errorf("nil cache emitted %+v", ev)
		}
	}
	if len(trail(sink)) == 0 {
		t.Error("the computations emitted nothing; the event check is vacuous")
	}
}
