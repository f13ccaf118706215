// Package plancache is the pair-scoped layer of the Figure 4.1
// pipeline, made explicit: everything the Conversion Analyzer derives
// from the schema pair alone — the classified transformation plan, the
// target schema, the composed rewrite rules, the access-path graph, and
// the optimizer's cost tables — is bundled into an immutable Pair (a
// HierPair for the hierarchical model) and memoized behind a
// content-addressed cache, so the work is paid once per pair instead of
// once per Run.
//
// The Cache also carries program-scoped memos keyed by content hash:
// analysis results by (program, source schema), conversion and
// optimize/generate results by (program, pair). Memoized results replay
// their event trails on hits, so an observed warm run emits the same
// per-program hazard and rewrite events as a cold one.
//
// Both data models take the same code path: one pair lookup serves
// Pair and HierPair, and each program-scoped memo takes the model's
// cold computation as a function. A nil *Cache is the uncached
// pipeline: it computes on every lookup, counts nothing, and emits no
// cache events.
//
// One Cache may serve many supervisors concurrently: pair builds are
// deduplicated (concurrent requests for one key share a single build),
// every layer is LRU-bounded, and all lookups are observable through
// cache-hit/miss/evict events and the progconv_cache_* counters.
// Everything a Cache hands out is treated as immutable by the pipeline;
// callers must not mutate schemas, plans, or programs after submitting
// them.
package plancache

import (
	"container/list"
	"context"

	"progconv/internal/analyzer"
	"progconv/internal/convert"
	"progconv/internal/dbprog"
	"progconv/internal/fingerprint"
	"progconv/internal/obs"
	"progconv/internal/optimizer"
	"progconv/internal/schema"
	"progconv/internal/semantic"
	"progconv/internal/xform"
	"sync"
)

// Cache scopes, as they appear in events and exported counters.
const (
	ScopePair       = "pair"
	ScopeAnalysis   = "analysis"
	ScopeConversion = "conversion"
	ScopeCodegen    = "codegen"
)

// Pair is the immutable pair-scoped context of one conversion: every
// artifact that depends only on (source schema, transformation plan).
// Workers only read it, so one Pair is safely shared by any number of
// concurrent program conversions.
type Pair struct {
	// Key is the content-addressed cache key: hash of (source schema,
	// plan) — or (source schema, target schema) when the plan is
	// classified from the schema diff.
	Key fingerprint.Hash
	// SrcHash and PlanHash fingerprint the ingredients individually
	// (analysis memos key on SrcHash alone, since analysis is
	// plan-independent).
	SrcHash  fingerprint.Hash
	PlanHash fingerprint.Hash

	Src    *schema.Network
	Plan   *xform.Plan
	Target *schema.Network
	// Description and Invertible are the plan's report-facing summary,
	// rendered once.
	Description string
	Invertible  bool
	// Rewriters are the plan's composed rewrite rules over Src.
	Rewriters []*xform.Rewriter
	// Paths is the target schema's precomputed access-path graph and
	// Cost the optimizer's cost table derived from it.
	Paths *semantic.PathGraph
	Cost  *optimizer.CostTable
}

// Phases a pair build can fail in.
const (
	PhaseClassify  = "classify"
	PhaseApply     = "apply-schema"
	PhaseRewriters = "rewriters"
)

// BuildError attributes a pair-build failure to its pipeline phase, so
// the supervisor can keep its historical per-phase error wrapping. It
// is transparent: Error and Unwrap defer to the underlying cause.
type BuildError struct {
	Phase string
	Err   error
}

func (e *BuildError) Error() string { return e.Err.Error() }
func (e *BuildError) Unwrap() error { return e.Err }

// BuildPair computes every pair-scoped artifact cold, with no cache. A
// nil plan is classified from the (src, dst) schema diff first.
func BuildPair(src, dst *schema.Network, plan *xform.Plan) (*Pair, error) {
	key := fingerprint.PairKey(src, dst, plan)
	if plan == nil {
		p, err := xform.Classify(src, dst)
		if err != nil {
			return nil, &BuildError{Phase: PhaseClassify, Err: err}
		}
		plan = p
	}
	target, err := plan.ApplySchema(src)
	if err != nil {
		return nil, &BuildError{Phase: PhaseApply, Err: err}
	}
	rewriters, err := plan.Rewriters(src)
	if err != nil {
		return nil, &BuildError{Phase: PhaseRewriters, Err: err}
	}
	paths := semantic.NewPathGraph(target)
	return &Pair{
		Key:         key,
		SrcHash:     fingerprint.Schema(src),
		PlanHash:    fingerprint.Plan(plan),
		Src:         src,
		Plan:        plan,
		Target:      target,
		Description: plan.Describe(),
		Invertible:  plan.Invertible(),
		Rewriters:   rewriters,
		Paths:       paths,
		Cost:        optimizer.NewCostTable(target, paths),
	}, nil
}

// Stats are the cache's cumulative counters plus current sizes. A
// joined in-flight build counts as a hit: the caller did not pay for
// the build.
type Stats struct {
	PairHits, PairMisses, PairEvictions                   int64
	AnalysisHits, AnalysisMisses, AnalysisEvictions       int64
	ConversionHits, ConversionMisses, ConversionEvictions int64
	CodegenHits, CodegenMisses, CodegenEvictions          int64
	// Pairs and Memos are the current entry counts (memos across all
	// three program-scoped layers).
	Pairs, Memos int
}

// Entries is the total number of live cache entries across every
// scope — the figure the telemetry plane exports as a size gauge.
func (s Stats) Entries() int { return s.Pairs + s.Memos }

// Cache is the shared, concurrency-safe conversion cache. The zero
// value is not usable; construct with New. A nil *Cache is the
// uncached pipeline: every lookup computes, counts nothing and emits
// no cache event.
type Cache struct {
	mu      sync.Mutex
	pairs   layer
	memos   [3]layer // indexed by analysisMemo, conversionMemo, codegenMemo
	flights map[fingerprint.Hash]*flight
}

// entryKey identifies a cache entry: a program-scoped memo by the program's
// hash and the hash of the scope it was computed in (the source schema
// or the pair), a pair by its pair key alone, as scope. A struct of the
// two compares and hashes in place, so a lookup builds no key string.
type entryKey struct{ prog, scope fingerprint.Hash }

// The program-scoped layers, as indexes into Cache.memos.
const (
	analysisMemo = iota
	conversionMemo
	codegenMemo
)

// flight is one in-progress pair build; joiners wait on done. val is
// the model's pair type (*Pair or *HierPair) — pair keys are
// domain-separated by model, so one flight map serves both without
// ambiguity.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a cache retaining up to maxPairs pair contexts (<= 0
// means 64). The program-scoped memo layers are each bounded at 512
// entries per retained pair, floored at 4096 — roomy enough that pair
// eviction, not memo pressure, is the working-set limit.
func New(maxPairs int) *Cache {
	if maxPairs <= 0 {
		maxPairs = 64
	}
	memoCap := maxPairs * 512
	if memoCap < 4096 {
		memoCap = 4096
	}
	return &Cache{
		pairs: newLayer(ScopePair, maxPairs),
		memos: [...]layer{
			analysisMemo:   newLayer(ScopeAnalysis, memoCap),
			conversionMemo: newLayer(ScopeConversion, memoCap),
			codegenMemo:    newLayer(ScopeCodegen, memoCap),
		},
		flights: map[fingerprint.Hash]*flight{},
	}
}

// Stats returns a snapshot of the counters and sizes.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, a, v, g := &c.pairs, &c.memos[analysisMemo], &c.memos[conversionMemo], &c.memos[codegenMemo]
	return Stats{
		PairHits: p.hits, PairMisses: p.misses, PairEvictions: p.evictions,
		AnalysisHits: a.hits, AnalysisMisses: a.misses, AnalysisEvictions: a.evictions,
		ConversionHits: v.hits, ConversionMisses: v.misses, ConversionEvictions: v.evictions,
		CodegenHits: g.hits, CodegenMisses: g.misses, CodegenEvictions: g.evictions,
		Pairs: p.len(),
		Memos: a.len() + v.len() + g.len(),
	}
}

// Pair returns the network pair context for (src, dst, plan), building
// it at most once per content key across all concurrent callers and
// retaining up to maxPairs contexts LRU. Build errors are returned to
// every waiter but never cached. Cache events go to the ctx emitter. A
// nil cache builds the pair.
func (c *Cache) Pair(ctx context.Context, src, dst *schema.Network, plan *xform.Plan) (*Pair, error) {
	return lookupPair(ctx, c, func() fingerprint.Hash { return fingerprint.PairKey(src, dst, plan) },
		func() (*Pair, error) { return BuildPair(src, dst, plan) })
}

// HierPair is Pair for a hierarchical (src, dst, plan). Both models
// share one pair store and flight map; their key spaces are disjoint
// by fingerprint domain separation.
func (c *Cache) HierPair(ctx context.Context, src, dst *schema.Hierarchy, plan *xform.HierPlan) (*HierPair, error) {
	return lookupPair(ctx, c, func() fingerprint.Hash { return fingerprint.HierPairKey(src, dst, plan) },
		func() (*HierPair, error) { return BuildHierPair(src, dst, plan) })
}

// lookupPair is the pair layer's lookup for either model. The key is
// computed only when there is a cache to probe, so an uncached build
// hashes nothing beyond what the builder itself does.
func lookupPair[P any](ctx context.Context, c *Cache, key func() fingerprint.Hash, build func() (P, error)) (P, error) {
	if c == nil {
		return build()
	}
	k := key()
	em := obs.EmitterFrom(ctx)
	c.mu.Lock()
	if v, ok := c.pairs.get(entryKey{scope: k}); ok {
		c.pairs.hits++
		c.mu.Unlock()
		em.CacheHit("", ScopePair, k.Short())
		return v.(P), nil
	}
	if f, ok := c.flights[k]; ok {
		c.pairs.hits++
		c.mu.Unlock()
		em.CacheHit("", ScopePair, k.Short())
		select {
		case <-f.done:
			// The builder set val before closing done; on a failed
			// build it holds the builder's typed nil.
			return f.val.(P), f.err
		case <-ctx.Done():
			var zero P
			return zero, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.pairs.misses++
	c.mu.Unlock()
	em.CacheMiss("", ScopePair, k.Short())

	pair, err := build()
	f.val, f.err = pair, err

	// Removing the flight and inserting the entry under one mutex hold
	// means a racing caller sees one or the other: exactly one miss per
	// key.
	c.mu.Lock()
	delete(c.flights, k)
	var evicted entryKey
	if err == nil {
		evicted = c.pairs.add(entryKey{scope: k}, pair)
	}
	c.mu.Unlock()
	close(f.done)
	if evicted != (entryKey{}) {
		em.CacheEvict(ScopePair, evicted.scope.Short())
	}
	return pair, err
}

// Analyze returns the Program Analyzer's result for the program named
// name, computed by analyze and memoized by (program hash, source-schema
// hash) — analysis is plan-independent, so one entry serves every plan
// over a source schema. On a hit the analyzer's hazard events are
// replayed from the memoized findings, so the observed per-program
// stream matches a cold analysis. A result computed under a done ctx
// may be partial and is never memoized.
func (c *Cache) Analyze(ctx context.Context, prog, src fingerprint.Hash, name string, analyze func() *analyzer.Abstract) *analyzer.Abstract {
	abs, _ := memo(ctx, c, analysisMemo, prog, src, name,
		func() (*analyzer.Abstract, error) { return analyze(), nil },
		func(em *obs.Emitter, abs *analyzer.Abstract) {
			for _, is := range abs.Issues {
				em.Hazard(name, is.Kind.String(), is.Msg)
			}
		})
	return abs
}

// Convert returns the Program Converter's result, computed by
// convertProg and memoized by (program hash, pair key). On a hit the
// converter's hazards and rewrites are replayed from the result's
// trail. Errors and results computed under a done ctx are never
// memoized.
func (c *Cache) Convert(ctx context.Context, prog, pair fingerprint.Hash, name string, convertProg func() (*convert.Result, error)) (*convert.Result, error) {
	return memo(ctx, c, conversionMemo, prog, pair, name, convertProg,
		func(em *obs.Emitter, res *convert.Result) {
			for _, t := range res.Trail {
				if t.Rewrite {
					em.Rewrite(name, t.Label, t.Detail)
				} else {
					em.Hazard(name, t.Label, t.Detail)
				}
			}
		})
}

// codegen is one memoized optimize+generate result.
type codegen struct {
	prog      *dbprog.Program
	applied   []optimizer.Optimization
	generated string
}

// Codegen returns the Optimizer's refinement (computed by optimize) of
// a converted program and the Program Generator's rendering of it,
// memoized by (program hash, pair key); the program must be the pair's
// conversion of that program, which is itself content-determined,
// making the key sound. A result computed under a done ctx may be
// unrefined and is never memoized.
func (c *Cache) Codegen(ctx context.Context, prog, pair fingerprint.Hash, name string,
	optimize func() (*dbprog.Program, []optimizer.Optimization)) (*dbprog.Program, []optimizer.Optimization, string) {
	cg, _ := memo(ctx, c, codegenMemo, prog, pair, name, func() (codegen, error) {
		opt, applied := optimize()
		return codegen{prog: opt, applied: applied, generated: dbprog.Format(opt)}, nil
	}, nil)
	return cg.prog, cg.applied, cg.generated
}

// memo is the one lookup body of the program-scoped layers, keyed by
// (program hash, scope hash). A hit returns the memoized value and
// passes it to replay, which re-emits the events its computation
// emitted; a miss computes it and memoizes it unless compute failed or
// ctx ended first. A nil cache only computes.
func memo[T any](ctx context.Context, c *Cache, which int, prog, scopeKey fingerprint.Hash, name string,
	compute func() (T, error), replay func(*obs.Emitter, T)) (T, error) {
	if c == nil {
		return compute()
	}
	l := &c.memos[which]
	k := entryKey{prog, scopeKey}
	em := obs.EmitterFrom(ctx)
	c.mu.Lock()
	if v, ok := l.get(k); ok {
		l.hits++
		c.mu.Unlock()
		em.CacheHit(name, l.scope, prog.Short())
		if replay != nil {
			replay(em, v.(T))
		}
		return v.(T), nil
	}
	l.misses++
	c.mu.Unlock()
	em.CacheMiss(name, l.scope, prog.Short())

	val, err := compute()
	if err != nil || ctx.Err() != nil {
		return val, err
	}
	// Losing a concurrent insert race for the same key is harmless:
	// both values are content-determined, so either copy answers
	// future hits.
	c.mu.Lock()
	evicted := l.add(k, val)
	c.mu.Unlock()
	if evicted != (entryKey{}) {
		em.CacheEvict(l.scope, evicted.prog.Short())
	}
	return val, nil
}

// layer is one cache scope: a minimal LRU map (container/list for
// recency, at most one eviction per insert) and its counters. Callers
// hold the cache mutex.
type layer struct {
	scope                   string
	cap                     int
	ll                      *list.List
	idx                     map[entryKey]*list.Element
	hits, misses, evictions int64
}

type lruEntry struct {
	key entryKey
	val any
}

func newLayer(scope string, capacity int) layer {
	return layer{scope: scope, cap: capacity, ll: list.New(), idx: map[entryKey]*list.Element{}}
}

func (l *layer) len() int { return l.ll.Len() }

func (l *layer) get(k entryKey) (any, bool) {
	el, ok := l.idx[k]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts (or refreshes) k and returns the key the bound forced
// out, counting the eviction, or the zero key when none was.
func (l *layer) add(k entryKey, v any) (evicted entryKey) {
	if el, ok := l.idx[k]; ok {
		el.Value.(*lruEntry).val = v
		l.ll.MoveToFront(el)
		return entryKey{}
	}
	l.idx[k] = l.ll.PushFront(&lruEntry{key: k, val: v})
	if l.ll.Len() <= l.cap {
		return entryKey{}
	}
	oldest := l.ll.Back()
	ent := oldest.Value.(*lruEntry)
	l.ll.Remove(oldest)
	delete(l.idx, ent.key)
	l.evictions++
	return ent.key
}
