package core

import (
	"context"

	"progconv/internal/analyzer"
	"progconv/internal/convert"
	"progconv/internal/dbprog"
	"progconv/internal/equiv"
	"progconv/internal/fingerprint"
	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/optimizer"
	"progconv/internal/plancache"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

// The data models the supervisor can convert between. These are the
// names audits, reports, and the wire schema carry.
const (
	ModelNetwork      = "network"
	ModelHierarchical = "hierarchical"
)

// PairSpec describes one conversion pair in some data model: the
// source and target schemas, an optional explicit plan, and an optional
// database to migrate and verify against. Specs are what jobs carry;
// preparing a spec yields the ModelPair the pipeline runs on. The model
// catalogue is closed — NetworkSpec and HierSpec are the
// implementations — so the preparation hook is unexported.
type PairSpec interface {
	// Model names the spec's data model (ModelNetwork, ModelHierarchical).
	Model() string
	prepare(ctx context.Context, s *Supervisor) (ModelPair, error)
}

// ModelPair is one job's model-polymorphic pipeline: the pair-scoped
// artifacts (classified plan, target schema, rewrite rules — cached
// per content key) bound to that job's database. The supervisor drives
// every stage through this interface; everything model-specific —
// which analyzer schema, which converter, which engine the
// equivalence checker runs — lives behind it.
//
// A ModelPair is cheap and per-job: the shared cache holds only the
// immutable pair context, never the job's source or migrated database.
// Neither database changes once migration is done: the verify runs of
// read-only programs share them through views, and a program that
// writes runs on clones.
type ModelPair interface {
	// Model names the data model, as carried in audits and reports.
	Model() string
	// Key is the content-addressed pair key; key spaces of different
	// models are disjoint by fingerprint domain separation.
	Key() fingerprint.Hash
	// Description and Invertible are the plan's report-facing summary.
	Description() string
	Invertible() bool

	// attach sets the report's model-specific schema fields.
	attach(r *Report)
	// migrate restructures the job's database through the plan (a no-op
	// without one), populating the report's target-database and
	// data-plane fields and recording the index-stat baselines foldStats
	// deltas against. ctx carries the stage budget and s the shard
	// parallelism; the result is identical at any parallelism.
	migrate(ctx context.Context, s *Supervisor, r *Report) error
	// foldStats folds the run's data-plane activity into the report
	// after the batch drains.
	foldStats(r *Report)

	// The per-program stage bodies. cache may be nil (cold run); ph is
	// the program's content hash, computed only when cache is non-nil.
	analyze(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, p *dbprog.Program) *analyzer.Abstract
	convertProg(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, abs *analyzer.Abstract) (*convert.Result, error)
	// optimize refines a converted program; generated is non-empty only
	// when a cache hit already carries the rendering (the generate stage
	// then reuses it instead of re-formatting).
	optimize(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, name string, converted *dbprog.Program) (opt *dbprog.Program, applied []optimizer.Optimization, generated string)
	// verifiable reports whether a database was supplied to verify
	// automatic conversions against.
	verifiable() bool
	// verify runs source and converted programs against the original and
	// migrated databases and compares traces. When neither program
	// writes, both run on read-only views of the job's databases, which
	// every verified program of the job shares; when either writes, both
	// run on private clones.
	verify(ctx context.Context, src, converted *dbprog.Program) equiv.Verdict
}

// NetworkSpec is the CODASYL network model's PairSpec — the workload
// shape every pre-model caller of the supervisor submitted.
type NetworkSpec struct {
	// Src is the source schema and Dst the target; Dst may be nil when
	// an explicit Plan is given.
	Src, Dst *schema.Network
	// Plan, when non-nil, overrides classification of the schema diff.
	Plan *xform.Plan
	// DB, when non-nil, is migrated through the plan and used to verify
	// automatic conversions.
	DB *netstore.DB
}

// Model implements PairSpec.
func (NetworkSpec) Model() string { return ModelNetwork }

func (sp NetworkSpec) prepare(ctx context.Context, s *Supervisor) (ModelPair, error) {
	var pair *plancache.Pair
	var err error
	if s.Cache != nil {
		pair, err = s.Cache.Pair(ctx, sp.Src, sp.Dst, sp.Plan)
	} else {
		pair, err = plancache.BuildPair(sp.Src, sp.Dst, sp.Plan)
	}
	if err != nil {
		return nil, err
	}
	return &networkPair{pair: pair, srcDB: sp.DB}, nil
}

// networkPair is the network model's ModelPair: the cached pair context
// plus this job's databases and index-stat baselines.
type networkPair struct {
	pair            *plancache.Pair
	srcDB, targetDB *netstore.DB

	srcProbes, srcScans int64
	tgtProbes, tgtScans int64
}

func (np *networkPair) Model() string         { return ModelNetwork }
func (np *networkPair) Key() fingerprint.Hash { return np.pair.Key }
func (np *networkPair) Description() string   { return np.pair.Description }
func (np *networkPair) Invertible() bool      { return np.pair.Invertible }
func (np *networkPair) attach(r *Report)      { r.TargetSchema = np.pair.Target }

func (np *networkPair) migrate(ctx context.Context, s *Supervisor, r *Report) error {
	if np.srcDB == nil {
		return nil
	}
	migrated, stats, err := np.pair.Plan.Migrate(ctx, np.srcDB, xform.MigrateOptions{Parallelism: s.MigrationParallelism})
	if err != nil {
		return err
	}
	np.targetDB = migrated
	r.TargetDB = migrated
	r.DataPlane.FusedSteps = int64(stats.FusedSteps)
	r.DataPlane.StepwiseSteps = int64(stats.StepwiseSteps)
	r.DataPlane.MigrationShards = int64(stats.Shards)
	r.DataPlane.BulkLoadedRecords = int64(stats.BulkRecords)
	np.srcProbes, np.srcScans = np.srcDB.IndexStatsOf().Snapshot()
	np.tgtProbes, np.tgtScans = migrated.IndexStatsOf().Snapshot()
	return nil
}

func (np *networkPair) foldStats(r *Report) {
	// The views and clones the verify stage runs on share their origin
	// database's counters, so the deltas cover every FIND the batch
	// issued. The work per program is identical at any parallelism, so
	// the totals are deterministic.
	if np.srcDB == nil {
		return
	}
	p1, s1 := np.srcDB.IndexStatsOf().Snapshot()
	r.DataPlane.IndexProbes += p1 - np.srcProbes
	r.DataPlane.IndexScans += s1 - np.srcScans
	if np.targetDB != nil {
		p1, s1 = np.targetDB.IndexStatsOf().Snapshot()
		r.DataPlane.IndexProbes += p1 - np.tgtProbes
		r.DataPlane.IndexScans += s1 - np.tgtScans
	}
}

func (np *networkPair) analyze(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, p *dbprog.Program) *analyzer.Abstract {
	if cache != nil {
		return cache.Analyze(ctx, ph, p, np.pair)
	}
	return analyzer.Analyze(ctx, p, np.pair.Src)
}

func (np *networkPair) convertProg(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, abs *analyzer.Abstract) (*convert.Result, error) {
	if cache != nil {
		return cache.Convert(ctx, ph, abs, np.pair)
	}
	return convert.ConvertPrepared(ctx, abs, np.pair.Src, np.pair.Rewriters)
}

func (np *networkPair) optimize(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, name string, converted *dbprog.Program) (*dbprog.Program, []optimizer.Optimization, string) {
	if cache != nil {
		// One memo covers optimize and generate; the rendering is kept
		// aside for the generate stage.
		return cache.Codegen(ctx, ph, name, converted, np.pair)
	}
	opt, applied := optimizer.OptimizeWith(ctx, converted, np.pair.Target, np.pair.Cost)
	return opt, applied, ""
}

func (np *networkPair) verifiable() bool { return np.srcDB != nil }

func (np *networkPair) verify(ctx context.Context, src, converted *dbprog.Program) equiv.Verdict {
	srcDB, dstDB := np.srcDB.View(), np.targetDB.View()
	if dbprog.Writes(src) || dbprog.Writes(converted) {
		srcDB, dstDB = np.srcDB.Clone(), np.targetDB.Clone()
	}
	return equiv.Check(ctx, src, dbprog.Config{Net: srcDB}, converted, dbprog.Config{Net: dstDB})
}

// HierSpec is the hierarchical (IMS / DL/I) model's PairSpec.
type HierSpec struct {
	// Src is the source hierarchy and Dst the target; Dst may be nil
	// when an explicit Plan is given.
	Src, Dst *schema.Hierarchy
	// Plan, when non-nil, overrides classification of the hierarchy diff.
	Plan *xform.HierPlan
	// DB, when non-nil, is migrated through the plan and used to verify
	// automatic conversions.
	DB *hierstore.DB
}

// Model implements PairSpec.
func (HierSpec) Model() string { return ModelHierarchical }

func (sp HierSpec) prepare(ctx context.Context, s *Supervisor) (ModelPair, error) {
	var pair *plancache.HierPair
	var err error
	if s.Cache != nil {
		pair, err = s.Cache.HierPair(ctx, sp.Src, sp.Dst, sp.Plan)
	} else {
		pair, err = plancache.BuildHierPair(sp.Src, sp.Dst, sp.Plan)
	}
	if err != nil {
		return nil, err
	}
	return &hierPair{pair: pair, srcDB: sp.DB}, nil
}

// hierPair is the hierarchical model's ModelPair.
type hierPair struct {
	pair            *plancache.HierPair
	srcDB, targetDB *hierstore.DB
}

func (hp *hierPair) Model() string         { return ModelHierarchical }
func (hp *hierPair) Key() fingerprint.Hash { return hp.pair.Key }
func (hp *hierPair) Description() string   { return hp.pair.Description }
func (hp *hierPair) Invertible() bool      { return hp.pair.Invertible }
func (hp *hierPair) attach(r *Report)      { r.TargetHierarchy = hp.pair.Target }

func (hp *hierPair) migrate(ctx context.Context, s *Supervisor, r *Report) error {
	if hp.srcDB == nil {
		return nil
	}
	migrated, warnings, stats, err := hp.pair.Plan.Migrate(ctx, hp.srcDB, xform.MigrateOptions{Parallelism: s.MigrationParallelism})
	if err != nil {
		return err
	}
	hp.targetDB = migrated
	r.TargetHierDB = migrated
	r.MigrationWarnings = warnings
	r.DataPlane.StepwiseSteps = int64(stats.StepwiseSteps)
	r.DataPlane.MigrationShards = int64(stats.Shards)
	return nil
}

// foldStats is a no-op: the hierarchical store has no index plane.
func (hp *hierPair) foldStats(r *Report) {}

func (hp *hierPair) analyze(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, p *dbprog.Program) *analyzer.Abstract {
	if cache != nil {
		return cache.AnalyzeHier(ctx, ph, p, hp.pair)
	}
	return analyzer.Analyze(ctx, p, nil)
}

func (hp *hierPair) convertProg(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, abs *analyzer.Abstract) (*convert.Result, error) {
	if cache != nil {
		return cache.ConvertHier(ctx, ph, abs, hp.pair)
	}
	return convert.ConvertHierAnalyzed(ctx, abs, hp.pair.Src, hp.pair.Plan)
}

func (hp *hierPair) optimize(ctx context.Context, cache *plancache.Cache, ph fingerprint.Hash, name string, converted *dbprog.Program) (*dbprog.Program, []optimizer.Optimization, string) {
	// The hierarchical optimizer is an identity pass; the memo carries
	// the generated rendering only.
	if cache != nil {
		opt, gen := cache.CodegenHier(ctx, ph, name, converted, hp.pair)
		return opt, nil, gen
	}
	return converted, nil, ""
}

func (hp *hierPair) verifiable() bool { return hp.srcDB != nil }

func (hp *hierPair) verify(ctx context.Context, src, converted *dbprog.Program) equiv.Verdict {
	srcDB, dstDB := hp.srcDB.View(), hp.targetDB.View()
	if dbprog.Writes(src) || dbprog.Writes(converted) {
		srcDB, dstDB = hp.srcDB.Clone(), hp.targetDB.Clone()
	}
	return equiv.Check(ctx, src, dbprog.Config{Hier: srcDB}, converted, dbprog.Config{Hier: dstDB})
}
