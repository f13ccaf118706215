package progconv

// One benchmark per experiment in EXPERIMENTS.md (the paper has no
// measured tables; each benchmark backs the synthetic experiment that
// reproduces a figure, worked example, or quantitative claim — see
// DESIGN.md §3). Run:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"progconv/internal/analyzer"
	"progconv/internal/bridge"
	"progconv/internal/constraint"
	"progconv/internal/convert"
	"progconv/internal/core"
	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/emulate"
	"progconv/internal/generator"
	"progconv/internal/hierstore"
	"progconv/internal/mdml"
	"progconv/internal/netstore"
	"progconv/internal/optimizer"
	"progconv/internal/plancache"
	"progconv/internal/relstore"
	"progconv/internal/schema"
	"progconv/internal/semantic"
	"progconv/internal/sequel"
	"progconv/internal/telemetry"
	"progconv/internal/value"
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

func mustParse(b *testing.B, src string) *dbprog.Program {
	b.Helper()
	p, err := dbprog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkSchoolConstraints backs EXP-F3.1: evaluating the §3.1 rules
// (existence, uniqueness, the twice-per-year limit) over a populated
// school database.
func BenchmarkSchoolConstraints(b *testing.B) {
	db := relstore.NewDB(schema.SchoolRelational())
	for c := 0; c < 50; c++ {
		db.Insert("COURSE", value.FromPairs("CNO", fmt.Sprintf("C%03d", c), "CNAME", "X"))
	}
	for s := 0; s < 12; s++ {
		db.Insert("SEMESTER", value.FromPairs("S", fmt.Sprintf("S%02d", s), "YEAR", 1975+s/3))
	}
	for c := 0; c < 50; c++ {
		for s := 0; s < 4; s++ {
			db.Insert("COURSE-OFFERING", value.FromPairs(
				"CNO", fmt.Sprintf("C%03d", c), "S", fmt.Sprintf("S%02d", (c+s*3)%12), "INSTRUCTOR", "T"))
		}
	}
	rules := constraint.SchoolRules()
	inst := constraint.FromRelational(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		constraint.CheckAll(rules, inst)
	}
}

// BenchmarkPipeline backs EXP-F4.1: the full supervisor run (classify,
// migrate, convert, optimize, verify) over a small application system.
// The supervisor's worker pool defaults to GOMAXPROCS, so
//
//	go test -bench=Pipeline -cpu 1,4,8
//
// measures the batch engine's scaling directly.
func BenchmarkPipeline(b *testing.B) {
	progs := []*dbprog.Program{
		mustParse(b, `
PROGRAM LIST-OLD DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO OLD.
  FOR EACH E IN OLD
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
END PROGRAM.
`),
		mustParse(b, `
PROGRAM COUNT DIALECT NETWORK.
  LET N = 0.
  MOVE 'DIV-00' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      LET N = N + 1.
    END-IF.
  END-PERFORM.
  PRINT N.
END PROGRAM.
`),
	}
	db := corpus.Database(corpus.Profile{Seed: 1, Divisions: 2, DeptsPerDiv: 2, EmpsPerDept: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sup := core.NewSupervisor()
		if _, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, db.Clone(), progs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvert backs EXP-O1: the full end-to-end conversion the
// daemon runs per job — analyze through verify against a populated
// source database — with no telemetry installed. This is the baseline
// the instrumented variant is compared to.
func BenchmarkConvert(b *testing.B) {
	progs, db := convertBenchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(),
			nil, progs, WithParallelism(1), WithVerifyDB(db.Clone())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvertTraced is the same conversion wired the way
// internal/serve wires every job: stage timing (WithMetrics), an event
// log retaining every event (the daemon's per-job hub), the counter
// tally and the stage-latency sink. The daemon builds no span tree
// while a job runs — it folds the retained events when the trace is
// read — so no trace builder is installed. EXP-O1's target is <3%
// overhead over BenchmarkConvert.
func BenchmarkConvertTraced(b *testing.B) {
	progs, db := convertBenchWorkload(b)
	reg := telemetry.NewRegistry()
	tally := NewTally()
	reg.Tally(tally)
	inst := telemetry.NewInstruments(reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(),
			nil, progs, WithParallelism(1), WithVerifyDB(db.Clone()), WithMetrics(),
			WithEventSink(MultiSink(&eventLog{}, tally, inst.StageSink())))
		if err != nil {
			b.Fatal(err)
		}
		tally.AddDataPlane(report.DataPlane)
		inst.ObserveDataPlane(report.DataPlane)
	}
}

// eventLog retains every event, as the daemon's per-job hub does.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) Emit(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// convertBenchWorkload is the Figure 4.3 job set with a populated
// corpus database for verification — the shape of a real daemon job.
func convertBenchWorkload(b *testing.B) ([]*Program, *netstore.DB) {
	progs := []*Program{
		mustParse(b, `
PROGRAM LIST-OLD DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO OLD.
  FOR EACH E IN OLD
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
END PROGRAM.
`),
		mustParse(b, `
PROGRAM ROSTER DIALECT NETWORK.
  MOVE 'DIV-00' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`),
	}
	db := corpus.Database(corpus.Profile{Seed: 1, Divisions: 4, DeptsPerDiv: 3, EmpsPerDept: 6})
	return progs, db
}

// BenchmarkMarylandFind backs EXP-F4.3: evaluating the paper's §4.2 FIND
// examples against the Figure 4.2 database.
func BenchmarkMarylandFind(b *testing.B) {
	db := corpus.Database(corpus.Profile{Seed: 1, Divisions: 6, DeptsPerDiv: 4, EmpsPerDept: 10})
	ev := mdml.NewEvaluator(db)
	f, err := mdml.ParseFind("FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindConversion backs EXP-F4.4: converting the paper's FIND
// programs across the Figure 4.2→4.4 restructuring.
func BenchmarkFindConversion(b *testing.B) {
	p := mustParse(b, `
PROGRAM EX2 DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES')) INTO C.
  FOR EACH E IN C
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	src := schema.CompanyV1()
	plan := figurePlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := convert.Convert(context.Background(), p, src, plan)
		if err != nil || !res.Auto {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessPatternDerivation backs EXP-S4.1a: deriving the §4.1
// access-pattern sequence from the nested query.
func BenchmarkAccessPatternDerivation(b *testing.B) {
	q, err := sequel.ParseQuery(`
SELECT ENAME FROM EMP WHERE E# IN
  (SELECT E# FROM EMP-DEPT WHERE YEAR-OF-SERVICE > 10 AND D# IN
    (SELECT D# FROM DEPT WHERE MGR = 'SMITH'))`)
	if err != nil {
		b.Fatal(err)
	}
	sem := semantic.PersonnelSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.DeriveSequence(context.Background(), q, sem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemplateSynthesis backs EXP-S4.1b: realizing one sequence as
// SEQUEL and as a CODASYL program.
func BenchmarkTemplateSynthesis(b *testing.B) {
	sem := semantic.PersonnelSchema()
	seq := semantic.SmithQuery()
	bind := generator.Binding{
		{Field: "MGR", Op: "=", V: value.Str("SMITH")},
		{Field: "YEAR-OF-SERVICE", Op: ">", V: value.Of(10)},
	}
	net := schema.EmpDeptNetwork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generator.ToSequel(context.Background(), seq, sem, bind, []string{"ENAME"}); err != nil {
			b.Fatal(err)
		}
		if _, err := generator.ToNetworkProgram(context.Background(), "B", seq, sem, net, bind, []string{"ENAME"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusConversion backs EXP-C1: the supervisor over the
// 100-program period-realistic inventory. Like BenchmarkPipeline it
// inherits the pool size from GOMAXPROCS; run with -cpu 1,4,8 to see
// the throughput scaling of the concurrent batch engine.
func BenchmarkCorpusConversion(b *testing.B) {
	members, err := corpus.Programs(corpus.PeriodProfile(42))
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]*dbprog.Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	src := schema.CompanyV1()
	plan := figurePlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sup := core.NewSupervisor()
		if _, err := sup.Run(context.Background(), src, nil, plan, nil, progs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedReconversion backs EXP-C5: re-converting the EXP-C1
// corpus with a shared conversion cache, cold (fresh cache every
// iteration) vs warm (cache primed once), across cache sizes.
func BenchmarkCachedReconversion(b *testing.B) {
	members, err := corpus.Programs(corpus.PeriodProfile(42))
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]*dbprog.Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	src := schema.CompanyV1()
	plan := figurePlan()
	run := func(b *testing.B, cache *plancache.Cache) {
		sup := core.NewSupervisor()
		sup.Cache = cache
		if _, err := sup.Run(context.Background(), src, nil, plan, nil, progs); err != nil {
			b.Fatal(err)
		}
	}
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("cold/pairs=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, plancache.New(size))
			}
		})
		b.Run(fmt.Sprintf("warm/pairs=%d", size), func(b *testing.B) {
			cache := plancache.New(size)
			run(b, cache) // prime
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(b, cache)
			}
		})
	}
}

// BenchmarkStrategies backs EXP-C2: the same department query through the
// rewrite, emulation and bridge strategies against the restructured
// database.
func BenchmarkStrategies(b *testing.B) {
	prof := corpus.Profile{Seed: 42, Divisions: 8, DeptsPerDiv: 6, EmpsPerDept: 12}
	src := corpus.Database(prof)
	plan := figurePlan()
	target, _, err := plan.Migrate(context.Background(), src, xform.MigrateOptions{})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("Rewrite", func(b *testing.B) {
		ev := mdml.NewEvaluator(target)
		f, _ := mdml.ParseFind(
			"FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'DIV-03'), DIV-DEPT, DEPT(DEPT-NAME = 'D-02'), DEPT-EMP, EMP)")
		for i := 0; i < b.N; i++ {
			ids, err := ev.Eval(f)
			if err != nil {
				b.Fatal(err)
			}
			_ = ev.Records(ids)
		}
	})
	b.Run("Emulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			em, err := emulate.NewSession(src.Schema(), target, plan)
			if err != nil {
				b.Fatal(err)
			}
			em.FindAny("DIV", value.FromPairs("DIV-NAME", "DIV-03"))
			match := value.FromPairs("DEPT-NAME", "D-02")
			st, err := em.FindInSet("DIV-EMP", netstore.First, match)
			for err == nil && st == netstore.OK {
				if _, _, gerr := em.Get("EMP"); gerr != nil {
					b.Fatal(gerr)
				}
				st, err = em.FindInSet("DIV-EMP", netstore.Next, match)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	sweep := func(db *netstore.DB) {
		s := netstore.NewSession(db)
		s.FindAny("DIV", value.FromPairs("DIV-NAME", "DIV-03"))
		match := value.FromPairs("DEPT-NAME", "D-02")
		st, _ := s.FindInSet("DIV-EMP", netstore.First, match)
		for st == netstore.OK {
			s.Get("EMP")
			st, _ = s.FindInSet("DIV-EMP", netstore.Next, match)
		}
	}
	b.Run("BridgeCold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			br, err := bridge.New(src.Schema(), target, plan)
			if err != nil {
				b.Fatal(err)
			}
			recon, err := br.Reconstruct()
			if err != nil {
				b.Fatal(err)
			}
			sweep(recon)
		}
	})
	b.Run("BridgeWarm", func(b *testing.B) {
		br, err := bridge.New(src.Schema(), target, plan)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recon, err := br.Reconstruct()
			if err != nil {
				b.Fatal(err)
			}
			sweep(recon)
		}
	})
}

// BenchmarkHierReorder backs EXP-C3: the Mehl & Wang order transformation
// and the command-substitution overhead.
func BenchmarkHierReorder(b *testing.B) {
	db := hierstore.NewDB(schema.EmpDeptHierarchy())
	s := hierstore.NewSession(db)
	for d := 0; d < 8; d++ {
		s.ISRT(value.FromPairs("D#", fmt.Sprintf("D%02d", d), "DNAME", "X", "MGR", "M"),
			hierstore.U("DEPT"))
		for e := 0; e < 10; e++ {
			s.ISRT(value.FromPairs("E#", fmt.Sprintf("E%02d-%02d", d, e), "ENAME", "N",
				"AGE", 20+e, "YEAR-OF-SERVICE", e),
				hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str(fmt.Sprintf("D%02d", d))),
				hierstore.U("EMP"))
		}
	}
	tr := xform.HierReorder{Promote: "EMP"}
	plan := &xform.HierPlan{Steps: []xform.HierReorder{tr}}
	ctx := context.Background()
	b.Run("Migrate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := plan.Migrate(ctx, db, xform.MigrateOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	dst, _, _, err := plan.Migrate(ctx, db, xform.MigrateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	path := []hierstore.SSA{
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D04")),
		hierstore.Q("EMP", "YEAR-OF-SERVICE", hierstore.EQ, value.Of(5)),
	}
	b.Run("NativeGU", func(b *testing.B) {
		sess := hierstore.NewSession(db)
		for i := 0; i < b.N; i++ {
			if _, st := sess.GU(path...); st != hierstore.OK {
				b.Fatal(st)
			}
		}
	})
	b.Run("SubstitutedGU", func(b *testing.B) {
		sess := hierstore.NewSession(dst)
		for i := 0; i < b.N; i++ {
			if _, st := tr.EmulateGU(sess, "DEPT", path); st != hierstore.OK {
				b.Fatal(st)
			}
		}
	})
}

// BenchmarkIndexedFind backs EXP-C6: exact-key FIND ANY over 1000
// employees with the keyed record indexes on vs off. The match shape
// (EMP-NAME alone) is exactly the DIV-EMP set key, so the indexed run
// answers with a probe; the scan run walks byType order until the hit.
func BenchmarkIndexedFind(b *testing.B) {
	db := corpus.Database(corpus.Profile{Seed: 7, Divisions: 10, DeptsPerDiv: 10, EmpsPerDept: 10})
	match := value.FromPairs("EMP-NAME", "E-00500")
	run := func(b *testing.B) {
		b.Helper()
		b.ReportAllocs()
		s := netstore.NewSession(db)
		b.ResetTimer() // SetIndexing(true) rebuilt every index: leave that out
		for i := 0; i < b.N; i++ {
			st, err := s.FindAny("EMP", match)
			if err != nil || st != netstore.OK {
				b.Fatal(st, err)
			}
		}
	}
	b.Run("Indexed", func(b *testing.B) { db.SetIndexing(true); run(b) })
	b.Run("Scan", func(b *testing.B) { db.SetIndexing(false); run(b) })
	db.SetIndexing(true)
}

// BenchmarkParallelMigration backs EXP-C7: a four-step plan of
// per-record mapping steps over a 1000-employee database, composed into
// one sharded bulk-load pass at 1, 2 and 8 shard workers. The output is
// byte-identical at every setting; what changes is wall-clock (with
// cores to spend).
func BenchmarkParallelMigration(b *testing.B) {
	db := corpus.Database(corpus.Profile{Seed: 7, Divisions: 8, DeptsPerDiv: 5, EmpsPerDept: 25})
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameRecord{Old: "EMP", New: "EMPLOYEE"},
		xform.RenameField{Record: "DIV", Old: "DIV-LOC", New: "LOCATION"},
		xform.AddField{Record: "EMPLOYEE", Field: "STATUS", Kind: value.String, Default: value.Str("ACTIVE")},
		xform.RenameSet{Old: "DIV-EMP", New: "DIV-EMPLOYEE"},
	}}
	ctx := context.Background()
	for _, par := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("Parallel%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.Migrate(ctx, db, xform.MigrateOptions{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntermediateMigration backs EXP-C7's structural rows: the
// classified Figure 4.2→4.4 plan (introduce-intermediate) and its
// inverse (collapse-intermediate) over a 1,005-record database, each one
// pass through the same sharded engine as the mapping steps.
func BenchmarkIntermediateMigration(b *testing.B) {
	db := corpus.Database(corpus.Profile{Seed: 1, Divisions: 5, DeptsPerDiv: 4, EmpsPerDept: 50})
	plan, err := xform.Classify(schema.CompanyV1(), schema.CompanyV2())
	if err != nil {
		b.Fatal(err)
	}
	inv, err := plan.InversePlan(schema.CompanyV1())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	v2, _, err := plan.Migrate(ctx, db, xform.MigrateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		plan *xform.Plan
		src  *netstore.DB
	}{{"Introduce", plan, db}, {"Collapse", inv, v2}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.plan.Migrate(ctx, c.src, xform.MigrateOptions{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInvertibility backs EXP-C4: auditing and inverting a plan.
func BenchmarkInvertibility(b *testing.B) {
	src := schema.CompanyV1()
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
		xform.IntroduceIntermediate{Set: "DIV-EMP", Inter: "DEPT",
			GroupField: "DEPT-NAME", Upper: "DIV-DEPT", Lower: "DEPT-EMP"},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.InversePlan(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHazardDetection backs EXP-H1: the Program Analyzer over the
// labelled corpus.
func BenchmarkHazardDetection(b *testing.B) {
	members, err := corpus.Programs(corpus.PeriodProfile(42))
	if err != nil {
		b.Fatal(err)
	}
	net := schema.CompanyV1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range members {
			analyzer.Analyze(context.Background(), m.Program, net)
		}
	}
}

// BenchmarkOptimizer measures the Figure 4.1 Optimizer's refinements
// (ablation support: run with and without to see the access-path effect).
func BenchmarkOptimizer(b *testing.B) {
	p := mustParse(b, `
PROGRAM QP DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-DEPT, DEPT, DEPT-EMP, EMP(DIV-NAME = 'DIV-01')) INTO C.
  FOR EACH E IN C
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.
`)
	v2 := schema.CompanyV2()
	b.Run("Optimize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimizer.Optimize(context.Background(), p, v2)
		}
	})
	// Ablation: executing the unoptimized vs optimized query.
	db := netstore.NewDB(schema.CompanyV2())
	s := netstore.NewSession(db)
	for d := 0; d < 12; d++ {
		s.Store("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%02d", d), "DIV-LOC", "X"))
		for dep := 0; dep < 6; dep++ {
			s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%02d", d)))
			s.Store("DEPT", value.FromPairs("DEPT-NAME", fmt.Sprintf("D-%02d", dep)))
			for e := 0; e < 8; e++ {
				s.Store("EMP", value.FromPairs(
					"EMP-NAME", fmt.Sprintf("E-%02d-%02d-%02d", d, dep, e), "AGE", 30))
			}
		}
	}
	run := func(b *testing.B, prog *dbprog.Program) {
		b.Helper()
		stmt := prog.Stmts[0].(dbprog.MFind)
		ev := mdml.NewEvaluator(db)
		for i := 0; i < b.N; i++ {
			var err error
			if stmt.Sort != nil {
				_, err = ev.EvalSort(stmt.Sort)
			} else {
				_, err = ev.Eval(stmt.Find)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	opt, _ := optimizer.Optimize(context.Background(), p, v2)
	b.Run("ExecUnoptimized", func(b *testing.B) { run(b, p) })
	b.Run("ExecOptimized", func(b *testing.B) { run(b, opt) })
}
