// Command exper regenerates the paper-shape experiments in
// EXPERIMENTS.md: the paper's figures and worked examples (EXP-F*,
// EXP-S4.1*), its quantitative claims (EXP-C1 to C4), the
// hazard-detector audit (EXP-H1), the resilience demonstration (EXP-R1)
// and the §2.2 study end to end (EXP-M1). Performance claims are
// measured by bench/ and the testing.B benchmarks instead. Run with no
// arguments for all experiments, or name them:
//
//	exper [f3.1] [f4.1] [f4.3] [f4.4] [s4.1a] [s4.1b] [c1] [c2] [c3] [c4] [h1] [r1] [m1]
//
// A failed experiment exits 1.
package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"progconv"
	"progconv/internal/analyzer"
	"progconv/internal/bridge"
	"progconv/internal/constraint"
	"progconv/internal/convert"
	"progconv/internal/core"
	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/emulate"
	"progconv/internal/equiv"
	"progconv/internal/fault"
	"progconv/internal/generator"
	"progconv/internal/hierstore"
	"progconv/internal/mdml"
	"progconv/internal/netstore"
	"progconv/internal/obs"
	"progconv/internal/optimizer"
	"progconv/internal/relstore"
	"progconv/internal/schema"
	"progconv/internal/schema/ddl"
	"progconv/internal/semantic"
	"progconv/internal/sequel"
	"progconv/internal/value"
	"progconv/internal/wire"
	"progconv/internal/xform"
)

func main() {
	all := map[string]func(){
		"f3.1": expF31, "f4.1": expF41, "f4.3": expF43, "f4.4": expF44,
		"s4.1a": expS41a, "s4.1b": expS41b,
		"c1": expC1, "c2": expC2, "c3": expC3, "c4": expC4,
		"h1": expH1, "r1": expR1, "m1": expM1,
	}
	order := []string{"f3.1", "f4.1", "f4.3", "f4.4", "s4.1a", "s4.1b", "c1", "c2", "c3", "c4", "h1", "r1", "m1"}
	args := os.Args[1:]
	if len(args) == 0 {
		args = order
	}
	for _, a := range args {
		fn, ok := all[strings.ToLower(a)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; know %v\n", a, order)
			os.Exit(int(wire.ExitUsage))
		}
		fn()
	}
}

// must ends the run with exit code 1 when err is not nil, so a failed
// experiment cannot pass for a printed table.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "exper:", err)
		os.Exit(int(wire.ExitError))
	}
}

func banner(id, title string) {
	fmt.Printf("\n========================================================================\n")
	fmt.Printf("%s — %s\n", id, title)
	fmt.Printf("========================================================================\n")
}

func figurePlan() *xform.Plan {
	return &xform.Plan{Steps: []xform.Transformation{
		xform.IntroduceIntermediate{
			Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
			Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		},
	}}
}

func companyV1DB() *netstore.DB {
	db := netstore.NewDB(schema.CompanyV1())
	s := netstore.NewSession(db)
	for _, d := range []struct{ n, l string }{{"MACHINERY", "DETROIT"}, {"TEXTILES", "ATLANTA"}} {
		s.Store("DIV", value.FromPairs("DIV-NAME", d.n, "DIV-LOC", d.l))
	}
	for _, e := range []struct {
		div, name, dept string
		age             int
	}{
		{"MACHINERY", "ADAMS", "SALES", 45},
		{"MACHINERY", "BAKER", "SALES", 28},
		{"MACHINERY", "CLARK", "WELDING", 33},
		{"TEXTILES", "DAVIS", "SALES", 51},
	} {
		s.FindAny("DIV", value.FromPairs("DIV-NAME", e.div))
		s.Store("EMP", value.FromPairs("EMP-NAME", e.name, "DEPT-NAME", e.dept, "AGE", e.age))
	}
	return db
}

// ---- EXP-F3.1 ----

func expF31() {
	banner("EXP-F3.1", "Figure 3.1 school database: what each model can and cannot enforce")
	rel := relstore.NewDB(schema.SchoolRelational())
	rel.Insert("COURSE", value.FromPairs("CNO", "CS101", "CNAME", "Intro"))
	for _, s := range []struct {
		sem  string
		year int
	}{{"F78", 1978}, {"W78", 1978}, {"S78", 1978}} {
		rel.Insert("SEMESTER", value.FromPairs("S", s.sem, "YEAR", s.year))
	}

	fmt.Println("\n(a) relational model, FKs off (the 1979 default):")
	err := rel.Insert("COURSE-OFFERING", value.FromPairs("CNO", "GHOST", "S", "F78", "INSTRUCTOR", "X"))
	fmt.Printf("    dangling COURSE-OFFERING insert: %v (admitted)\n", err)

	rel2 := relstore.NewDB(schema.SchoolRelational(), relstore.EnforceForeignKeys())
	rel2.Insert("COURSE", value.FromPairs("CNO", "CS101", "CNAME", "Intro"))
	err = rel2.Insert("COURSE-OFFERING", value.FromPairs("CNO", "GHOST", "S", "F78", "INSTRUCTOR", "X"))
	fmt.Printf("    with centralized existence constraints: %v\n", err)

	fmt.Println("\n(b) CODASYL model, AUTOMATIC/MANDATORY (Figure 3.1b):")
	net := netstore.NewDB(schema.SchoolNetwork())
	ns := netstore.NewSession(net)
	_, st, _ := ns.Store("COURSE-OFFERING", value.FromPairs("CNO", "X", "S", "Y", "INSTRUCTOR", "Z"))
	fmt.Printf("    STORE offering with no current COURSE/SEMESTER: DB-STATUS %v\n", st)
	ns.Store("COURSE", value.FromPairs("CNO", "CS101", "CNAME", "Intro"))
	ns.Store("SEMESTER", value.FromPairs("S", "F78", "YEAR", 1978))
	ns.FindAny("COURSE", value.FromPairs("CNO", "CS101"))
	ns.FindAny("SEMESTER", value.FromPairs("S", "F78"))
	ns.FindAny("COURSE", value.FromPairs("CNO", "CS101"))
	_, st, _ = ns.Store("COURSE-OFFERING", value.FromPairs("CNO", "CS101", "S", "F78", "INSTRUCTOR", "Taylor"))
	fmt.Printf("    STORE with both owners current: DB-STATUS %v\n", st)
	ns.FindAny("COURSE", value.FromPairs("CNO", "CS101"))
	ns.Erase("COURSE")
	fmt.Printf("    ERASE course cascades MANDATORY offerings: offerings left = %d\n",
		net.Count("COURSE-OFFERING"))

	fmt.Println("\n(c) the rule no 1979 model holds (centralized here):")
	rel3 := relstore.NewDB(schema.SchoolRelational())
	rel3.Insert("COURSE", value.FromPairs("CNO", "CS101", "CNAME", "Intro"))
	for _, s := range []struct {
		sem  string
		year int
	}{{"F78", 1978}, {"W78", 1978}, {"S78", 1978}} {
		rel3.Insert("SEMESTER", value.FromPairs("S", s.sem, "YEAR", s.year))
		rel3.Insert("COURSE-OFFERING", value.FromPairs("CNO", "CS101", "S", s.sem, "INSTRUCTOR", "T"))
	}
	for _, v := range constraint.CheckAll(constraint.SchoolRules(), constraint.FromRelational(rel3)) {
		fmt.Printf("    violation: %s\n", v)
	}
}

// ---- EXP-F4.1 ----

func expF41() {
	banner("EXP-F4.1", "The Figure 4.1 pipeline end to end (Supervisor report)")
	progs := []*dbprog.Program{
		mustParse(`
PROGRAM LIST-OLD DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO OLD.
  FOR EACH E IN OLD
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
END PROGRAM.
`),
		mustParse(`
PROGRAM COUNT-SALES DIALECT NETWORK.
  LET N = 0.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  MOVE 'SALES' TO DEPT-NAME IN EMP.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP USING DEPT-NAME.
    IF DB-STATUS = 'OK'
      GET EMP.
      LET N = N + 1.
    END-IF.
  END-PERFORM.
  PRINT 'SALES EMPLOYEES', N.
END PROGRAM.
`),
		mustParse(`
PROGRAM ROSTER DIALECT NETWORK.
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
`),
		mustParse(`
PROGRAM OPERATOR DIALECT NETWORK.
  ACCEPT MODE.
  IF MODE = 'W'
    STORE DIV.
  END-IF.
END PROGRAM.
`),
	}
	sup := core.NewSupervisor()
	report, err := sup.Run(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, companyV1DB(), progs)
	must(err)
	fmt.Print(report)
}

// ---- EXP-F4.3 ----

const figure43DDL = `
SCHEMA NAME IS COMPANY-NAME
RECORD SECTION;
  RECORD NAME IS DIV.
    FIELDS ARE.
      DIV-NAME PIC X(20).
      DIV-LOC PIC X(10).
  END RECORD.
  RECORD NAME IS EMP.
    FIELDS ARE.
      EMP-NAME PIC X(25).
      DEPT-NAME PIC X(5).
      AGE PIC 9(2).
      DIV-NAME VIRTUAL
        VIA DIV-EMP USING DIV-NAME.
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-DIV.
    OWNER IS SYSTEM.
    MEMBER IS DIV.
    SET KEYS ARE (DIV-NAME).
  END SET.
  SET NAME IS DIV-EMP.
    OWNER IS DIV.
    MEMBER IS EMP.
    SET KEYS ARE (EMP-NAME).
    INSERTION IS AUTOMATIC.
    RETENTION IS MANDATORY.
  END SET.
END SET SECTION.
END SCHEMA.
`

func expF43() {
	banner("EXP-F4.3", "Figure 4.3 schema parsed verbatim; both §4.2 FIND examples run")
	sch, err := ddl.ParseNetwork(figure43DDL)
	must(err)
	fmt.Printf("parsed schema %s: %d record types, %d set types\n",
		sch.Name, len(sch.Records), len(sch.Sets))
	db := companyV1DB()
	ev := mdml.NewEvaluator(db)
	for _, q := range []string{
		"FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))",
		"FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES'))",
	} {
		f, err := mdml.ParseFind(q)
		must(err)
		ids, err := ev.Eval(f)
		must(err)
		fmt.Printf("\n  %s\n", q)
		for _, r := range ev.Records(ids) {
			fmt.Printf("    %s\n", r)
		}
	}
}

// ---- EXP-F4.4 ----

func expF44() {
	banner("EXP-F4.4", "Figure 4.2→4.4 restructuring: schema, data, and both FINDs converted")
	plan := figurePlan()
	v2, _ := plan.ApplySchema(schema.CompanyV1())
	same := v2.DDL() == schema.CompanyV2().DDL()
	fmt.Printf("transformed schema matches Figure 4.4 exactly: %v\n", same)

	for _, src := range []string{
		`PROGRAM EX1 DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) INTO C.
  FOR EACH E IN C
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
END PROGRAM.`,
		`PROGRAM EX2 DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES')) INTO C.
  FOR EACH E IN C
    PRINT EMP-NAME IN E.
  END-FOR.
END PROGRAM.`,
	} {
		p := mustParse(src)
		res, err := convert.Convert(context.Background(), p, schema.CompanyV1(), plan)
		must(err)
		if !res.Auto {
			must(fmt.Errorf("%s did not convert automatically: %v", p.Name, res.Issues))
		}
		opt, _ := optimizer.Optimize(context.Background(), res.Program, v2)
		v1db := companyV1DB()
		v2db, _, _ := plan.Migrate(context.Background(), v1db, xform.MigrateOptions{})
		verdict := equiv.Check(context.Background(), p, dbprog.Config{Net: v1db}, opt, dbprog.Config{Net: v2db})
		fmt.Printf("\n  source:\n%s", indent(dbprog.Format(p), 4))
		fmt.Printf("  converted:\n%s", indent(dbprog.Format(opt), 4))
		fmt.Printf("  I/O equivalent: %v\n", verdict.Equal)
	}
}

// ---- EXP-S4.1a ----

func expS41a() {
	banner("EXP-S4.1a", "§4.1 access-pattern derivation (the paper's worked example)")
	q, _ := sequel.ParseQuery(`
SELECT ENAME FROM EMP WHERE E# IN
  (SELECT E# FROM EMP-DEPT WHERE YEAR-OF-SERVICE > 10 AND D# IN
    (SELECT D# FROM DEPT WHERE MGR = 'SMITH'))`)
	fmt.Printf("query:\n%s\n\n", indent(q.String(), 2))
	seq, err := analyzer.DeriveSequence(context.Background(), q, semantic.PersonnelSchema())
	must(err)
	fmt.Printf("derived sequence:\n%s", indent(seq.String(), 2))
}

// ---- EXP-S4.1b ----

func expS41b() {
	banner("EXP-S4.1b", "§4.1 cross-model template synthesis (templates A and B)")
	sem := semantic.PersonnelSchema()
	seq := &semantic.Sequence{
		Steps: []semantic.Step{
			{Kind: semantic.ViaSelf, Target: "DEPT", Via: "DEPT", CondFields: []string{"D#"}},
			{Kind: semantic.AssocViaSide, Target: "EMP-DEPT", Via: "DEPT", CondFields: []string{"YEAR-OF-SERVICE"}},
			{Kind: semantic.ViaAssoc, Target: "EMP", Via: "EMP-DEPT"},
		},
		Op: semantic.Retrieve,
	}
	bind := generator.Binding{
		{Field: "D#", Op: "=", V: value.Str("D2")},
		{Field: "YEAR-OF-SERVICE", Op: "=", V: value.Of(3)},
	}
	sq, err := generator.ToSequel(context.Background(), seq, sem, bind, []string{"ENAME"})
	must(err)
	fmt.Printf("template (A), SEQUEL:\n%s\n", indent(sq, 2))
	prog, err := generator.ToNetworkProgram(context.Background(), "TPL-B", seq, sem, schema.EmpDeptNetwork(), bind, []string{"ENAME"})
	must(err)
	fmt.Printf("\ntemplate (B), CODASYL:\n%s", indent(dbprog.Format(prog), 2))
}

// ---- EXP-C1 ----

func expC1() {
	banner("EXP-C1", "§2.1.1 claim: 65-70% automatic success rate over a program inventory")
	fmt.Println("\nconversion: Figure 4.2→4.4 split, strict policy (no accepted order changes)")
	fmt.Printf("\n%-44s %6s %10s %8s\n", "hazard mix", "auto", "qualified", "manual")
	profiles := []struct {
		name string
		p    corpus.Profile
	}{
		{"clean inventory (no hazards)", func() corpus.Profile {
			p := corpus.PeriodProfile(42)
			p.RateRunTimeVariability, p.RateOrderDependence, p.RateViewUpdate = 0, 0, 0
			p.RateStatusCode, p.RateProcessFirst = 0, 0
			return p
		}()},
		{"period-realistic mix (default)", corpus.PeriodProfile(42)},
		{"hazard-heavy shop", func() corpus.Profile {
			p := corpus.PeriodProfile(42)
			p.RateRunTimeVariability, p.RateOrderDependence, p.RateViewUpdate = 0.20, 0.25, 0.15
			return p
		}()},
	}
	tally := obs.NewTally()
	for _, row := range profiles {
		members, err := corpus.Programs(row.p)
		must(err)
		progs := make([]*dbprog.Program, len(members))
		for i, m := range members {
			progs[i] = m.Program
		}
		sup := core.NewSupervisor()
		sup.Events = tally
		report, err := sup.Run(context.Background(), schema.CompanyV1(), nil, figurePlan(), nil, progs)
		must(err)
		auto, qualified, manual := report.Counts()
		fmt.Printf("%-44s %5d%% %9d%% %7d%%\n", row.name, auto, qualified, manual)
	}
	snap := tally.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("\nevent-log tally across the three strict runs:")
	for _, k := range keys {
		fmt.Printf("  %-32s %6d\n", k, snap[k])
	}
	fmt.Println("\nshape target: the period-realistic row lands in the paper's 65-70% band.")
	fmt.Println("With an analyst accepting order changes, the qualified share converts too:")
	members, err := corpus.Programs(corpus.PeriodProfile(42))
	must(err)
	progs := make([]*dbprog.Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	sup := &core.Supervisor{Analyst: core.Policy{AcceptOrderChanges: true}}
	report, err := sup.Run(context.Background(), schema.CompanyV1(), nil, figurePlan(), nil, progs)
	must(err)
	auto, qualified, manual := report.Counts()
	fmt.Printf("  accepting analyst: %d%% auto + %d%% qualified = %d%% converted, %d%% manual\n",
		auto, qualified, auto+qualified, manual)
}

// ---- EXP-C2 ----

func expC2() {
	banner("EXP-C2", "§2.1.2 claim: emulation and bridge strategies degrade efficiency")
	fmt.Println("\nworkload: Q queries 'employees of one department of one division',")
	fmt.Println("run against the restructured (Figure 4.4) database by each strategy.")
	fmt.Printf("\n%-10s %8s  %12s %12s %14s %14s\n",
		"DB size", "queries", "rewrite", "emulate", "bridge(cold)", "bridge(warm)")
	for _, scale := range []struct {
		name    string
		divs    int
		depts   int
		emps    int
		queries int
	}{
		{"small", 4, 3, 5, 50},
		{"medium", 8, 6, 12, 50},
		{"large", 12, 10, 25, 50},
	} {
		prof := corpus.Profile{Seed: 42, Divisions: scale.divs,
			DeptsPerDiv: scale.depts, EmpsPerDept: scale.emps}
		src := corpus.Database(prof)
		plan := figurePlan()
		target, _, err := plan.Migrate(context.Background(), src, xform.MigrateOptions{})
		must(err)

		rewriteT := timeRewrite(target, scale.queries, scale.divs, scale.depts)
		emulateT := timeEmulate(src.Schema(), target, plan, scale.queries, scale.divs, scale.depts)
		coldT, warmT := timeBridge(src.Schema(), target, plan, scale.queries, scale.divs, scale.depts)
		fmt.Printf("%-10s %8d  %10.1fµs %10.1fµs %12.1fµs %12.1fµs   (per query)\n",
			scale.name, scale.queries,
			us(rewriteT, scale.queries), us(emulateT, scale.queries),
			us(coldT, scale.queries), us(warmT, scale.queries))
	}
	fmt.Println("\nshape target: rewrite fastest; emulation slower by a growing factor")
	fmt.Println("(per-call mapping + chain walking); cold bridge worst (reconstruction),")
	fmt.Println("warm bridge approaches rewrite only because the reconstruction is cached.")
}

func us(d time.Duration, q int) float64 {
	return float64(d.Microseconds()) / float64(q)
}

func timeRewrite(target *netstore.DB, queries, divs, depts int) time.Duration {
	ev := mdml.NewEvaluator(target)
	start := time.Now()
	for q := 0; q < queries; q++ {
		div := fmt.Sprintf("DIV-%02d", q%divs)
		dept := fmt.Sprintf("D-%02d", q%depts)
		f, _ := mdml.ParseFind(fmt.Sprintf(
			"FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = '%s'), DIV-DEPT, DEPT(DEPT-NAME = '%s'), DEPT-EMP, EMP)",
			div, dept))
		ids, err := ev.Eval(f)
		if err != nil {
			panic(err)
		}
		_ = ev.Records(ids)
	}
	return time.Since(start)
}

func timeEmulate(srcSchema *schema.Network, target *netstore.DB, plan *xform.Plan,
	queries, divs, depts int) time.Duration {
	start := time.Now()
	for q := 0; q < queries; q++ {
		em, err := emulate.NewSession(srcSchema, target, plan)
		if err != nil {
			panic(err)
		}
		div := fmt.Sprintf("DIV-%02d", q%divs)
		dept := fmt.Sprintf("D-%02d", q%depts)
		em.FindAny("DIV", value.FromPairs("DIV-NAME", div))
		match := value.FromPairs("DEPT-NAME", dept)
		st, err := em.FindInSet("DIV-EMP", netstore.First, match)
		for err == nil && st == netstore.OK {
			if _, _, gerr := em.Get("EMP"); gerr != nil {
				panic(gerr)
			}
			st, err = em.FindInSet("DIV-EMP", netstore.Next, match)
		}
		if err != nil {
			panic(err)
		}
	}
	return time.Since(start)
}

func timeBridge(srcSchema *schema.Network, target *netstore.DB, plan *xform.Plan,
	queries, divs, depts int) (cold, warm time.Duration) {
	sweep := func(db *netstore.DB, q int) {
		s := netstore.NewSession(db)
		div := fmt.Sprintf("DIV-%02d", q%divs)
		dept := fmt.Sprintf("D-%02d", q%depts)
		s.FindAny("DIV", value.FromPairs("DIV-NAME", div))
		match := value.FromPairs("DEPT-NAME", dept)
		st, _ := s.FindInSet("DIV-EMP", netstore.First, match)
		for st == netstore.OK {
			s.Get("EMP")
			st, _ = s.FindInSet("DIV-EMP", netstore.Next, match)
		}
	}
	// Cold: a fresh bridge per query (reconstruction every time).
	start := time.Now()
	for q := 0; q < queries; q++ {
		b, err := bridge.New(srcSchema, target, plan)
		if err != nil {
			panic(err)
		}
		recon, err := b.Reconstruct()
		if err != nil {
			panic(err)
		}
		sweep(recon, q)
	}
	cold = time.Since(start)
	// Warm: one bridge, reconstruction cached across the batch.
	b, _ := bridge.New(srcSchema, target, plan)
	start = time.Now()
	for q := 0; q < queries; q++ {
		recon, _ := b.Reconstruct()
		sweep(recon, q)
	}
	warm = time.Since(start)
	return cold, warm
}

// ---- EXP-C3 ----

func expC3() {
	banner("EXP-C3", "Mehl & Wang hierarchy order transformation (§2.2)")
	db := hierstore.NewDB(schema.EmpDeptHierarchy())
	s := hierstore.NewSession(db)
	for d := 0; d < 6; d++ {
		s.ISRT(value.FromPairs("D#", fmt.Sprintf("D%02d", d),
			"DNAME", fmt.Sprintf("DEPT-%02d", d), "MGR", "SMITH"), hierstore.U("DEPT"))
		for e := 0; e < 8; e++ {
			s.ISRT(value.FromPairs(
				"E#", fmt.Sprintf("E%02d-%02d", d, e), "ENAME", fmt.Sprintf("EMP-%02d-%02d", d, e),
				"AGE", 20+e, "YEAR-OF-SERVICE", e),
				hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str(fmt.Sprintf("D%02d", d))),
				hierstore.U("EMP"))
		}
	}
	tr := xform.HierReorder{Promote: "EMP"}
	plan := &xform.HierPlan{Steps: []xform.HierReorder{tr}}
	dst, warnings, _, err := plan.Migrate(context.Background(), db, xform.MigrateOptions{})
	must(err)
	pairs, err := tr.ReorderedValueEqual(db, dst)
	fmt.Printf("reordered %d (parent,child) pairs, fidelity check: %v, warnings: %d\n",
		pairs, err == nil, len(warnings))

	// The old program's query, native and substituted. The per-call
	// cost of each is BenchmarkHierReorder's claim, not this table's.
	oldPath := []hierstore.SSA{
		hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str("D03")),
		hierstore.Q("EMP", "YEAR-OF-SERVICE", hierstore.EQ, value.Of(5)),
	}
	oldSess := hierstore.NewSession(db)
	rec, _ := oldSess.GU(oldPath...)
	newSess := hierstore.NewSession(dst)
	rec2, st := tr.EmulateGU(newSess, "DEPT", oldPath)
	fmt.Printf("old-order GU answer %s; substituted command sequence answer %s (status %v)\n",
		rec.MustGet("ENAME"), rec2.MustGet("ENAME"), st)
}

// ---- EXP-C4 ----

func expC4() {
	banner("EXP-C4", "Housel's restriction: which transformations admit inverse mappings")
	src := schema.CompanyV1()
	catalog := []xform.Transformation{
		xform.RenameRecord{Old: "EMP", New: "WORKER"},
		xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
		xform.RenameSet{Old: "DIV-EMP", New: "DIV-STAFF"},
		xform.AddField{Record: "EMP", Field: "SALARY", Kind: value.Int, Default: value.Of(0)},
		xform.DropField{Record: "EMP", Field: "AGE"},
		xform.ChangeSetKeys{Set: "DIV-EMP", Keys: []string{"AGE"}},
		xform.ChangeRetention{Set: "DIV-EMP", Retention: schema.Optional},
		xform.IntroduceIntermediate{Set: "DIV-EMP", Inter: "DEPT",
			GroupField: "DEPT-NAME", Upper: "DIV-DEPT", Lower: "DEPT-EMP"},
	}
	fmt.Printf("\n%-26s %-12s %s\n", "transformation", "invertible", "inverse / reason")
	invertibleCount := 0
	for _, t := range catalog {
		inv, err := xform.Inverse(t, src)
		if err != nil {
			fmt.Printf("%-26s %-12v %v\n", t.Name(), t.Invertible(), err)
			continue
		}
		invertibleCount++
		fmt.Printf("%-26s %-12v %s\n", t.Name(), t.Invertible(), inv.Name())
	}
	fmt.Printf("\n%d of %d catalogued transformations admit inverse data mappings;\n",
		invertibleCount, len(catalog))
	fmt.Println("bridge programs (and Housel-style substitution) are confined to those.")
}

// ---- EXP-H1 ----

func expH1() {
	banner("EXP-H1", "§3.2 hazard detector audit over a labelled corpus")
	p := corpus.PeriodProfile(42)
	members, err := corpus.Programs(p)
	must(err)
	type cell struct{ tp, fp, fn int }
	byHazard := map[analyzer.IssueKind]*cell{
		analyzer.RunTimeVariability:   {},
		analyzer.ProcessFirst:         {},
		analyzer.StatusCodeDependence: {},
	}
	expected := map[corpus.Kind]analyzer.IssueKind{
		corpus.HazardRTV:        analyzer.RunTimeVariability,
		corpus.WarnStatusCode:   analyzer.StatusCodeDependence,
		corpus.WarnProcessFirst: analyzer.ProcessFirst,
	}
	isLabelled := func(k corpus.Kind, kind analyzer.IssueKind) bool {
		want, ok := expected[k]
		return ok && want == kind
	}
	for _, m := range members {
		abs := analyzer.Analyze(context.Background(), m.Program, schema.CompanyV1())
		found := map[analyzer.IssueKind]bool{}
		for _, i := range abs.Issues {
			found[i.Kind] = true
		}
		for kind, c := range byHazard {
			labelled := isLabelled(m.Kind, kind)
			switch {
			case labelled && found[kind]:
				c.tp++
			case labelled && !found[kind]:
				c.fn++
			case !labelled && found[kind]:
				c.fp++
			}
		}
	}
	fmt.Printf("\n%-26s %4s %4s %4s  %s\n", "hazard", "tp", "fp", "fn", "precision/recall")
	names := []analyzer.IssueKind{analyzer.RunTimeVariability, analyzer.StatusCodeDependence, analyzer.ProcessFirst}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, k := range names {
		c := byHazard[k]
		prec, rec := 1.0, 1.0
		if c.tp+c.fp > 0 {
			prec = float64(c.tp) / float64(c.tp+c.fp)
		}
		if c.tp+c.fn > 0 {
			rec = float64(c.tp) / float64(c.tp+c.fn)
		}
		fmt.Printf("%-26s %4d %4d %4d  %.2f / %.2f\n", k, c.tp, c.fp, c.fn, prec, rec)
	}
}

// expR1 demonstrates the resilience layer: a 50-program batch at
// parallelism 8 absorbs an injected panic, a forced stage timeout, and
// two transient errors, completes under collect-errors, and reconciles
// the event-log fault counters against the injected plan. The report is
// byte-identical to a serial run of the same chaos plan.
func expR1() {
	banner("EXP-R1", "resilience: fault isolation, stage budgets, retries under injected chaos")
	p := corpus.Profile{
		Seed:      42,
		Divisions: 2, DeptsPerDiv: 2, EmpsPerDept: 2,
		Programs:               50,
		RateRunTimeVariability: 0.08,
		RateOrderDependence:    0.12,
		RateViewUpdate:         0.06,
	}
	members, err := corpus.Programs(p)
	must(err)
	progs := make([]*dbprog.Program, len(members))
	for i, m := range members {
		progs[i] = m.Program
	}
	inj := fault.New(1,
		fault.Rule{Kind: fault.Panic, Prog: progs[3].Name, Stage: "convert"},
		fault.Rule{Kind: fault.Delay, Prog: progs[10].Name, Stage: "analyze", Delay: 10 * time.Second},
		fault.Rule{Kind: fault.Transient, Prog: progs[20].Name, Stage: "analyze"},
		fault.Rule{Kind: fault.Transient, Prog: progs[30].Name, Stage: "analyze"},
	)
	fmt.Printf("\ninjected chaos plan over %d programs:\n", len(progs))
	fmt.Printf("  panic      %s/convert\n", progs[3].Name)
	fmt.Printf("  delay 10s  %s/analyze (stage budget 400ms forces a timeout)\n", progs[10].Name)
	fmt.Printf("  transient  %s/analyze, %s/analyze (2 retries armed)\n",
		progs[20].Name, progs[30].Name)

	run := func(parallelism int) (*core.Report, *obs.Tally) {
		tally := obs.NewTally()
		sup := &core.Supervisor{
			Analyst:       core.Policy{},
			Parallelism:   parallelism,
			Events:        tally,
			StageTimeout:  400 * time.Millisecond,
			Retries:       2,
			Sleep:         func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
			FailurePolicy: core.CollectErrors,
		}
		ctx := fault.With(context.Background(), inj)
		report, err := sup.Run(ctx, schema.CompanyV1(), nil, figurePlan(), nil, progs)
		must(err)
		return report, tally
	}

	serial, _ := run(1)
	parallel, tally := run(8)

	auto, qualified, manual := parallel.Counts()
	fmt.Printf("\nbatch completed under collect-errors: %d auto, %d qualified, %d manual, %d failed\n",
		auto, qualified, manual, parallel.FailedCount())
	for _, o := range parallel.Outcomes {
		if f := o.Audit.Failure; f != nil {
			fmt.Printf("  x %-10s %s\n", o.Name, f.Error())
		}
		for _, r := range o.Audit.Retries {
			fmt.Printf("  ^ %-10s retry %d of %s after %s: %v\n",
				o.Name, r.Attempt, r.Stage, r.Backoff, r.Err)
		}
	}
	fmt.Println("\nevent-log fault counters (parallel run) vs injected plan:")
	faults := tally.Faults()
	keys := make([]string, 0, len(faults))
	for k := range faults {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-10s %d\n", k, faults[k])
	}
	if serial.String() != parallel.String() {
		fmt.Println("\nreport byte-identical at parallelism 1 and 8: NO (determinism bug)")
		os.Exit(int(wire.ExitError))
	}
	fmt.Println("\nreport byte-identical at parallelism 1 and 8: yes")
}

func mustParse(src string) *dbprog.Program {
	p, err := dbprog.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func indent(s string, n int) string {
	pad := strings.Repeat(" ", n)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func expM1() {
	banner("EXP-M1", "model-polymorphic pipeline: the §2.2 IMS reorder end to end")
	entry, err := corpus.IMSReorder()
	must(err)
	run := func(par int) *progconv.Report {
		rep, err := progconv.ConvertJob(context.Background(),
			progconv.Job{Spec: progconv.HierSpec{Src: entry.Source, Dst: entry.Target, DB: entry.Seed()},
				Programs: entry.Programs()},
			progconv.WithParallelism(par))
		must(err)
		return rep
	}
	r1 := run(1)
	fmt.Print(r1)
	for _, o := range r1.Outcomes {
		if o.Generated != "" {
			fmt.Printf("\n--- converted %s ---\n%s", o.Name, o.Generated)
		}
	}
	r8 := run(8)
	identical := r1.String() == r8.String()
	fmt.Printf("\nreport bytes at parallelism 1 vs 8: identical=%v\n", identical)
	if !identical {
		os.Exit(int(wire.ExitError))
	}
}
