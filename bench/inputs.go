package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"progconv"
	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/wire"
)

// inventorySize is the program count of every daemon job: a CI caller's
// inventory, big enough that per-program work outweighs the HTTP round
// trips.
const inventorySize = 200

// baseSpec is the job every daemon workload submits before its pad is
// spliced in: COMPANY V1→V2 (Figures 4.3→4.4) with a seeded
// 200-program corpus inventory, serial per-job conversion and no
// verification.
func baseSpec(seed int64) (wire.JobSpec, error) {
	p := corpus.PeriodProfile(seed)
	p.Programs = inventorySize
	members, err := corpus.Programs(p)
	if err != nil {
		return wire.JobSpec{}, err
	}
	spec := wire.JobSpec{
		V:         wire.Version,
		SourceDDL: schema.CompanyV1().DDL(),
		TargetDDL: schema.CompanyV2().DDL(),
		Options:   wire.JobOptions{Parallelism: 1},
	}
	for _, m := range members {
		spec.Programs = append(spec.Programs, wire.ProgramSpec{Source: m.Source})
	}
	return spec, nil
}

// withPad splices a PAD-k field into both schemas. Each k is a distinct
// schema pair, with its own fingerprint, cache entries and routing
// rank, that costs the same to convert as every other k.
func withPad(spec wire.JobSpec, k int) wire.JobSpec {
	field := fmt.Sprintf("AGE INT.\n    PAD-%d CHAR.", k)
	spec.SourceDDL = strings.Replace(spec.SourceDDL, "AGE INT.", field, 1)
	spec.TargetDDL = strings.Replace(spec.TargetDDL, "AGE INT.", field, 1)
	return spec
}

// verifyInit is a verify_init program storing the population the corpus
// programs query at PeriodProfile scale: 4 divisions, each with 3
// departments of 5 employees (60 EMP), named as corpus.Database names
// them.
func verifyInit(seed int64) string {
	p := corpus.PeriodProfile(seed)
	rng := rand.New(rand.NewSource(seed + 2))
	var b strings.Builder
	b.WriteString("PROGRAM SEED-DB DIALECT NETWORK.\n")
	for d := 0; d < p.Divisions; d++ {
		fmt.Fprintf(&b, "  MOVE 'DIV-%02d' TO DIV-NAME IN DIV.\n  MOVE 'CITY-%02d' TO DIV-LOC IN DIV.\n  STORE DIV.\n",
			d, rng.Intn(10))
	}
	emp := 0
	for d := 0; d < p.Divisions; d++ {
		fmt.Fprintf(&b, "  MOVE 'DIV-%02d' TO DIV-NAME IN DIV.\n  FIND ANY DIV USING DIV-NAME.\n", d)
		for dep := 0; dep < p.DeptsPerDiv; dep++ {
			for e := 0; e < p.EmpsPerDept; e++ {
				fmt.Fprintf(&b, "  MOVE 'E-%05d' TO EMP-NAME IN EMP.\n  MOVE 'D-%02d' TO DEPT-NAME IN EMP.\n  MOVE %d TO AGE IN EMP.\n  STORE EMP.\n",
					emp, dep, 20+rng.Intn(45))
				emp++
			}
		}
	}
	b.WriteString("END PROGRAM.\n")
	return b.String()
}

// parsedSpec is a network job spec parsed the way the daemon parses it
// at submission.
type parsedSpec struct {
	src, dst *progconv.Schema
	programs []*progconv.Program
	init     *progconv.Program // nil without verify_init
}

func parseSpec(spec *wire.JobSpec) (*parsedSpec, error) {
	var ps parsedSpec
	var err error
	if ps.src, err = progconv.ParseNetworkSchema(spec.SourceDDL); err != nil {
		return nil, fmt.Errorf("source_ddl: %w", err)
	}
	if ps.dst, err = progconv.ParseNetworkSchema(spec.TargetDDL); err != nil {
		return nil, fmt.Errorf("target_ddl: %w", err)
	}
	for i, p := range spec.Programs {
		prog, err := progconv.ParseProgram(p.Source)
		if err != nil {
			return nil, fmt.Errorf("programs[%d]: %w", i, err)
		}
		ps.programs = append(ps.programs, prog)
	}
	if spec.Options.VerifyInit != "" {
		if ps.init, err = progconv.ParseProgram(spec.Options.VerifyInit); err != nil {
			return nil, fmt.Errorf("verify_init: %w", err)
		}
	}
	return &ps, nil
}

// seedDB runs the verify_init program against an empty source database,
// as the daemon does before queueing a verifying job.
func seedDB(src *progconv.Schema, init *progconv.Program) (*netstore.DB, error) {
	db := netstore.NewDB(src)
	if _, err := dbprog.Run(init, dbprog.Config{Net: db}); err != nil {
		return nil, fmt.Errorf("verify_init program: %w", err)
	}
	return db, nil
}

// reference converts a spec through the library facade with the
// daemon's option mapping for the options the benchmark sets. The
// result is the report every daemon and coordinator must serve for the
// spec, byte for byte.
func reference(spec *wire.JobSpec) ([]byte, error) {
	ps, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	opts := []progconv.Option{progconv.WithParallelism(spec.Options.Parallelism)}
	if ps.init != nil {
		db, err := seedDB(ps.src, ps.init)
		if err != nil {
			return nil, err
		}
		opts = append(opts, progconv.WithVerifyDB(db))
	}
	report, err := progconv.Convert(context.Background(), ps.src, ps.dst, nil, ps.programs, opts...)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := progconv.EncodeReportJSON(&buf, report); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// refTable holds the reference report of each pad of one base spec,
// computed on first use. spent is the time spent computing them, which
// set-up time leaves out: it is the benchmark's checking, not the
// system's set-up.
type refTable struct {
	base wire.JobSpec

	mu    sync.Mutex
	refs  map[int][]byte
	spent time.Duration
}

func newRefTable(base wire.JobSpec) *refTable {
	return &refTable{base: base, refs: map[int][]byte{}}
}

// checking returns the time spent so far computing references.
func (t *refTable) checking() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spent
}

// get returns the reference report for pad k.
func (t *refTable) get(k int) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ref, ok := t.refs[k]; ok {
		return ref, nil
	}
	start := time.Now()
	spec := withPad(t.base, k)
	ref, err := reference(&spec)
	t.spent += time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("reference for pad %d: %w", k, err)
	}
	t.refs[k] = ref
	return ref, nil
}

// fill computes the references of every pad on two goroutines, one per
// core of the machine the job counts were sized on.
func (t *refTable) fill(pads []int) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pads); i += 2 {
				spec := withPad(t.base, pads[i])
				ref, err := reference(&spec)
				if err != nil {
					errs[w] = fmt.Errorf("reference for pad %d: %w", pads[i], err)
					return
				}
				t.mu.Lock()
				t.refs[pads[i]] = ref
				t.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Library-workload sizes: the network database is
// corpus.Database{5, 4, 50} (5 + 1,000 records) and the hierarchy has
// 16 DEPT roots of 32 EMP each (528 segments). In runs interleaved on a
// shared 2-vCPU machine, the batch's latency spread from run to run
// about twice as widely with 5,000 network EMP as with 1,000.
const (
	libDivisions, libDeptsPerDiv, libEmpsPerDept = 5, 4, 50
	libHierDepts, libHierEmpsPerDept             = 16, 32
)

// libPrograms returns the network job's two key-lookup programs, each
// probing a seeded key that exists in the library database.
func libPrograms(seed int64) ([]*progconv.Program, error) {
	rng := rand.New(rand.NewSource(seed + 4))
	emps := libDivisions * libDeptsPerDiv * libEmpsPerDept
	srcs := []string{
		fmt.Sprintf(`
PROGRAM FIND-EMP DIALECT NETWORK.
  MOVE 'E-%05d' TO EMP-NAME IN EMP.
  FIND ANY EMP USING EMP-NAME.
  IF DB-STATUS = 'OK'
    GET EMP.
    PRINT EMP-NAME IN EMP, AGE IN EMP.
  ELSE
    PRINT 'NO SUCH EMPLOYEE'.
  END-IF.
END PROGRAM.
`, rng.Intn(emps)),
		fmt.Sprintf(`
PROGRAM FIND-DIV DIALECT NETWORK.
  MOVE 'DIV-%02d' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  IF DB-STATUS = 'OK'
    GET DIV.
    PRINT DIV-NAME IN DIV, DIV-LOC IN DIV.
  ELSE
    PRINT 'NO SUCH DIVISION'.
  END-IF.
END PROGRAM.
`, rng.Intn(libDivisions)),
	}
	var out []*progconv.Program
	for _, src := range srcs {
		p, err := progconv.ParseProgram(src)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// libNetworkDB builds the network job's COMPANY V1 database.
func libNetworkDB(seed int64) *netstore.DB {
	return corpus.Database(corpus.Profile{Seed: seed,
		Divisions: libDivisions, DeptsPerDiv: libDeptsPerDiv, EmpsPerDept: libEmpsPerDept})
}

// libHierDB builds the hierarchical job's PERSONNEL database: DEPT roots
// D0..D15, each holding 32 EMP children with globally unique E# values,
// so the study programs' D2, D12 and E2 keys all resolve.
func libHierDB(seed int64, src *schema.Hierarchy) (*hierstore.DB, error) {
	rng := rand.New(rand.NewSource(seed + 3))
	db := hierstore.NewDB(src)
	s := hierstore.NewSession(db)
	for d := 0; d < libHierDepts; d++ {
		dno := fmt.Sprintf("D%d", d)
		if st := s.ISRT(value.FromPairs("D#", dno, "DNAME", fmt.Sprintf("DEPT-%02d", d),
			"MGR", fmt.Sprintf("MGR-%03d", rng.Intn(1000))), hierstore.U("DEPT")); st != hierstore.OK {
			return nil, fmt.Errorf("insert DEPT %s: status %q", dno, st)
		}
		for e := 0; e < libHierEmpsPerDept; e++ {
			eno := fmt.Sprintf("E%d", d*libHierEmpsPerDept+e)
			if st := s.ISRT(value.FromPairs("E#", eno, "ENAME", fmt.Sprintf("EMP-%04d", rng.Intn(10000)),
				"AGE", 20+rng.Intn(45), "YEAR-OF-SERVICE", rng.Intn(30)),
				hierstore.Q("DEPT", "D#", hierstore.EQ, value.Str(dno)), hierstore.U("EMP")); st != hierstore.OK {
				return nil, fmt.Errorf("insert EMP %s: status %q", eno, st)
			}
		}
	}
	return db, nil
}

// libJobs builds one ConvertJobs batch of the migrate workload: the
// network job and the hierarchical IMS reorder.
func libJobs(seed int64) ([]progconv.Job, error) {
	netProgs, err := libPrograms(seed)
	if err != nil {
		return nil, err
	}
	ims, err := corpus.IMSReorder()
	if err != nil {
		return nil, err
	}
	hdb, err := libHierDB(seed, ims.Source)
	if err != nil {
		return nil, err
	}
	return []progconv.Job{
		{Spec: progconv.NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(), DB: libNetworkDB(seed)},
			Programs: netProgs},
		{Spec: progconv.HierSpec{Src: ims.Source, Dst: ims.Target, DB: hdb},
			Programs: ims.Programs()},
	}, nil
}

// checkLibReports checks the first batch's reports, which become the
// reference for every later batch: the network job must verify both
// key lookups automatically and equal, and the hierarchical job its two
// substitutable programs, with the GNP sweep routed to manual.
func checkLibReports(reports []*progconv.Report) error {
	want := []struct{ auto, manual int }{{2, 0}, {2, 1}}
	if len(reports) != len(want) {
		return fmt.Errorf("%d reports, want %d", len(reports), len(want))
	}
	for i, r := range reports {
		auto, qualified, manual := r.Counts()
		if auto != want[i].auto || qualified != 0 || manual != want[i].manual || r.FailedCount() != 0 {
			return fmt.Errorf("%s job: %d auto, %d qualified, %d manual, %d failed; want %d auto, %d manual",
				r.Model, auto, qualified, manual, r.FailedCount(), want[i].auto, want[i].manual)
		}
		for _, o := range r.Outcomes {
			if o.Disposition == progconv.Auto && (o.Verified == nil || !o.Verified.Equal) {
				return fmt.Errorf("%s job: %s is automatic but not verified equal", r.Model, o.Name)
			}
		}
	}
	return nil
}

// encodeReports renders a batch's reports as one byte string.
func encodeReports(reports []*progconv.Report) ([]byte, error) {
	var buf bytes.Buffer
	for _, r := range reports {
		if err := progconv.EncodeReportJSON(&buf, r); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}
