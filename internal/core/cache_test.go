package core

import (
	"context"
	"fmt"
	"testing"

	"progconv/internal/fingerprint"
	"progconv/internal/plancache"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

// TestCachedRunByteIdentical: with a shared cache, a cold run, a warm
// run, and an uncached run produce byte-identical reports — at
// parallelism 1 and N.
func TestCachedRunByteIdentical(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			run := func(sup *Supervisor) string {
				t.Helper()
				sup.Analyst = Policy{}
				sup.Parallelism = par
				report, err := sup.Run(context.Background(),
					schema.CompanyV1(), schema.CompanyV2(), nil, companyV1DB(t), applicationSystem(t))
				if err != nil {
					t.Fatal(err)
				}
				return report.String()
			}
			base := run(&Supervisor{})
			cache := plancache.New(8)
			cold := run(&Supervisor{Cache: cache})
			warm := run(&Supervisor{Cache: cache})
			if cold != base {
				t.Errorf("cold cached report differs from uncached:\n%s\nvs\n%s", cold, base)
			}
			if warm != base {
				t.Errorf("warm cached report differs from uncached:\n%s\nvs\n%s", warm, base)
			}
			s := cache.Stats()
			if s.PairMisses != 1 || s.PairHits < 1 {
				t.Errorf("pair stats = %+v", s)
			}
			if s.AnalysisHits == 0 || s.ConversionHits == 0 || s.CodegenHits == 0 {
				t.Errorf("warm run hit no program memos: %+v", s)
			}
		})
	}
}

// TestRunJobsMultiplePairs: one batch interleaves three distinct schema
// pairs; each sub-report lands at its job's submission index and matches
// the single-pair Run of the same job byte for byte.
func TestRunJobsMultiplePairs(t *testing.T) {
	newJobs := func() []Job {
		return []Job{
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(), DB: companyV1DB(t)}, Programs: applicationSystem(t)},
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Plan: &xform.Plan{Steps: []xform.Transformation{
				xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
			}}}, Programs: applicationSystem(t)},
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Plan: &xform.Plan{Steps: []xform.Transformation{
				xform.RenameSet{Old: "DIV-EMP", New: "DIV-STAFF"},
			}}}, Programs: applicationSystem(t)},
		}
	}
	for _, par := range []int{1, 8} {
		sup := &Supervisor{Analyst: Policy{}, Parallelism: par, Cache: plancache.New(8)}
		reports, err := sup.RunJobs(context.Background(), newJobs())
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 3 {
			t.Fatalf("got %d reports", len(reports))
		}
		for i, job := range newJobs() {
			single := &Supervisor{Analyst: Policy{}, Parallelism: par}
			sp := job.Spec.(NetworkSpec)
			want, err := single.Run(context.Background(), sp.Src, sp.Dst, sp.Plan, sp.DB, job.Programs)
			if err != nil {
				t.Fatal(err)
			}
			if reports[i].String() != want.String() {
				t.Errorf("parallelism %d, job %d: batch sub-report differs from single run:\n%s\nvs\n%s",
					par, i, reports[i], want)
			}
		}
	}
}

// TestRunJobsDeterministic: batched multi-pair reports are identical
// across parallelism levels.
func TestRunJobsDeterministic(t *testing.T) {
	jobs := func() []Job {
		return []Job{
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(), DB: companyV1DB(t)}, Programs: applicationSystem(t)},
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Plan: planFigure()}, Programs: applicationSystem(t)},
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Plan: &xform.Plan{Steps: []xform.Transformation{
				xform.RenameField{Record: "DIV", Old: "DIV-LOC", New: "DIV-CITY"},
			}}}, Programs: applicationSystem(t)},
		}
	}
	serial := &Supervisor{Analyst: Policy{}, Parallelism: 1, Cache: plancache.New(8)}
	a, err := serial.RunJobs(context.Background(), jobs())
	if err != nil {
		t.Fatal(err)
	}
	par := &Supervisor{Analyst: Policy{}, Parallelism: 8, Cache: plancache.New(8)}
	b, err := par.RunJobs(context.Background(), jobs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("job %d: serial and parallel sub-reports differ:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestAuditRecordsPairFingerprint: every outcome carries the pair's
// content key, and it matches what PreparePair derives for the job.
func TestAuditRecordsPairFingerprint(t *testing.T) {
	sup := NewSupervisor()
	want := string(fingerprint.PairKey(schema.CompanyV1(), schema.CompanyV2(), nil))
	pair, err := sup.PreparePair(context.Background(),
		NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2()})
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Key()) != want {
		t.Errorf("PreparePair key %q, want %q", pair.Key(), want)
	}
	report, err := sup.Run(context.Background(),
		schema.CompanyV1(), schema.CompanyV2(), nil, companyV1DB(t), applicationSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range report.Outcomes {
		if o.Audit.Pair != want {
			t.Errorf("%s: Audit.Pair = %q, want %q", o.Name, o.Audit.Pair, want)
		}
	}
}
