package progconv

// Facade tests for the shared conversion cache: cached runs are
// byte-identical to uncached ones, cache traffic is observable through
// the exported Prometheus counters, and one Cache survives being
// hammered by many concurrent Convert calls (run under `go test -race`).

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

// TestSharedCacheHitsExported: two Convert calls sharing one cache — the
// second run registers pair and memo hits in progconv_cache_hits_total,
// and both reports are byte-identical to an uncached run.
func TestSharedCacheHitsExported(t *testing.T) {
	progs := corpusPrograms(t)
	base, err := Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, progs,
		WithVerifyDB(corpus.Database(corpus.PeriodProfile(42))))
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache(8)
	tally := NewTally()
	for i := 0; i < 2; i++ {
		report, err := Convert(context.Background(), schema.CompanyV1(), schema.CompanyV2(), nil, progs,
			WithVerifyDB(corpus.Database(corpus.PeriodProfile(42))),
			WithCache(cache), WithEventSink(tally))
		if err != nil {
			t.Fatal(err)
		}
		if report.String() != base.String() {
			t.Fatalf("cached run %d differs from uncached:\n%s\nvs\n%s", i, report, base)
		}
	}

	var buf strings.Builder
	if err := WritePrometheus(&buf, tally); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`progconv_cache_hits_total{scope="pair"} 1`,
		`progconv_cache_misses_total{scope="pair"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus export missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `progconv_cache_hits_total{scope="analysis"}`) {
		t.Errorf("no analysis-scope hits exported:\n%s", out)
	}
	s := cache.Stats()
	if s.PairHits != 1 || s.PairMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestConvertJobsFacade: one batch converts three distinct schema pairs
// on one pool and one cache; sub-reports are deterministic across
// parallelism.
func TestConvertJobsFacade(t *testing.T) {
	jobs := func(t *testing.T) []Job {
		return []Job{
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(),
				DB: corpus.Database(corpus.PeriodProfile(42))}, Programs: corpusPrograms(t)},
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Plan: figurePlan()}, Programs: corpusPrograms(t)},
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Plan: &xform.Plan{Steps: []xform.Transformation{
				xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
			}}}, Programs: corpusPrograms(t)},
		}
	}
	cache := NewCache(8)
	serial, err := ConvertJobs(context.Background(), jobs(t), WithParallelism(1), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 3 {
		t.Fatalf("got %d reports", len(serial))
	}
	par, err := ConvertJobs(context.Background(), jobs(t), WithParallelism(8), WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].String() != par[i].String() {
			t.Errorf("job %d: serial and parallel sub-reports differ:\n%s\nvs\n%s",
				i, serial[i], par[i])
		}
	}
	if s := cache.Stats(); s.PairMisses != 3 || s.PairHits < 3 {
		t.Errorf("stats = %+v", s)
	}
}

// TestConcurrentConvertsShareOneCache: many goroutines run Convert over
// a mix of schema pairs against one shared cache; every report must
// match its pair's reference run. The interesting assertions are the
// race detector's.
func TestConcurrentConvertsShareOneCache(t *testing.T) {
	progs := corpusPrograms(t)[:12]
	type variant struct {
		dst    *Schema
		plan   *Plan
		verify bool
	}
	variants := []variant{
		{dst: schema.CompanyV2(), verify: true},
		{plan: figurePlan()},
		{plan: &xform.Plan{Steps: []xform.Transformation{
			xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
		}}},
	}
	run := func(v variant, cache *Cache) string {
		opts := []Option{WithParallelism(4)}
		if cache != nil {
			opts = append(opts, WithCache(cache))
		}
		if v.verify {
			opts = append(opts, WithVerifyDB(corpus.Database(corpus.PeriodProfile(42))))
		}
		report, err := Convert(context.Background(), schema.CompanyV1(), v.dst, v.plan, progs, opts...)
		if err != nil {
			t.Error(err)
			return ""
		}
		return report.String()
	}
	want := make([]string, len(variants))
	for i, v := range variants {
		want[i] = run(v, nil)
	}

	cache := NewCache(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				vi := (g + i) % len(variants)
				if got := run(variants[vi], cache); got != want[vi] {
					t.Errorf("goroutine %d, variant %d: cached report diverged", g, vi)
				}
			}
		}(g)
	}
	wg.Wait()
	if s := cache.Stats(); s.PairMisses != int64(len(variants)) {
		t.Errorf("pair misses = %d, want %d (singleflight across goroutines)",
			s.PairMisses, len(variants))
	}
}

// TestPipelineLeavesProgramsUnchanged: no stage mutates a program it is
// given, so jobs may share parsed programs, as a parse memo keyed by
// the source text would have every job that submits one text do. Two
// jobs at a time run over one parsed inventory with one cache, at
// parallelism 8: one plain, one that accepts order changes, retries
// injected transient faults and recovers injected panics. They migrate
// and verify, and the hierarchical pair runs twice so the second
// converts from warm memos. Afterwards every input program must still
// equal a fresh parse of its text.
func TestPipelineLeavesProgramsUnchanged(t *testing.T) {
	cache := NewCache(0)
	type input struct {
		prog *Program
		src  string
	}
	var inputs []input
	parse := func(members []corpus.Member) []*Program {
		progs := make([]*Program, len(members))
		for i, m := range members {
			p, err := dbprog.Parse(m.Source)
			if err != nil {
				t.Fatal(err)
			}
			progs[i] = p
			inputs = append(inputs, input{p, m.Source})
		}
		return progs
	}
	chaos := append(jobOptions(&JobOptions{Parallelism: 8, AcceptOrder: true, OnFailure: "collect",
		Inject: "transient@*/convert,transient@*/verify~0.5,panic@*/optimize~0.05"}),
		WithRetries(2, time.Microsecond))
	// run converts two jobs of mk at a time: they share the programs
	// and the cache, each has its own database.
	run := func(mk func() Job) {
		var wg sync.WaitGroup
		for _, extra := range [][]Option{nil, chaos} {
			wg.Add(1)
			go func(extra []Option) {
				defer wg.Done()
				opts := append([]Option{WithCache(cache), WithParallelism(8)}, extra...)
				if _, err := ConvertJob(context.Background(), mk(), opts...); err != nil {
					t.Error(err)
				}
			}(extra)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := corpus.PeriodProfile(seed)
		p.Programs = 200
		members, err := corpus.Programs(p)
		if err != nil {
			t.Fatal(err)
		}
		progs := parse(members)
		run(func() Job {
			return Job{Spec: NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(), DB: corpus.Database(p)}, Programs: progs}
		})
	}
	ims, err := corpus.IMSReorder()
	if err != nil {
		t.Fatal(err)
	}
	progs := parse(ims.Members)
	hier := func() Job {
		return Job{Spec: HierSpec{Src: ims.Source, Dst: ims.Target, DB: ims.Seed()}, Programs: progs}
	}
	run(hier)
	run(hier)

	for _, in := range inputs {
		fresh, err := dbprog.Parse(in.src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in.prog, fresh) {
			t.Errorf("%s: the pipeline changed the program it was given", in.prog.Name)
		}
	}
}
