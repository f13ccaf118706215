package core

// Model-polymorphic supervisor tests: hierarchical runs are
// byte-deterministic across parallelism and cache temperature, and one
// batch mixes network and hierarchical jobs without the models
// bleeding into each other.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/obs"
	"progconv/internal/plancache"
	"progconv/internal/schema"
)

func imsEntry(t *testing.T) *corpus.HierEntry {
	t.Helper()
	entry, err := corpus.IMSReorder()
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// TestHierRunByteIdentical: the hierarchical pipeline's report is
// byte-identical at parallelism 1 and 8, uncached, cache-cold, and
// cache-warm — the same invariant TestCachedRunByteIdentical pins for
// the network model. So is its event stream once the cache's own
// events are dropped: a warm run's memo hits replay the hazards and
// rewrites the cold run emitted.
func TestHierRunByteIdentical(t *testing.T) {
	entry := imsEntry(t)
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			run := func(sup *Supervisor) (string, map[string][]obs.Event) {
				t.Helper()
				ring := obs.NewRingSink(4096)
				sup.Analyst = Policy{}
				sup.Parallelism = par
				sup.Events = ring
				report, err := sup.RunJob(context.Background(),
					Job{Spec: HierSpec{Src: entry.Source, Dst: entry.Target, DB: entry.Seed()}, Programs: entry.Programs()})
				if err != nil {
					t.Fatal(err)
				}
				if report.Model != ModelHierarchical {
					t.Errorf("report model = %q, want %q", report.Model, ModelHierarchical)
				}
				// Programs interleave at parallelism 8, so there the
				// stream is compared per program.
				events := map[string][]obs.Event{}
				for _, ev := range ring.Events() {
					switch ev.Kind {
					case obs.EvCacheHit, obs.EvCacheMiss, obs.EvCacheEvict:
						continue
					}
					ev.Seq, ev.T, ev.Dur = 0, 0, 0
					key := ""
					if par > 1 {
						key = ev.Prog
					}
					events[key] = append(events[key], ev)
				}
				return report.String(), events
			}
			base, baseEvents := run(&Supervisor{})
			cache := plancache.New(8)
			cold, coldEvents := run(&Supervisor{Cache: cache})
			warm, warmEvents := run(&Supervisor{Cache: cache})
			if cold != base {
				t.Errorf("cold cached report differs from uncached:\n%s\nvs\n%s", cold, base)
			}
			if warm != base {
				t.Errorf("warm cached report differs from uncached:\n%s\nvs\n%s", warm, base)
			}
			kinds := map[obs.EventKind]bool{}
			for _, evs := range baseEvents {
				for _, ev := range evs {
					kinds[ev.Kind] = true
				}
			}
			if !kinds[obs.EvHazard] || !kinds[obs.EvRewrite] {
				t.Fatal("the study emitted no hazard or no rewrite; the replay check is vacuous")
			}
			if !reflect.DeepEqual(coldEvents, baseEvents) {
				t.Errorf("cold cached event stream differs from uncached:\n%+v\nvs\n%+v", coldEvents, baseEvents)
			}
			if !reflect.DeepEqual(warmEvents, baseEvents) {
				t.Errorf("warm cached event stream differs from uncached:\n%+v\nvs\n%+v", warmEvents, baseEvents)
			}
			s := cache.Stats()
			if s.PairMisses != 1 || s.PairHits < 1 {
				t.Errorf("pair stats = %+v", s)
			}
			if s.AnalysisHits == 0 || s.ConversionHits == 0 || s.CodegenHits == 0 {
				t.Errorf("warm hierarchical run hit no program memos: %+v", s)
			}
		})
	}
}

// TestHierRunDispositions pins the §2.2 command-substitution outcomes:
// the parent-targeted and child-targeted retrievals convert (and
// verify) automatically, the GNP sweep is manual.
func TestHierRunDispositions(t *testing.T) {
	entry := imsEntry(t)
	sup := &Supervisor{Analyst: Policy{}}
	report, err := sup.RunJob(context.Background(),
		Job{Spec: HierSpec{Src: entry.Source, Dst: entry.Target, DB: entry.Seed()}, Programs: entry.Programs()})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Disposition{"DEPTMGR": Auto, "EMPBYID": Auto, "TENURED": Manual}
	for _, o := range report.Outcomes {
		if d, ok := want[o.Name]; !ok || o.Disposition != d {
			t.Errorf("%s disposition = %v, want %v", o.Name, o.Disposition, want[o.Name])
		}
		if o.Audit.Model != ModelHierarchical {
			t.Errorf("%s audit model = %q", o.Name, o.Audit.Model)
		}
		if o.Disposition == Auto {
			if o.Verified == nil || !o.Verified.Equal {
				t.Errorf("%s: automatic conversion not verified equal: %+v", o.Name, o.Verified)
			}
		}
	}
	if report.TargetHierDB == nil || report.TargetHierarchy == nil {
		t.Error("report is missing the migrated hierarchy or its schema")
	}
}

// TestRunJobsMixedModels: one batch interleaves network and
// hierarchical jobs through one supervisor and one shared cache; every
// sub-report lands at its submission index and matches the
// single-model run of the same job byte for byte.
func TestRunJobsMixedModels(t *testing.T) {
	entry := imsEntry(t)
	newJobs := func() []Job {
		return []Job{
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(), DB: companyV1DB(t)}, Programs: applicationSystem(t)},
			{Spec: HierSpec{Src: entry.Source, Dst: entry.Target, DB: entry.Seed()}, Programs: entry.Programs()},
			{Spec: NetworkSpec{Src: schema.CompanyV1(), Dst: schema.CompanyV2(), DB: companyV1DB(t)}, Programs: applicationSystem(t)},
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
		wantModels := []string{ModelNetwork, ModelHierarchical, ModelNetwork}
		for i, m := range wantModels {
			if reports[i].Model != m {
				t.Errorf("parallelism %d: reports[%d].Model = %q, want %q", par, i, reports[i].Model, m)
			}
		}
		// Each sub-report matches its single-job reference run.
		netRef := &Supervisor{Analyst: Policy{}, Parallelism: par}
		wantNet, err := netRef.Run(context.Background(),
			schema.CompanyV1(), schema.CompanyV2(), nil, companyV1DB(t), applicationSystem(t))
		if err != nil {
			t.Fatal(err)
		}
		hierRef := &Supervisor{Analyst: Policy{}, Parallelism: par}
		wantHier, err := hierRef.RunJob(context.Background(),
			Job{Spec: HierSpec{Src: entry.Source, Dst: entry.Target, DB: entry.Seed()}, Programs: entry.Programs()})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{wantNet.String(), wantHier.String(), wantNet.String()} {
			if got := reports[i].String(); got != want {
				t.Errorf("parallelism %d: reports[%d] diverges from the single-model run:\n%s\nvs\n%s",
					par, i, got, want)
			}
		}
	}
}
