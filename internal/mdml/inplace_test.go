package mdml_test

// This file lives in package mdml_test because it draws its populations
// from corpus, which imports mdml.

import (
	"fmt"
	"slices"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/mdml"
	"progconv/internal/netstore"
	"progconv/internal/value"
)

// The oracle is the evaluator's former read path, kept as test code: it
// materializes a fresh record per qualification candidate with Data, and
// sorts through SortRecords over those records with a pointer map back to
// their IDs. The in-place evaluator must return the same ID sequences and
// the same errors.

func oracleEval(e *mdml.Evaluator, f *mdml.Find) ([]netstore.RecordID, error) {
	db := e.DB()
	if db.Schema().Record(f.Target) == nil {
		return nil, fmt.Errorf("mdml: unknown target record type %s", f.Target)
	}
	if len(f.Steps) == 0 {
		return nil, fmt.Errorf("mdml: empty access path")
	}
	sch := db.Schema()
	f, err := f.Classified(
		func(n string) bool { return sch.Set(n) != nil },
		func(n string) bool { return sch.Record(n) != nil },
	)
	if err != nil {
		return nil, err
	}
	var current []netstore.RecordID
	sawSystem := false
	for i, step := range f.Steps {
		switch step.Kind {
		case mdml.SystemStep:
			if i != 0 {
				return nil, fmt.Errorf("mdml: SYSTEM must begin the path")
			}
			sawSystem = true
		case mdml.CollectionStep:
			if i != 0 {
				return nil, fmt.Errorf("mdml: collection %s must begin the path", step.Name)
			}
			coll, ok := e.Collections[step.Name]
			if !ok {
				return nil, fmt.Errorf("mdml: unknown collection %s", step.Name)
			}
			current = append([]netstore.RecordID(nil), coll...)
		case mdml.SetStep:
			set := sch.Set(step.Name)
			if set == nil {
				return nil, fmt.Errorf("mdml: unknown set %s", step.Name)
			}
			if i == 1 && sawSystem {
				if !set.IsSystem() {
					return nil, fmt.Errorf("mdml: set %s after SYSTEM is not SYSTEM-owned", step.Name)
				}
				current = db.SystemMembers(step.Name)
				continue
			}
			var next []netstore.RecordID
			seen := make(map[netstore.RecordID]bool)
			for _, owner := range current {
				if db.TypeOf(owner) != set.Owner {
					return nil, fmt.Errorf("mdml: set %s cannot be traversed from %s records",
						step.Name, db.TypeOf(owner))
				}
				for _, m := range db.Members(step.Name, owner) {
					if !seen[m] {
						seen[m] = true
						next = append(next, m)
					}
				}
			}
			current = next
		case mdml.RecordStep:
			if sch.Record(step.Name) == nil {
				return nil, fmt.Errorf("mdml: unknown record type %s", step.Name)
			}
			var next []netstore.RecordID
			for _, id := range current {
				if db.TypeOf(id) != step.Name {
					return nil, fmt.Errorf("mdml: path yields %s records where %s expected",
						db.TypeOf(id), step.Name)
				}
				if step.Qual != nil {
					keep, err := step.Qual.Eval(db.Data(id), e.Params)
					if err != nil {
						return nil, err
					}
					if !keep {
						continue
					}
				}
				next = append(next, id)
			}
			current = next
		}
	}
	last := f.Steps[len(f.Steps)-1]
	if last.Kind != mdml.RecordStep || last.Name != f.Target {
		return nil, fmt.Errorf("mdml: path must end at the target record type %s", f.Target)
	}
	return current, nil
}

func oracleSortIDs(e *mdml.Evaluator, ids []netstore.RecordID, on []string) ([]netstore.RecordID, error) {
	recs := make([]*value.Record, len(ids))
	order := make(map[*value.Record]netstore.RecordID, len(ids))
	for i, id := range ids {
		rec := e.DB().Data(id)
		if rec == nil {
			return nil, fmt.Errorf("mdml: stale record %d in collection", id)
		}
		for _, f := range on {
			if !rec.Has(f) {
				return nil, fmt.Errorf("mdml: sort field %s not in record", f)
			}
		}
		recs[i] = rec
		order[rec] = id
	}
	value.SortRecords(recs, on)
	out := make([]netstore.RecordID, len(recs))
	for i, r := range recs {
		out[i] = order[r]
	}
	return out, nil
}

// equivDB is a corpus population plus EMPs with a null AGE in two
// divisions, which SORT ON (AGE) must put first.
func equivDB(t *testing.T, seed int64) *netstore.DB {
	t.Helper()
	db := corpus.Database(corpus.Profile{Seed: seed, Divisions: 4, DeptsPerDiv: 3, EmpsPerDept: 5})
	s := netstore.NewSession(db)
	for i, div := range []string{"DIV-01", "DIV-03", "DIV-01"} {
		if st, err := s.FindAny("DIV", value.FromPairs("DIV-NAME", div)); st != netstore.OK || err != nil {
			t.Fatalf("find %s: %v %v", div, st, err)
		}
		rec := value.FromPairs("EMP-NAME", fmt.Sprintf("N-%02d", i), "DEPT-NAME", "D-01", "AGE", nil)
		if _, st, err := s.Store("EMP", rec); st != netstore.OK || err != nil {
			t.Fatalf("store null-AGE EMP: %v %v", st, err)
		}
	}
	return db
}

const allEmps = "FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP"

// nullsFirst sorts the null AGEs ahead of every other EMP.
const nullsFirst = "SORT(" + allEmps + ")) ON (AGE, DIV-NAME)"

var equivQueries = []string{
	allEmps + "(AGE > 40))",
	"SORT(" + allEmps + "(AGE > 40))) ON (EMP-NAME)",
	"SORT(" + allEmps + ")) ON (DEPT-NAME)",                 // ties keep traversal order
	"SORT(" + allEmps + "(AGE >= 30))) ON (DEPT-NAME, AGE)", // multi-field
	nullsFirst,
	"SORT(" + allEmps + "(DIV-NAME <> 'DIV-02'))) ON (DIV-NAME, EMP-NAME)",
	"FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-LOC >= 'CITY-05'), DIV-EMP, EMP(DEPT-NAME = 'D-02' OR NOT (AGE < 50)))",
	"SORT(" + allEmps + "(AGE < :LIMIT))) ON (AGE)",
	"SORT(FIND(EMP: OLD, EMP)) ON (EMP-NAME)",
	"FIND(EMP: FRESH, EMP(DIV-NAME = 'DIV-00'))",
	"SORT(FIND(EMP: FRESH, EMP(AGE > 25))) ON (DEPT-NAME, DIV-NAME)",
	// Errors, which must match too.
	allEmps + "(SALARY > 1))",
	allEmps + "(AGE > :UNBOUND))",
	"SORT(" + allEmps + ")) ON (EMP-NAME, NOPE)",
	"FIND(EMP: OLD, EMP(AGE > 40))", // the collection starts with a stale ID
}

func TestInPlaceEvalMatchesMaterializing(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		db := equivDB(t, seed)
		e := mdml.NewEvaluator(db)
		e.Params["LIMIT"] = value.Of(35)
		emps := db.AllOf("EMP")
		// FRESH is a collection out of traversal order; OLD starts with
		// an EMP erased after it was retrieved.
		e.Collections["FRESH"] = []netstore.RecordID{emps[7], emps[2], emps[40], emps[3]}
		stale := emps[10+seed]
		s := netstore.NewSession(db)
		if st := s.Position(stale); st != netstore.OK {
			t.Fatal(st)
		}
		if _, err := s.Erase("EMP"); err != nil {
			t.Fatal(err)
		}
		e.Collections["OLD"] = append([]netstore.RecordID{stale}, emps[:5]...)

		for _, src := range equivQueries {
			q, err := mdml.ParseSortOrFind(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			var got, want []netstore.RecordID
			var gotErr, wantErr error
			switch q := q.(type) {
			case *mdml.Find:
				got, gotErr = e.Eval(q)
				want, wantErr = oracleEval(e, q)
			case *mdml.Sort:
				got, gotErr = e.EvalSort(q)
				want, wantErr = oracleEval(e, q.Inner)
				if wantErr == nil {
					want, wantErr = oracleSortIDs(e, want, q.On)
				}
				if wantErr == nil && len(want) < 2 {
					t.Errorf("seed %d: %s sorts %d records, so it checks no order", seed, src, len(want))
				}
			}
			if src == nullsFirst && (len(got) == 0 || !db.Data(got[0]).MustGet("AGE").IsNull()) {
				t.Errorf("seed %d: %s does not start with a null AGE", seed, src)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Errorf("seed %d: %s\n got %v, %v\nwant %v, %v", seed, src, got, gotErr, want, wantErr)
			}
		}
		for _, on := range [][]string{{"EMP-NAME"}, {"NOPE"}, nil} {
			got, gotErr := e.SortIDs(e.Collections["OLD"], on)
			want, wantErr := oracleSortIDs(e, e.Collections["OLD"], on)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Errorf("seed %d: SortIDs(OLD, %v) = %v, %v, want %v, %v", seed, on, got, gotErr, want, wantErr)
			}
		}
	}
}

// findSortAllocs measures the corpus's Maryland FIND and its SORT over a
// corpus population of 4 divisions × 3 departments × emps EMPs.
func findSortAllocs(t *testing.T, emps int) (find, sort float64) {
	t.Helper()
	db := corpus.Database(corpus.Profile{Seed: 1, Divisions: 4, DeptsPerDiv: 3, EmpsPerDept: emps})
	e := mdml.NewEvaluator(db)
	q, err := mdml.ParseSortOrFind("SORT(" + allEmps + "(AGE > 40))) ON (EMP-NAME)")
	if err != nil {
		t.Fatal(err)
	}
	s := q.(*mdml.Sort)
	find = testing.AllocsPerRun(20, func() {
		if _, err := e.Eval(s.Inner); err != nil {
			t.Fatal(err)
		}
	})
	sort = testing.AllocsPerRun(20, func() {
		if _, err := e.EvalSort(s); err != nil {
			t.Fatal(err)
		}
	})
	return find, sort
}

// The Maryland FIND and SORT read every candidate into one reused
// record, so their allocations do not grow with the candidates: from 64
// records to 604 they may grow only by the collection slices' and the
// traversal's duplicate set's doublings.
func TestMarylandFindSortAllocsFlat(t *testing.T) {
	small, smallSort := findSortAllocs(t, 5)
	large, largeSort := findSortAllocs(t, 50)
	t.Logf("allocations per run, 64 → 604 records: Eval %v → %v, EvalSort %v → %v", small, large, smallSort, largeSort)
	if large-small >= 32 {
		t.Errorf("Eval allocations grew %v → %v from 64 to 604 records, want growth < 32", small, large)
	}
	if largeSort-smallSort >= 32 {
		t.Errorf("EvalSort allocations grew %v → %v from 64 to 604 records, want growth < 32", smallSort, largeSort)
	}
}
