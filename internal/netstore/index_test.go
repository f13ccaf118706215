package netstore

import (
	"fmt"
	"math/rand"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// randomMatch produces a match record across the shapes the FIND fast
// path must handle: indexed single-key probes, non-indexed multi-field
// shapes, virtual-field matches (scan only), and nil (first of type).
func randomMatch(rng *rand.Rand, recType string) *value.Record {
	if recType == "DIV" {
		switch rng.Intn(3) {
		case 0:
			return value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%03d", rng.Intn(30)))
		case 1:
			return value.FromPairs("DIV-LOC", fmt.Sprintf("L%d", rng.Intn(5)))
		default:
			return nil
		}
	}
	switch rng.Intn(5) {
	case 0:
		return value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(2000)))
	case 1:
		return value.FromPairs("DEPT-NAME", fmt.Sprintf("D%d", rng.Intn(4)))
	case 2:
		return value.FromPairs(
			"EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(2000)),
			"DEPT-NAME", fmt.Sprintf("D%d", rng.Intn(4)))
	case 3: // virtual field: must fall back to the scan
		return value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%03d", rng.Intn(30)))
	default:
		return nil
	}
}

// applyRandomOp drives one random mutation or navigation against the
// session, mirroring the invariants-test workload.
func applyRandomOp(rng *rand.Rand, db *DB, s *Session, divs *int) {
	switch rng.Intn(10) {
	case 0, 1:
		s.Store("DIV", value.FromPairs(
			"DIV-NAME", fmt.Sprintf("DIV-%03d", *divs),
			"DIV-LOC", fmt.Sprintf("L%d", rng.Intn(5))))
		*divs++
	case 2, 3, 4:
		if *divs == 0 {
			return
		}
		s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%03d", rng.Intn(*divs))))
		s.Store("EMP", value.FromPairs(
			"EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(2000)),
			"DEPT-NAME", fmt.Sprintf("D%d", rng.Intn(4)),
			"AGE", 20+rng.Intn(40)))
	case 5:
		ids := db.AllOf("EMP")
		if len(ids) == 0 {
			return
		}
		s.Position(ids[rng.Intn(len(ids))])
		s.Modify("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(2000))))
	case 6:
		ids := db.AllOf("EMP")
		if len(ids) == 0 {
			return
		}
		s.Position(ids[rng.Intn(len(ids))])
		s.Modify("EMP", value.FromPairs("AGE", value.Of(int64(20+rng.Intn(40)))))
	case 7:
		ids := db.AllOf("EMP")
		if len(ids) == 0 {
			return
		}
		s.Position(ids[rng.Intn(len(ids))])
		s.Erase("EMP")
	case 8:
		ids := db.AllOf("DIV")
		if len(ids) == 0 {
			return
		}
		s.Position(ids[rng.Intn(len(ids))])
		s.Erase("DIV")
	case 9:
		s.FindInSet("ALL-DIV", First, nil)
		s.FindInSet("DIV-EMP", Next, nil)
	}
}

// TestIndexedFindEquivalentToScan is the index ≡ scan property test: the
// same seeded random workload runs against an indexed database and an
// identical database with indexing disabled, and every FIND must agree
// on status and currency at every step.
func TestIndexedFindEquivalentToScan(t *testing.T) {
	for _, seed := range []int64{21, 22, 23, 24, 25} {
		rng := rand.New(rand.NewSource(seed))
		indexed := NewDB(schema.CompanyV1())
		plain := NewDB(schema.CompanyV1())
		plain.SetIndexing(false)
		si, sp := NewSession(indexed), NewSession(plain)
		divs, divsP := 0, 0
		for op := 0; op < 500; op++ {
			// Mutations use an independent rng stream position per DB?
			// No: replay the same ops on both by splitting the stream.
			opSeed := rng.Int63()
			applyRandomOp(rand.New(rand.NewSource(opSeed)), indexed, si, &divs)
			applyRandomOp(rand.New(rand.NewSource(opSeed)), plain, sp, &divsP)

			recType := "EMP"
			if rng.Intn(3) == 0 {
				recType = "DIV"
			}
			match := randomMatch(rng, recType)
			sti, erri := si.FindAny(recType, match)
			stp, errp := sp.FindAny(recType, match)
			if (erri == nil) != (errp == nil) || sti != stp || si.Current() != sp.Current() {
				t.Fatalf("seed %d op %d: FindAny %s %v diverged: indexed (%v,%d,%v) scan (%v,%d,%v)",
					seed, op, recType, match, sti, si.Current(), erri, stp, sp.Current(), errp)
			}
			// Walk the duplicate chain to exhaustion on both paths.
			for sti == OK {
				sti, erri = si.FindDuplicate(recType, match)
				stp, errp = sp.FindDuplicate(recType, match)
				if (erri == nil) != (errp == nil) || sti != stp || si.Current() != sp.Current() {
					t.Fatalf("seed %d op %d: FindDuplicate %s %v diverged: indexed (%v,%d) scan (%v,%d)",
						seed, op, recType, match, sti, si.Current(), stp, sp.Current())
				}
			}
		}
		probes, _ := indexed.IndexStatsOf().Snapshot()
		if probes == 0 {
			t.Fatalf("seed %d: indexed run never probed an index", seed)
		}
		pProbes, _ := plain.IndexStatsOf().Snapshot()
		if pProbes != 0 {
			t.Fatalf("seed %d: unindexed run recorded %d probes", seed, pProbes)
		}
	}
}

// TestProbeEligibility pins down which match shapes may use the index:
// exactly an indexed key combination of stored fields, nothing else.
func TestProbeEligibility(t *testing.T) {
	db := NewDB(schema.CompanyV1())
	s := NewSession(db)
	s.Store("DIV", value.FromPairs("DIV-NAME", "D1", "DIV-LOC", "NYC"))
	s.Store("EMP", value.FromPairs("EMP-NAME", "SMITH", "DEPT-NAME", "SALES", "AGE", 30))

	find := func(recType string, match *value.Record) {
		t.Helper()
		if st, err := s.FindAny(recType, match); err != nil || st != OK {
			t.Fatalf("FindAny %s %v: (%v, %v)", recType, match, st, err)
		}
	}
	delta := func(f func()) (probes, scans int64) {
		p0, s0 := db.stats.Snapshot()
		f()
		p1, s1 := db.stats.Snapshot()
		return p1 - p0, s1 - s0
	}

	if p, sc := delta(func() { find("EMP", value.FromPairs("EMP-NAME", "SMITH")) }); p != 1 || sc != 0 {
		t.Fatalf("indexed key shape: probes=%d scans=%d, want 1/0", p, sc)
	}
	if p, sc := delta(func() { find("EMP", value.FromPairs("DEPT-NAME", "SALES")) }); p != 0 || sc != 1 {
		t.Fatalf("non-indexed shape: probes=%d scans=%d, want 0/1", p, sc)
	}
	// EMP.DIV-NAME is virtual (resolved via DIV-EMP ownership): scan only.
	if p, sc := delta(func() { find("EMP", value.FromPairs("DIV-NAME", "D1")) }); p != 0 || sc != 1 {
		t.Fatalf("virtual field shape: probes=%d scans=%d, want 0/1", p, sc)
	}
	// A match with the indexed field null alongside a non-null field is
	// not the indexed combination.
	if p, sc := delta(func() {
		find("EMP", value.FromPairs("EMP-NAME", nil, "DEPT-NAME", "SALES"))
	}); p != 0 || sc != 1 {
		t.Fatalf("null-key shape: probes=%d scans=%d, want 0/1", p, sc)
	}
	// nil match (first of type) stays on the scan path.
	if p, sc := delta(func() { find("EMP", nil) }); p != 0 || sc != 1 {
		t.Fatalf("nil match: probes=%d scans=%d, want 0/1", p, sc)
	}
}

// TestProbeNumericKeyNormalization verifies the probe honours Value
// equality across numeric kinds: an integral Float match must hit the
// bucket of an Int-stored key, exactly as Equal-based matching would.
func TestProbeNumericKeyNormalization(t *testing.T) {
	sch := &schema.Network{
		Name: "NUM",
		Records: []*schema.RecordType{
			{Name: "ITEM", Fields: []schema.Field{
				{Name: "CODE", Kind: value.Int},
				{Name: "LABEL", Kind: value.String},
			}},
		},
		Sets: []*schema.SetType{
			{Name: "ALL-ITEM", Owner: schema.SystemOwner, Member: "ITEM", Keys: []string{"CODE"},
				Insertion: schema.Automatic, Retention: schema.Mandatory},
		},
	}
	db := NewDB(sch)
	s := NewSession(db)
	if _, st, err := s.Store("ITEM", value.FromPairs("CODE", 7, "LABEL", "seven")); err != nil || st != OK {
		t.Fatalf("store: (%v, %v)", st, err)
	}
	st, err := s.FindAny("ITEM", value.FromPairs("CODE", value.F(7.0)))
	if err != nil || st != OK {
		t.Fatalf("FindAny CODE=7.0: (%v, %v)", st, err)
	}
	if probes, _ := db.stats.Snapshot(); probes != 1 {
		t.Fatalf("float-for-int probe did not use the index (probes=%d)", probes)
	}
}

// TestCloneSharesIndexStats pins the aggregation contract: probes on a
// clone (how verification runs execute) count toward the original.
func TestCloneSharesIndexStats(t *testing.T) {
	db := NewDB(schema.CompanyV1())
	s := NewSession(db)
	s.Store("DIV", value.FromPairs("DIV-NAME", "D1", "DIV-LOC", "X"))
	clone := db.Clone()
	cs := NewSession(clone)
	if st, err := cs.FindAny("DIV", value.FromPairs("DIV-NAME", "D1")); err != nil || st != OK {
		t.Fatalf("clone FindAny: (%v, %v)", st, err)
	}
	if probes, _ := db.IndexStatsOf().Snapshot(); probes != 1 {
		t.Fatalf("clone probe not visible on original stats (probes=%d)", probes)
	}
}

// TestEraseFromMiddleOfLargeSetOccurrence is the regression test for the
// splice paths: deleting from the middle of a member list or byType list
// must clear the vacated tail slot so backing arrays never alias a stale
// RecordID.
func TestEraseFromMiddleOfLargeSetOccurrence(t *testing.T) {
	db := NewDB(schema.CompanyV1())
	s := NewSession(db)
	if _, st, err := s.Store("DIV", value.FromPairs("DIV-NAME", "D1", "DIV-LOC", "X")); err != nil || st != OK {
		t.Fatalf("store DIV: (%v, %v)", st, err)
	}
	div := s.Current()
	const n = 100
	emps := make([]RecordID, 0, n)
	for i := 0; i < n; i++ {
		id, st, err := s.Store("EMP", value.FromPairs(
			"EMP-NAME", fmt.Sprintf("E-%03d", i), "DEPT-NAME", "D", "AGE", 30))
		if err != nil || st != OK {
			t.Fatalf("store EMP %d: (%v, %v)", i, st, err)
		}
		emps = append(emps, id)
	}

	// Capture the live backing arrays before the mid-list erase.
	memberList := db.members["DIV-EMP"][div]
	typeList := db.byType["EMP"]
	if len(memberList) != n || len(typeList) != n {
		t.Fatalf("setup: %d members, %d byType", len(memberList), len(typeList))
	}

	s.Position(emps[n/2])
	if st, err := s.Erase("EMP"); err != nil || st != OK {
		t.Fatalf("erase: (%v, %v)", st, err)
	}

	if got := len(db.members["DIV-EMP"][div]); got != n-1 {
		t.Fatalf("member list length %d after erase, want %d", got, n-1)
	}
	// The vacated tail slots of the original backing arrays must be
	// cleared: a stale ID there aliases the next append.
	if memberList[n-1] != 0 {
		t.Fatalf("member list tail still holds stale ID %d", memberList[n-1])
	}
	if typeList[n-1] != 0 {
		t.Fatalf("byType tail still holds stale ID %d", typeList[n-1])
	}
	// The erased employee is gone from scan and probe alike.
	if st, _ := s.FindAny("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E-%03d", n/2))); st != NotFound {
		t.Fatalf("erased employee still findable: %v", st)
	}
	checkInvariants(t, db)
}

// TestCompositeKeysKeepFieldsApart: two PAIR records whose string keys
// would run together if the fields' key forms were only joined with a
// separator byte: (A="p\x1fsq", B="r") and (A="p", B="q\x1fsr"). With
// the first stored, a FIND ANY for the second finds nothing, by index
// probe as by scan; and StoreWith and the bulk loader both store the
// two as distinct set keys.
func TestCompositeKeysKeepFieldsApart(t *testing.T) {
	sch := &schema.Network{
		Name: "PAIRS",
		Records: []*schema.RecordType{{Name: "PAIR", Fields: []schema.Field{
			{Name: "A", Kind: value.String},
			{Name: "B", Kind: value.String},
		}}},
		Sets: []*schema.SetType{
			{Name: "ALL-PAIR", Owner: schema.SystemOwner, Member: "PAIR", Keys: []string{"A", "B"}},
		},
	}
	first := value.FromPairs("A", "p\x1fsq", "B", "r")
	second := value.FromPairs("A", "p", "B", "q\x1fsr")
	for _, indexed := range []bool{true, false} {
		db := NewDB(sch)
		db.SetIndexing(indexed)
		s := NewSession(db)
		if _, st, err := s.Store("PAIR", first); err != nil || st != OK {
			t.Fatalf("store: %v %v", st, err)
		}
		if st, err := s.FindAny("PAIR", second); err != nil || st != NotFound {
			t.Errorf("indexed=%v: FIND ANY of an unstored key = %v %v, want NOT-FOUND", indexed, st, err)
		}
	}
	serial := NewDB(sch)
	bulkDB := NewDB(sch)
	bl := bulkDB.NewBulkLoader(2)
	bulk := prepared(bl)
	for _, rec := range []*value.Record{first, second} {
		m := map[string]RecordID{"ALL-PAIR": OwnerSystem}
		if _, err := serial.StoreWith("PAIR", rec, m); err != nil {
			t.Errorf("StoreWith %v: %v", rec, err)
		}
		if _, err := bulk("PAIR", rec, m); err != nil {
			t.Errorf("bulk load %v: %v", rec, err)
		}
	}
	bl.Close(1)
	if got, want := dumpState(bulkDB), dumpState(serial); got != want {
		t.Errorf("bulk-loaded state diverges:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
	}
}
