package netstore

import (
	"fmt"
	"math/rand"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// checkInvariants verifies the structural invariants the engine promises
// after any operation sequence:
//
//  1. membership is bidirectional: OwnerOf and Members agree exactly;
//  2. every set occurrence is ordered by the set's keys;
//  3. no duplicate set-key values inside one occurrence;
//  4. AUTOMATIC+MANDATORY members of non-SYSTEM sets are always connected
//     (they cannot be stored without an owner or disconnected later);
//  5. every hash index is exactly the partition of byType by key value,
//     with buckets in ascending (= scan) order.
func checkInvariants(t *testing.T, db *DB) {
	t.Helper()
	checkIndexStructure(t, db)
	sch := db.Schema()
	for _, set := range sch.Sets {
		// Collect owner → members as recorded in the occurrence lists.
		owners := []RecordID{OwnerSystem}
		if !set.IsSystem() {
			owners = db.AllOf(set.Owner)
		}
		listed := map[RecordID]RecordID{} // member -> owner per lists
		for _, owner := range owners {
			members := db.Members(set.Name, owner)
			seenKeys := map[string]bool{}
			for i, m := range members {
				listed[m] = owner
				data := db.StoredData(m)
				if data == nil {
					t.Fatalf("set %s lists erased record %d", set.Name, m)
				}
				if len(set.Keys) > 0 {
					k := data.KeyOf(set.Keys)
					if seenKeys[k] {
						t.Fatalf("set %s occurrence of %d has duplicate key %v", set.Name, owner, set.Keys)
					}
					seenKeys[k] = true
					if i > 0 {
						prev := db.StoredData(members[i-1])
						if value.CompareBy(prev, data, set.Keys) > 0 {
							t.Fatalf("set %s occurrence of %d out of order at %d", set.Name, owner, i)
						}
					}
				}
			}
		}
		// Every member's OwnerOf agrees with the occurrence lists.
		for _, m := range db.AllOf(set.Member) {
			owner, connected := db.OwnerOf(set.Name, m)
			lo, inList := listed[m]
			if connected != inList {
				t.Fatalf("set %s: record %d connected=%v but inList=%v", set.Name, m, connected, inList)
			}
			if connected && owner != lo {
				t.Fatalf("set %s: record %d OwnerOf=%d but listed under %d", set.Name, m, owner, lo)
			}
			if !connected && set.Insertion == schema.Automatic && set.Retention == schema.Mandatory {
				t.Fatalf("set %s: AUTOMATIC MANDATORY member %d is disconnected", set.Name, m)
			}
		}
	}
}

// checkIndexStructure rebuilds every index's expected buckets from the
// byType lists and compares them with the incrementally maintained ones.
func checkIndexStructure(t *testing.T, db *DB) {
	t.Helper()
	for typ, idxs := range db.indexes {
		for _, ix := range idxs {
			want := map[string][]RecordID{}
			for _, id := range db.byType[typ] {
				k := db.occ(id).data.KeyOf(ix.fields)
				want[k] = append(want[k], id)
			}
			if len(want) != len(ix.buckets) {
				t.Fatalf("index %s%v: %d buckets, want %d", typ, ix.fields, len(ix.buckets), len(want))
			}
			for k, ids := range want {
				got := ix.buckets[k]
				if len(got) != len(ids) {
					t.Fatalf("index %s%v bucket %q: %v, want %v", typ, ix.fields, k, got, ids)
				}
				for i := range ids {
					if got[i] != ids[i] {
						t.Fatalf("index %s%v bucket %q: %v, want %v", typ, ix.fields, k, got, ids)
					}
				}
			}
		}
	}
}

// oracleFind is an independent reimplementation of the FIND scan used as
// ground truth: first occurrence after `after` in insertion order whose
// resolved record agrees with every non-null match field.
func oracleFind(db *DB, recType string, match *value.Record, after RecordID) RecordID {
	skipping := after != 0
	for _, id := range db.AllOf(recType) {
		if skipping {
			if id == after {
				skipping = false
			}
			continue
		}
		ok := true
		if match != nil {
			rec := db.Data(id)
			for _, n := range match.Names() {
				want := match.MustGet(n)
				if want.IsNull() {
					continue
				}
				if !rec.MustGet(n).Equal(want) {
					ok = false
					break
				}
			}
		}
		if ok {
			return id
		}
	}
	return 0
}

// checkFindAgainstOracle runs FindAny and the full FindDuplicate chain on
// a fresh session and asserts each step lands exactly where the oracle
// scan says it must — regardless of whether the index or the scan path
// answered.
func checkFindAgainstOracle(t *testing.T, db *DB, recType string, match *value.Record) {
	t.Helper()
	s := NewSession(db)
	st, err := s.FindAny(recType, match)
	if err != nil {
		t.Fatalf("FindAny %s %v: %v", recType, match, err)
	}
	cur := oracleFind(db, recType, match, 0)
	if cur == 0 {
		if st != NotFound {
			t.Fatalf("FindAny %s %v: status %v, oracle found nothing", recType, match, st)
		}
		return
	}
	if st != OK || s.Current() != cur {
		t.Fatalf("FindAny %s %v: got (%v, %d), oracle %d", recType, match, st, s.Current(), cur)
	}
	for {
		st, err = s.FindDuplicate(recType, match)
		if err != nil {
			t.Fatalf("FindDuplicate %s %v: %v", recType, match, err)
		}
		next := oracleFind(db, recType, match, cur)
		if next == 0 {
			if st != NotFound {
				t.Fatalf("FindDuplicate %s %v after %d: status %v, oracle exhausted", recType, match, cur, st)
			}
			return
		}
		if st != OK || s.Current() != next {
			t.Fatalf("FindDuplicate %s %v after %d: got (%v, %d), oracle %d",
				recType, match, cur, st, s.Current(), next)
		}
		cur = next
	}
}

// TestRandomOperationSequencesPreserveInvariants drives the engine with
// seeded random operation mixes and checks the invariants throughout.
func TestRandomOperationSequencesPreserveInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(schema.CompanyV1())
		s := NewSession(db)
		divs := 0
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0, 1: // store a division
				s.Store("DIV", value.FromPairs(
					"DIV-NAME", fmt.Sprintf("DIV-%03d", divs),
					"DIV-LOC", fmt.Sprintf("L%d", rng.Intn(5))))
				divs++
			case 2, 3, 4: // position on a random division and store an employee
				if divs == 0 {
					continue
				}
				s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%03d", rng.Intn(divs))))
				s.Store("EMP", value.FromPairs(
					"EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(2000)),
					"DEPT-NAME", fmt.Sprintf("D%d", rng.Intn(4)),
					"AGE", 20+rng.Intn(40)))
			case 5: // modify a random employee's set key (forces reordering)
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Modify("EMP", value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(2000))))
			case 6: // modify a non-key field
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Modify("EMP", value.FromPairs("AGE", value.Of(int64(20+rng.Intn(40)))))
			case 7: // erase a random employee
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Erase("EMP")
			case 8: // erase a random division (cascades its employees)
				ids := db.AllOf("DIV")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Erase("DIV")
			case 9: // navigate around (must not corrupt anything)
				s.FindInSet("ALL-DIV", First, nil)
				s.FindInSet("ALL-DIV", Next, nil)
				s.FindInSet("DIV-EMP", Next, nil)
				s.FindOwner("DIV-EMP")
			}
			// Indexed FIND agrees with the scan oracle after every op.
			recType := "EMP"
			if rng.Intn(3) == 0 {
				recType = "DIV"
			}
			checkFindAgainstOracle(t, db, recType, randomMatch(rng, recType))
			if op%50 == 0 {
				checkInvariants(t, db)
			}
		}
		checkInvariants(t, db)
		// The clone carries identical structure.
		checkInvariants(t, db.Clone())
	}
}

// TestRandomSequencesWithManualOptionalSets exercises CONNECT/DISCONNECT
// under the same invariant checks.
func TestRandomSequencesWithManualOptionalSets(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Insertion = schema.Manual
	sch.Set("DIV-EMP").Retention = schema.Optional
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(sch.Clone())
		s := NewSession(db)
		for d := 0; d < 3; d++ {
			s.Store("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%d", d), "DIV-LOC", "X"))
		}
		for op := 0; op < 300; op++ {
			switch rng.Intn(6) {
			case 0, 1: // store a free-floating employee
				s.Store("EMP", value.FromPairs(
					"EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(500)),
					"DEPT-NAME", "D", "AGE", 30))
			case 2, 3: // connect a random employee under a random division
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.FindAny("DIV", value.FromPairs("DIV-NAME", fmt.Sprintf("DIV-%d", rng.Intn(3))))
				s.Position(ids[rng.Intn(len(ids))])
				s.Connect("DIV-EMP")
			case 4: // disconnect
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Disconnect("DIV-EMP")
			case 5: // erase
				ids := db.AllOf("EMP")
				if len(ids) == 0 {
					continue
				}
				s.Position(ids[rng.Intn(len(ids))])
				s.Erase("EMP")
			}
			// CONNECT/DISCONNECT don't change stored keys, but the index
			// must still agree with the oracle after every interleaving.
			checkFindAgainstOracle(t, db, "EMP",
				value.FromPairs("EMP-NAME", fmt.Sprintf("E-%04d", rng.Intn(500))))
			if op%40 == 0 {
				checkInvariants(t, db)
			}
		}
		checkInvariants(t, db)
	}
}

// TestRandomOperationsAfterBulkLoad runs one random sequence of STORE,
// CONNECT, DISCONNECT, MODIFY and ERASE on a bulk-loaded database,
// whose set links are carved from a shared slab, and on its
// StoreWith-built twin. Every verb must answer alike on both, the two
// must dump alike after every verb, and the invariants must hold; the
// records join two keyed sets, so MODIFY repositions and ERASE
// disconnects through more than one link.
func TestRandomOperationsAfterBulkLoad(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bulk, ref := NewDB(itemsSchema()), NewDB(itemsSchema())
		sch := bulk.Schema()
		bl := bulk.NewBulkLoader(0)
		load := func(typ string, rec *value.Record, targets []Membership) {
			t.Helper()
			m := map[string]RecordID{}
			for _, tg := range targets {
				m[tg.Set.Name] = tg.Owner
			}
			_, refErr := ref.StoreWith(typ, rec, m)
			data, err := Shape(sch.Record(typ), rec)
			if err != nil {
				t.Fatal(err)
			}
			// Only whether they refuse can agree: which duplicate set
			// StoreWith names depends on its map's order.
			if _, err := bl.StorePrepared(sch.Record(typ), data, targets); (err == nil) != (refErr == nil) {
				t.Fatalf("seed %d: bulk load %v, StoreWith %v", seed, err, refErr)
			}
		}
		item := func() *value.Record {
			return value.FromPairs("A", fmt.Sprint(rng.Intn(6)), "K", float64(rng.Intn(4)))
		}
		const boxes = 3
		for b := 0; b < boxes; b++ {
			load("BOX", value.FromPairs("LABEL", fmt.Sprint(b)), []Membership{{sch.Set("ALL-BOX"), OwnerSystem}})
		}
		for i := 0; i < 30; i++ {
			targets := []Membership{{sch.Set("ALL-ITEM"), OwnerSystem}}
			if rng.Intn(2) == 0 {
				targets = append(targets, Membership{sch.Set("BOX-ITEM"), RecordID(1 + rng.Intn(boxes))})
			}
			load("ITEM", item(), targets)
		}
		bl.Close(2)
		bs, rs := NewSession(bulk), NewSession(ref)
		for op := 0; op < 200; op++ {
			ids := ref.AllOf("ITEM")
			if len(ids) == 0 {
				break
			}
			id := ids[rng.Intn(len(ids))]
			box := RecordID(1 + rng.Intn(boxes))
			var verb string
			do := func(s *Session) (Status, error) {
				switch r := rng.Intn(10); {
				case r < 2:
					verb = "STORE"
					_, st, err := s.Store("ITEM", item())
					return st, err
				case r < 5:
					verb = "CONNECT"
					s.Position(box)
					s.Position(id)
					return s.Connect("BOX-ITEM")
				case r < 7:
					verb = "DISCONNECT"
					s.Position(id)
					return s.Disconnect("BOX-ITEM")
				case r < 9:
					verb = "MODIFY"
					s.Position(id)
					return s.Modify("ITEM", item())
				default:
					verb = "ERASE"
					s.Position(id)
					return s.Erase("ITEM")
				}
			}
			state := rng.Int63()
			rng.Seed(state)
			bst, berr := do(bs)
			rng.Seed(state)
			rst, rerr := do(rs)
			if bst != rst || fmt.Sprint(berr) != fmt.Sprint(rerr) {
				t.Fatalf("seed %d op %d %s: bulk-loaded %v %v, StoreWith-built %v %v", seed, op, verb, bst, berr, rst, rerr)
			}
			if b, r := dumpState(bulk), dumpState(ref); b != r {
				t.Fatalf("seed %d op %d %s: databases diverged:\n%s\nvs\n%s", seed, op, verb, b, r)
			}
			if op%20 == 0 {
				checkInvariants(t, bulk)
			}
		}
		checkInvariants(t, bulk)
	}
}
