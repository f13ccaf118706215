package netstore

import (
	"math"
	"math/rand"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// itemsSchema keys ITEM records by a string and a float both ways round:
// the MANUAL set BOX-ITEM by (A, K) and the SYSTEM set ALL-ITEM, which
// every STORE connects, by (K, A).
func itemsSchema() *schema.Network {
	return &schema.Network{
		Name: "ITEMS",
		Records: []*schema.RecordType{
			{Name: "BOX", Fields: []schema.Field{{Name: "LABEL", Kind: value.String}}},
			{Name: "ITEM", Fields: []schema.Field{
				{Name: "A", Kind: value.String},
				{Name: "K", Kind: value.Float},
			}},
		},
		Sets: []*schema.SetType{
			{Name: "ALL-BOX", Owner: schema.SystemOwner, Member: "BOX"},
			{Name: "ALL-ITEM", Owner: schema.SystemOwner, Member: "ITEM", Keys: []string{"K", "A"}},
			{Name: "BOX-ITEM", Owner: "BOX", Member: "ITEM", Keys: []string{"A", "K"},
				Insertion: schema.Manual},
		},
	}
}

// scanDup is the §4.2 rule by its definition, the oracle for seek: some
// member of the occurrence other than exclude has data's set-key values.
func scanDup(db *DB, set *schema.SetType, owner RecordID, data *value.Record, exclude RecordID) bool {
	if len(set.Keys) == 0 {
		return false
	}
	for _, m := range db.members[set.Name][owner] {
		if m != exclude && value.CompareBy(db.occ(m).data, data, set.Keys) == 0 {
			return true
		}
	}
	return false
}

// TestDuplicateCheckMatchesScan runs random STORE, CONNECT, MODIFY,
// DISCONNECT and ERASE sequences over string-and-float set keys drawn
// from null, NaN, ±Inf and a few numbers. Before each verb it asks the
// scan whether the verb meets a duplicate, and the verb's status must
// agree; after each verb, seek must agree with the scan on random probes
// into every set occurrence, for every exclusion.
func TestDuplicateCheckMatchesScan(t *testing.T) {
	strs := []any{nil, "x", "y"}
	nums := []any{nil, math.NaN(), math.Inf(1), math.Inf(-1), 0.0, 1.0, 2.5}
	rng := rand.New(rand.NewSource(7))
	item := func() *value.Record {
		return value.FromPairs("A", strs[rng.Intn(len(strs))], "K", nums[rng.Intn(len(nums))])
	}
	sch := itemsSchema()
	allItem, boxItem := sch.Set("ALL-ITEM"), sch.Set("BOX-ITEM")
	const boxes = 2
	checked := 0
	for seq := 0; seq < 300; seq++ {
		db := NewDB(itemsSchema())
		s := NewSession(db)
		for b := 0; b < boxes; b++ {
			if _, st, err := s.Store("BOX", value.FromPairs("LABEL", "B")); err != nil || st != OK {
				t.Fatalf("store BOX: %v %v", st, err)
			}
		}
		for step := 0; step < 12; step++ {
			items := db.AllOf("ITEM")
			var want, got Status
			var err error
			switch op := rng.Intn(5); {
			case op == 0 || len(items) == 0:
				rec := item()
				want = OK
				if scanDup(db, allItem, OwnerSystem, rec, -1) {
					want = DuplicateInSet
				}
				_, got, err = s.Store("ITEM", rec)
			case op == 1:
				id := items[rng.Intn(len(items))]
				box := RecordID(1 + rng.Intn(boxes))
				want = OK
				if _, in := db.OwnerOf("BOX-ITEM", id); in {
					want = AlreadyMember
				} else if scanDup(db, boxItem, box, db.occ(id).data, -1) {
					want = DuplicateInSet
				}
				s.Position(box)
				s.Position(id)
				got, err = s.Connect("BOX-ITEM")
			case op == 2:
				id := items[rng.Intn(len(items))]
				rec := item()
				want = OK
				for _, l := range db.occ(id).links {
					if scanDup(db, sch.Set(l.set), l.owner, rec, id) {
						want = DuplicateInSet
					}
				}
				s.Position(id)
				got, err = s.Modify("ITEM", rec)
			case op == 3:
				id := items[rng.Intn(len(items))]
				want = NotMember
				if _, in := db.OwnerOf("BOX-ITEM", id); in {
					want = OK
				}
				s.Position(id)
				got, err = s.Disconnect("BOX-ITEM")
			default:
				want = OK
				s.Position(items[rng.Intn(len(items))])
				got, err = s.Erase("ITEM")
			}
			if err != nil || got != want {
				t.Fatalf("sequence %d step %d: status %v (%v), want %v", seq, step, got, err, want)
			}
			for set, owners := range map[*schema.SetType][]RecordID{
				allItem: {OwnerSystem},
				boxItem: {1, 2},
			} {
				for _, owner := range owners {
					probe := item()
					for _, exclude := range append([]RecordID{-1}, db.members[set.Name][owner]...) {
						if _, dup := db.seek(set, owner, probe, exclude); dup != scanDup(db, set, owner, probe, exclude) {
							t.Fatalf("sequence %d step %d: seek(%s, %d, %v, exclude %d) = %v, scan says %v",
								seq, step, set.Name, owner, probe, exclude, dup, !dup)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d seek answers checked against the scan", checked)
}
