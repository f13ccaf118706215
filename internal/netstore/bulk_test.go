package netstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// dumpState renders the complete database state deterministically:
// every occurrence in byType order with its stored fields and
// memberships, every set occurrence's member list, and the index
// contents. Two databases built by equivalent insert sequences must
// dump byte-identically.
func dumpState(db *DB) string {
	var b strings.Builder
	for _, t := range db.schema.Records {
		for _, id := range db.byType[t.Name] {
			o := db.occ(id)
			fmt.Fprintf(&b, "#%d %s {", id, t.Name)
			first := true
			for _, f := range t.Fields {
				if f.Virtual != nil {
					continue
				}
				if !first {
					b.WriteString(" ")
				}
				first = false
				v, _ := o.data.Get(f.Name)
				fmt.Fprintf(&b, "%s=%s", f.Name, v.String())
			}
			b.WriteString("}")
			links := slices.Clone(o.links)
			sort.Slice(links, func(i, j int) bool { return links[i].set < links[j].set })
			for _, l := range links {
				fmt.Fprintf(&b, " %s<-#%d", l.set, l.owner)
			}
			b.WriteString("\n")
		}
	}
	for _, set := range db.schema.Sets {
		owners := make([]RecordID, 0, len(db.members[set.Name]))
		for o := range db.members[set.Name] {
			owners = append(owners, o)
		}
		sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
		for _, o := range owners {
			if lst := db.members[set.Name][o]; len(lst) > 0 {
				fmt.Fprintf(&b, "set %s owner #%d: %v\n", set.Name, o, lst)
			}
		}
	}
	b.WriteString(db.IndexDump())
	return b.String()
}

// storeFunc abstracts the two insert paths so the same scripted load
// can drive StoreWith and a BulkLoader.
type storeFunc func(recType string, rec *value.Record, memberships map[string]RecordID) (RecordID, error)

// prepared is the bulk side of the parity tests: it resolves a store as
// the data translator's splice does — record type and sets looked up in
// the schema, the record built by Shape — and loads it through
// StorePrepared.
func prepared(b *BulkLoader) storeFunc {
	return func(recType string, rec *value.Record, memberships map[string]RecordID) (RecordID, error) {
		sch := b.db.Schema()
		typ := sch.Record(recType)
		if typ == nil {
			return 0, fmt.Errorf("netstore: unknown record type %s", recType)
		}
		data, err := Shape(typ, rec)
		if err != nil {
			return 0, err
		}
		var targets []Membership
		for setName, owner := range memberships {
			set := sch.Set(setName)
			if set == nil {
				return 0, fmt.Errorf("netstore: unknown set %s", setName)
			}
			targets = append(targets, Membership{set, owner})
		}
		return b.StorePrepared(typ, data, targets)
	}
}

// loadCompany drives a fixed CompanyV1 load — divisions under the
// SYSTEM set, employees deliberately out of key order so Close's sort
// has real work — and returns every assigned ID in store order.
func loadCompany(t *testing.T, store storeFunc) []RecordID {
	t.Helper()
	var ids []RecordID
	must := func(recType string, rec *value.Record, m map[string]RecordID) RecordID {
		id, err := store(recType, rec, m)
		if err != nil {
			t.Fatalf("store %s: %v", recType, err)
		}
		ids = append(ids, id)
		return id
	}
	mach := must("DIV", value.FromPairs("DIV-NAME", "MACHINERY", "DIV-LOC", "DETROIT"),
		map[string]RecordID{"ALL-DIV": OwnerSystem})
	tex := must("DIV", value.FromPairs("DIV-NAME", "TEXTILES", "DIV-LOC", "ATLANTA"),
		map[string]RecordID{"ALL-DIV": OwnerSystem})
	for _, e := range []struct {
		owner RecordID
		name  string
		dept  string
		age   int
	}{
		{mach, "ZIEGLER", "WELDING", 60},
		{mach, "ADAMS", "SALES", 45},
		{tex, "QUINN", "SALES", 39},
		{mach, "MILLER", "SALES", 28},
		{tex, "BAKER", "WEAVING", 51},
	} {
		must("EMP", value.FromPairs("EMP-NAME", e.name, "DEPT-NAME", e.dept, "AGE", e.age),
			map[string]RecordID{"DIV-EMP": e.owner})
	}
	// A record connected to no set at all still loads.
	must("EMP", value.FromPairs("EMP-NAME", "ORPHAN", "DEPT-NAME", "NONE", "AGE", 1), nil)
	return ids
}

// TestBulkLoaderParity: the same insert sequence through StoreWith and
// through a BulkLoader yields byte-identical databases — IDs, stored
// data, memberships, keyed-set orderings, and index buckets.
func TestBulkLoaderParity(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("close-parallelism-%d", par), func(t *testing.T) {
			serial := NewDB(schema.CompanyV1())
			serialIDs := loadCompany(t, serial.StoreWith)

			bulkDB := NewDB(schema.CompanyV1())
			bl := bulkDB.NewBulkLoader(8)
			bulkIDs := loadCompany(t, prepared(bl))
			bl.Close(par)

			if fmt.Sprint(serialIDs) != fmt.Sprint(bulkIDs) {
				t.Fatalf("assigned IDs diverge:\nserial %v\nbulk   %v", serialIDs, bulkIDs)
			}
			if bl.Loaded() != len(bulkIDs) {
				t.Errorf("Loaded() = %d, want %d", bl.Loaded(), len(bulkIDs))
			}
			if got, want := dumpState(bulkDB), dumpState(serial); got != want {
				t.Errorf("bulk-loaded state diverges:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
			}
		})
	}
	// value.Compare finds NaN equal to every number, so with a NaN in a
	// key field before the last the key order is no total order: Close
	// must order each occurrence as StoreWith's inserts did, not as a
	// stable sort would.
	t.Run("nan-keys", func(t *testing.T) {
		strs := []any{nil, "x", "y"}
		nums := []any{nil, math.NaN(), math.Inf(1), math.Inf(-1), 0.0, 1.0, 2.5}
		rng := rand.New(rand.NewSource(11))
		for load := 0; load < 2000; load++ {
			serial := NewDB(itemsSchema())
			bulkDB := NewDB(itemsSchema())
			bl := bulkDB.NewBulkLoader(10)
			store := prepared(bl)
			for i := 0; i < 10; i++ {
				rec := value.FromPairs("A", strs[rng.Intn(len(strs))], "K", nums[rng.Intn(len(nums))])
				m := map[string]RecordID{"ALL-ITEM": OwnerSystem}
				sid, serr := serial.StoreWith("ITEM", rec, m)
				bid, berr := store("ITEM", rec, m)
				if sid != bid || fmt.Sprint(serr) != fmt.Sprint(berr) {
					t.Fatalf("load %d, store %d of %v: StoreWith (%d, %v), bulk (%d, %v)", load, i, rec, sid, serr, bid, berr)
				}
			}
			bl.Close(4)
			if got, want := dumpState(bulkDB), dumpState(serial); got != want {
				t.Fatalf("load %d: bulk-loaded state diverges:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", load, want, got)
			}
		}
	})
}

// TestBulkLoaderParityUnindexed: the loader behaves identically when
// the keyed FIND fast path is disabled (db.indexes == nil).
func TestBulkLoaderParityUnindexed(t *testing.T) {
	serial := NewDB(schema.CompanyV1())
	serial.SetIndexing(false)
	loadCompany(t, serial.StoreWith)

	bulkDB := NewDB(schema.CompanyV1())
	bulkDB.SetIndexing(false)
	bl := bulkDB.NewBulkLoader(8)
	loadCompany(t, prepared(bl))
	bl.Close(2)

	if got, want := dumpState(bulkDB), dumpState(serial); got != want {
		t.Errorf("unindexed state diverges:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
	}
}

// TestBulkLoaderErrorParity: every validation failure surfaces the same
// error string as StoreWith, rejects the record in both paths (no ID is
// consumed), and leaves both databases equal afterward.
func TestBulkLoaderErrorParity(t *testing.T) {
	serial := NewDB(schema.CompanyV1())
	loadCompany(t, serial.StoreWith)
	bulkDB := NewDB(schema.CompanyV1())
	bl := bulkDB.NewBulkLoader(8)
	store := prepared(bl)
	loadCompany(t, store)

	emp := value.FromPairs("EMP-NAME", "NEW", "DEPT-NAME", "SALES", "AGE", 30)
	cases := []struct {
		name    string
		recType string
		rec     *value.Record
		m       map[string]RecordID
	}{
		{"unknown-record-type", "NOPE", emp, nil},
		{"kind-mismatch", "EMP",
			value.FromPairs("EMP-NAME", "NEW", "DEPT-NAME", "SALES", "AGE", "old"), nil},
		{"unknown-set", "EMP", emp, map[string]RecordID{"NO-SET": 1}},
		{"not-member-type", "DIV",
			value.FromPairs("DIV-NAME", "X", "DIV-LOC", "Y"), map[string]RecordID{"DIV-EMP": 1}},
		{"system-owned", "DIV",
			value.FromPairs("DIV-NAME", "X", "DIV-LOC", "Y"), map[string]RecordID{"ALL-DIV": 1}},
		{"owner-missing", "EMP", emp, map[string]RecordID{"DIV-EMP": 999}},
		{"owner-wrong-type", "EMP", emp, map[string]RecordID{"DIV-EMP": 3}}, // #3 is an EMP
		{"duplicate-set-key", "EMP",
			value.FromPairs("EMP-NAME", "ADAMS", "DEPT-NAME", "SALES", "AGE", 45),
			map[string]RecordID{"DIV-EMP": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := serial.StoreWith(tc.recType, tc.rec, tc.m)
			_, berr := store(tc.recType, tc.rec, tc.m)
			if serr == nil || berr == nil {
				t.Fatalf("expected errors, got StoreWith=%v bulk=%v", serr, berr)
			}
			if serr.Error() != berr.Error() {
				t.Errorf("error strings diverge:\nStoreWith: %v\nbulk:      %v", serr, berr)
			}
		})
	}
	// Failed stores consumed no IDs; the next insert stays in lockstep.
	sid, serr := serial.StoreWith("EMP", emp, map[string]RecordID{"DIV-EMP": 2})
	bid, berr := store("EMP", emp, map[string]RecordID{"DIV-EMP": 2})
	if serr != nil || berr != nil || sid != bid {
		t.Fatalf("post-error store: serial (%d, %v) vs bulk (%d, %v)", sid, serr, bid, berr)
	}
	bl.Close(0)
	if got, want := dumpState(bulkDB), dumpState(serial); got != want {
		t.Errorf("state diverges after error sequence:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
	}

	// value.Compare finds NaN equal to every number, so StoreWith
	// rejects a number after a NaN under the same string key, and a NaN
	// after a number; value.Key would tell them apart.
	t.Run("duplicate-nan-key", func(t *testing.T) {
		nan := math.NaN()
		serial := NewDB(itemsSchema())
		bulkDB := NewDB(itemsSchema())
		bl := bulkDB.NewBulkLoader(0)
		store := prepared(bl)
		for i, st := range []struct {
			recType string
			rec     *value.Record
			m       map[string]RecordID
			dup     bool
		}{
			{"BOX", value.FromPairs("LABEL", "B1"), map[string]RecordID{"ALL-BOX": OwnerSystem}, false},
			{"BOX", value.FromPairs("LABEL", "B2"), map[string]RecordID{"ALL-BOX": OwnerSystem}, false},
			{"ITEM", value.FromPairs("A", "x", "K", nan), map[string]RecordID{"BOX-ITEM": 1}, false},
			{"ITEM", value.FromPairs("A", "x", "K", 1.0), map[string]RecordID{"BOX-ITEM": 1}, true},
			{"ITEM", value.FromPairs("A", "y", "K", 1.0), map[string]RecordID{"BOX-ITEM": 1}, false},
			{"ITEM", value.FromPairs("A", "x", "K", 1.0), map[string]RecordID{"BOX-ITEM": 2}, false},
			{"ITEM", value.FromPairs("A", "x", "K", nan), map[string]RecordID{"BOX-ITEM": 2}, true},
			{"ITEM", value.FromPairs("A", "x", "K", nil), map[string]RecordID{"BOX-ITEM": 2}, false},
		} {
			sid, serr := serial.StoreWith(st.recType, st.rec, st.m)
			bid, berr := store(st.recType, st.rec, st.m)
			if (serr != nil) != st.dup {
				t.Fatalf("store %d: StoreWith error %v, want a duplicate error: %v", i, serr, st.dup)
			}
			if fmt.Sprint(serr) != fmt.Sprint(berr) || sid != bid {
				t.Errorf("store %d: StoreWith (%d, %v), bulk (%d, %v)", i, sid, serr, bid, berr)
			}
		}
		bl.Close(1)
		if got, want := dumpState(bulkDB), dumpState(serial); got != want {
			t.Errorf("state diverges:\n--- StoreWith ---\n%s--- BulkLoader ---\n%s", want, got)
		}
	})
}

// TestNewBulkLoaderNeedsEmptyDB: the loader's duplicate table starts
// empty, so it refuses a database that already holds records.
func TestNewBulkLoaderNeedsEmptyDB(t *testing.T) {
	db, _ := seedCompany(t)
	defer func() {
		if recover() == nil {
			t.Error("NewBulkLoader on a populated database did not panic")
		}
	}()
	db.NewBulkLoader(0)
}

// TestBulkConnectKeepsNeighbourLinks: the loader carves each
// occurrence's set links from a shared slab, capped at the sets it was
// loaded into, so a later CONNECT reallocates the record's links rather
// than writing into the next record's, on the loaded database and on
// its clone, whose links share one allocation too.
func TestBulkConnectKeepsNeighbourLinks(t *testing.T) {
	db := NewDB(itemsSchema())
	sch := db.Schema()
	bl := db.NewBulkLoader(8)
	store := func(typ string, rec *value.Record, set string) RecordID {
		t.Helper()
		data, err := Shape(sch.Record(typ), rec)
		if err != nil {
			t.Fatal(err)
		}
		id, err := bl.StorePrepared(sch.Record(typ), data, []Membership{{sch.Set(set), OwnerSystem}})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	box := store("BOX", value.FromPairs("LABEL", "B"), "ALL-BOX")
	var items []RecordID
	for i := 0; i < 6; i++ {
		items = append(items, store("ITEM", value.FromPairs("A", fmt.Sprint(i), "K", float64(i)), "ALL-ITEM"))
	}
	bl.Close(1)
	for _, target := range []*DB{db, db.Clone()} {
		origin := dumpState(db)
		s := NewSession(target)
		for _, id := range items[:4] {
			s.Position(box)
			s.Position(id)
			if st, err := s.Connect("BOX-ITEM"); err != nil || st != OK {
				t.Fatalf("CONNECT %d: %v %v", id, st, err)
			}
		}
		s.Position(items[1])
		if st, err := s.Disconnect("BOX-ITEM"); err != nil || st != OK {
			t.Fatalf("DISCONNECT: %v %v", st, err)
		}
		for i, id := range items {
			if owner, in := target.OwnerOf("ALL-ITEM", id); !in || owner != OwnerSystem {
				t.Errorf("item %d lost its ALL-ITEM link: %d %v", i, owner, in)
			}
			owner, in := target.OwnerOf("BOX-ITEM", id)
			if want := i < 4 && i != 1; in != want || (in && owner != box) {
				t.Errorf("item %d: BOX-ITEM owner %d connected %v, want connected %v", i, owner, in, want)
			}
			if n := len(target.occ(id).links); n != 1 && n != 2 {
				t.Errorf("item %d holds %d links", i, n)
			}
		}
		checkInvariants(t, target)
		if target != db && dumpState(db) != origin {
			t.Errorf("mutating the clone changed its origin")
		}
	}
}
