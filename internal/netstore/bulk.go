package netstore

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// BulkMembership is one resolved set connection for a bulk-loaded
// record: the destination set type (already looked up in the schema)
// and the owner occurrence to connect under (OwnerSystem for SYSTEM
// sets).
type BulkMembership struct {
	Set   *schema.SetType
	Owner RecordID
}

// bulkKey identifies one set-key composite within a set occurrence, the
// hash form of the duplicate check StoreWith performs by scanning.
type bulkKey struct {
	set   string
	owner RecordID
	key   string
}

// BulkLoader is the batched insert path of the data translator's merge
// phase. It produces a database indistinguishable from one built by the
// same sequence of StoreWith calls — same record IDs, same set
// orderings, same index contents, same error messages in the same
// order — while deferring the per-record costs that dominate StoreWith:
//
//   - index maintenance is postponed; Close rebuilds each touched
//     type's indexes once, in ascending-ID order (identical buckets,
//     since incremental adds see monotonic IDs too);
//   - keyed-set member ordering is postponed: members append in
//     insertion order and Close runs one stable sort per occurrence
//     list, which reproduces insertOrdered's ascending-keys,
//     insertion-order-among-equals placement;
//   - the §4.2 duplicate-key check is a hash probe on the composite
//     key form instead of a CompareBy scan (equivalent, because stored
//     values of one field are kind-checked to a single kind and
//     value.Key normalizes integral floats);
//   - occurrences are slab-allocated and the record table is pre-sized.
//
// Between NewBulkLoader and Close the database must not be read or
// mutated through any other path. A loader is single-use: discard it
// after Close.
type BulkLoader struct {
	db      *DB
	slab    []occurrence
	dup     map[bulkKey]struct{}
	touched map[string]struct{}
	pending []bulkKey
	loaded  int
}

const bulkSlabSize = 512

// NewBulkLoader starts a bulk load expecting about `expected` records
// (a sizing hint; zero is fine).
func (db *DB) NewBulkLoader(expected int) *BulkLoader {
	if db.readOnly {
		panic(ErrReadOnly)
	}
	if expected > 0 && len(db.recs) == 0 {
		db.recs = make(map[RecordID]*occurrence, expected)
	}
	b := &BulkLoader{
		db:      db,
		dup:     make(map[bulkKey]struct{}, expected),
		touched: make(map[string]struct{}),
	}
	// Seed the duplicate table with the pre-existing members of keyed
	// sets, so loads into a non-empty database keep StoreWith's checks.
	for _, set := range db.schema.Sets {
		if len(set.Keys) == 0 {
			continue
		}
		for owner, lst := range db.members[set.Name] {
			for _, id := range lst {
				b.dup[bulkKey{set.Name, owner, db.recs[id].data.KeyOf(set.Keys)}] = struct{}{}
			}
		}
	}
	return b
}

// Loaded returns how many records this loader has inserted.
func (b *BulkLoader) Loaded() int { return b.loaded }

func (b *BulkLoader) alloc() *occurrence {
	if len(b.slab) == 0 {
		b.slab = make([]occurrence, bulkSlabSize)
	}
	o := &b.slab[0]
	b.slab = b.slab[1:]
	return o
}

// Store inserts a record through the bulk path with the same contract —
// validation order, error messages, resulting state — as StoreWith.
func (b *BulkLoader) Store(recType string, rec *value.Record, memberships map[string]RecordID) (RecordID, error) {
	db := b.db
	typ := db.schema.Record(recType)
	if typ == nil {
		return 0, fmt.Errorf("netstore: unknown record type %s", recType)
	}
	data := value.NewRecordSize(len(typ.Fields))
	for _, f := range typ.Fields {
		if f.Virtual != nil {
			continue
		}
		v, _ := rec.Get(f.Name)
		if !v.IsNull() && v.Kind() != f.Kind {
			return 0, fmt.Errorf("netstore: %s.%s: value kind %v, field kind %v",
				recType, f.Name, v.Kind(), f.Kind)
		}
		data.Set(f.Name, v)
	}
	var targets []BulkMembership
	for setName, owner := range memberships {
		set := db.schema.Set(setName)
		if set == nil {
			return 0, fmt.Errorf("netstore: unknown set %s", setName)
		}
		targets = append(targets, BulkMembership{Set: set, Owner: owner})
	}
	return b.StorePrepared(typ, data, targets)
}

// StorePrepared inserts a pre-built data record (stored fields only, in
// schema field order, already kind-checked against typ) with resolved
// membership targets. It is the zero-copy entry point for the sharded
// data translator, whose workers prepare data records off-thread; the
// membership validation — and its error strings — match StoreWith's
// exactly.
func (b *BulkLoader) StorePrepared(typ *schema.RecordType, data *value.Record, targets []BulkMembership) (RecordID, error) {
	db := b.db
	b.pending = b.pending[:0]
	for _, tg := range targets {
		set := tg.Set
		if set.Member != typ.Name {
			return 0, fmt.Errorf("netstore: %s is not the member type of set %s", typ.Name, set.Name)
		}
		if set.IsSystem() {
			if tg.Owner != OwnerSystem {
				return 0, fmt.Errorf("netstore: set %s is SYSTEM-owned", set.Name)
			}
		} else {
			o, ok := db.recs[tg.Owner]
			if !ok {
				return 0, fmt.Errorf("netstore: set %s: owner %d does not exist", set.Name, tg.Owner)
			}
			if o.typ.Name != set.Owner {
				return 0, fmt.Errorf("netstore: set %s: owner %d is a %s, not a %s",
					set.Name, tg.Owner, o.typ.Name, set.Owner)
			}
		}
		if len(set.Keys) > 0 {
			k := bulkKey{set.Name, tg.Owner, data.KeyOf(set.Keys)}
			if _, dup := b.dup[k]; dup {
				return 0, fmt.Errorf("netstore: set %s: duplicate set key in occurrence", set.Name)
			}
			b.pending = append(b.pending, k)
		}
	}
	o := b.alloc()
	o.id = db.nextID
	o.typ = typ
	o.data = data
	o.memberOf = make(map[string]RecordID, len(targets))
	db.nextID++
	db.recs[o.id] = o
	db.byType[typ.Name] = append(db.byType[typ.Name], o.id)
	b.touched[typ.Name] = struct{}{}
	for _, tg := range targets {
		db.members[tg.Set.Name][tg.Owner] = append(db.members[tg.Set.Name][tg.Owner], o.id)
		o.memberOf[tg.Set.Name] = tg.Owner
	}
	for _, k := range b.pending {
		b.dup[k] = struct{}{}
	}
	b.loaded++
	return o.id, nil
}

// Close finishes the load: keyed-set member lists regain their ordered
// form and every touched type's indexes are rebuilt, fanned out over up
// to `parallelism` workers (<= 0 means GOMAXPROCS). The database is
// fully consistent — and identical to the StoreWith-built equivalent —
// once Close returns.
func (b *BulkLoader) Close(parallelism int) {
	db := b.db
	var tasks []func()
	for _, set := range db.schema.Sets {
		if len(set.Keys) == 0 {
			continue
		}
		if _, ok := b.touched[set.Member]; !ok {
			continue
		}
		keys := set.Keys
		for _, lst := range db.members[set.Name] {
			if len(lst) < 2 {
				continue
			}
			lst := lst
			tasks = append(tasks, func() {
				sort.SliceStable(lst, func(i, j int) bool {
					return value.CompareBy(db.recs[lst[i]].data, db.recs[lst[j]].data, keys) < 0
				})
			})
		}
	}
	if db.indexes != nil {
		for typName := range b.touched {
			idxs := db.indexes[typName]
			if len(idxs) == 0 {
				continue
			}
			ids := db.byType[typName]
			for _, ix := range idxs {
				ix := ix
				tasks = append(tasks, func() {
					// IDs ascend in byType order, so every add takes the
					// append fast path and buckets come out exactly as
					// incremental maintenance would have built them.
					ix.buckets = make(map[string][]RecordID, len(ids))
					for _, id := range ids {
						ix.add(id, db.recs[id].data)
					}
				})
			}
		}
	}
	runTasks(tasks, parallelism)
}

// runTasks drains independent closures over a bounded worker pool.
// Tasks only read shared state (db.recs) and write disjoint slices, so
// any interleaving yields the same database.
func runTasks(tasks []func(), parallelism int) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(tasks) {
		parallelism = len(tasks)
	}
	if parallelism <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan func())
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				t()
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
}
