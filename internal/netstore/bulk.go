package netstore

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// bulkKey identifies one set-key composite within a set occurrence, the
// hash form of the §4.2 duplicate check that seek answers by bisection.
type bulkKey struct {
	set   string
	owner RecordID
	key   string
}

// BulkLoader is the batched insert path of the data translator's merge
// phase. It loads a fresh database into the state the same sequence of
// StoreWith calls builds — same record IDs, same set orderings, same
// index contents, same error messages in the same order — while
// deferring the per-record costs of keeping it ordered:
//
//   - index maintenance is postponed; Close rebuilds each touched
//     type's indexes once, in ascending-ID order (identical buckets,
//     since incremental adds see monotonic IDs too);
//   - keyed-set member ordering is postponed: members append in
//     insertion order and Close runs one stable sort per occurrence
//     list, which reproduces the ordered insert's ascending-keys,
//     insertion-order-among-equals placement; once a NaN key has been
//     loaded, when the key order is no total order, Close replays
//     each list's inserts instead;
//   - with the lists unordered until Close, the §4.2 duplicate-key
//     check is a hash probe on the composite key form (equivalent,
//     because stored values of one field are kind-checked to a single
//     kind and value.Key normalizes integral floats), except that
//     value.Key gives NaN a key of its own: while the record or the
//     database holds a NaN key, the check compares the record with
//     every member, as seek does;
//   - the occurrence table is pre-sized.
//
// Between NewBulkLoader and Close the database must not be read or
// mutated through any other path. A loader is single-use: discard it
// after Close.
type BulkLoader struct {
	db      *DB
	dup     map[bulkKey]struct{}
	touched map[string]struct{}
	pending []bulkKey
	loaded  int
}

// NewBulkLoader starts a bulk load into the database, which must be
// empty, expecting about `expected` records (a sizing hint; zero is
// fine). It panics on a view or on a database that holds records.
func (db *DB) NewBulkLoader(expected int) *BulkLoader {
	if db.readOnly {
		panic(ErrReadOnly)
	}
	if db.live > 0 {
		panic("netstore: NewBulkLoader on a database that holds records")
	}
	if expected > 0 {
		db.recs = slices.Grow(db.recs, expected)
	}
	return &BulkLoader{
		db:      db,
		dup:     make(map[bulkKey]struct{}, expected),
		touched: make(map[string]struct{}),
	}
}

// Loaded returns how many records this loader has inserted.
func (b *BulkLoader) Loaded() int { return b.loaded }

// StorePrepared inserts a record shaped by Shape for typ with resolved
// membership targets. The sharded data translator's workers shape
// records off-thread and splice them through here; the membership
// checks and their error strings are StoreWith's.
func (b *BulkLoader) StorePrepared(typ *schema.RecordType, data *value.Record, targets []Membership) (RecordID, error) {
	db := b.db
	b.pending = b.pending[:0]
	for _, tg := range targets {
		if err := db.checkMembership(typ, tg); err != nil {
			return 0, err
		}
		set := tg.Set
		if len(set.Keys) == 0 {
			continue
		}
		var dup bool
		if db.nanKeys || hasNaN(data, set.Keys) {
			dup = db.holdsKey(set, tg.Owner, data, -1)
		} else {
			k := bulkKey{set.Name, tg.Owner, data.KeyOf(set.Keys)}
			_, dup = b.dup[k]
			b.pending = append(b.pending, k)
		}
		if dup {
			return 0, fmt.Errorf("netstore: set %s: duplicate set key in occurrence", set.Name)
		}
	}
	o := db.add(typ, data, len(targets))
	b.touched[typ.Name] = struct{}{}
	for _, tg := range targets { // appended; Close sorts the keyed lists
		db.insertAt(tg.Set, tg.Owner, len(db.members[tg.Set.Name][tg.Owner]), o)
		o.links = append(o.links, link{tg.Set.Name, tg.Owner})
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
			if db.nanKeys {
				tasks = append(tasks, func() { db.replayInserts(lst, keys) })
				continue
			}
			tasks = append(tasks, func() {
				sort.SliceStable(lst, func(i, j int) bool {
					return value.CompareBy(db.occ(lst[i]).data, db.occ(lst[j]).data, keys) < 0
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
						ix.add(id, db.occ(id).data)
					}
				})
			}
		}
	}
	runTasks(tasks, parallelism)
}

// replayInserts reorders a keyed occurrence list, held in arrival
// order, into the order StoreWith's inserts would have given it: each
// member in turn goes where seek's upper-bound search puts it among
// those before it. value.Compare finds NaN equal to every number, so
// with a NaN key the key order is not a total order, and a stable sort
// can order the list differently from those inserts.
func (db *DB) replayInserts(lst []RecordID, keys []string) {
	for i, id := range lst {
		pos := db.upperBound(lst[:i], db.occ(id).data, keys)
		copy(lst[pos+1:i+1], lst[pos:i])
		lst[pos] = id
	}
}

// runTasks drains independent closures over a bounded worker pool.
// Tasks only read shared state (the occurrences) and write disjoint slices, so
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
