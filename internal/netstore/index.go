package netstore

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// IndexStats counts exact-key index probes versus full scans across the
// FIND fast path. The counters are atomic and the pointer is shared by
// Clone and View, so verification runs on clones or views aggregate
// into the same totals as the database they were taken from.
type IndexStats struct {
	probes atomic.Int64
	scans  atomic.Int64
}

// Snapshot returns the probe and scan totals observed so far.
func (s *IndexStats) Snapshot() (probes, scans int64) {
	if s == nil {
		return 0, 0
	}
	return s.probes.Load(), s.scans.Load()
}

// typeIndex is one hash index over a record type: a composite key built
// from the stored fields named in fields maps to the occurrence IDs
// holding those exact values. Buckets are kept in ascending ID order,
// which is exactly the byType scan order (IDs are monotonic and never
// reused, and splices preserve relative order), so a probe answers
// FindAny (first bucket entry) and FindDuplicate (first bucket entry
// after the currency) with the same record a scan would surface.
type typeIndex struct {
	fields  []string // stored key fields, in set-key declaration order
	buckets map[string][]RecordID
}

func (ix *typeIndex) keyOf(data *value.Record) string { return data.KeyOf(ix.fields) }

func (ix *typeIndex) add(id RecordID, data *value.Record) {
	k := ix.keyOf(data)
	lst := ix.buckets[k]
	if n := len(lst); n == 0 || lst[n-1] < id {
		ix.buckets[k] = append(lst, id)
		return
	}
	pos := sort.Search(len(lst), func(i int) bool { return lst[i] >= id })
	lst = append(lst, 0)
	copy(lst[pos+1:], lst[pos:])
	lst[pos] = id
	ix.buckets[k] = lst
}

func (ix *typeIndex) remove(id RecordID, data *value.Record) {
	k := ix.keyOf(data)
	lst := ix.buckets[k]
	pos := sort.Search(len(lst), func(i int) bool { return lst[i] >= id })
	if pos >= len(lst) || lst[pos] != id {
		return
	}
	copy(lst[pos:], lst[pos+1:])
	lst[len(lst)-1] = 0 // clear the stale tail so backing arrays don't alias
	lst = lst[:len(lst)-1]
	if len(lst) == 0 {
		delete(ix.buckets, k)
	} else {
		ix.buckets[k] = lst
	}
}

// buildIndexes derives the index set from the schema: one index per
// distinct key-field combination declared by a set type over its member
// record (the CALC/key fields of the 1971 DBTG report). Combinations
// containing virtual fields are skipped — virtuals are not stored, so a
// probe could not be maintained incrementally from occurrence data.
func buildIndexes(s *schema.Network) map[string][]*typeIndex {
	idx := make(map[string][]*typeIndex)
	for _, set := range s.Sets {
		if len(set.Keys) == 0 {
			continue
		}
		member := s.Record(set.Member)
		if member == nil {
			continue
		}
		stored := true
		for _, k := range set.Keys {
			f := member.Field(k)
			if f == nil || f.Virtual != nil {
				stored = false
				break
			}
		}
		if !stored {
			continue
		}
		if indexFor(idx[set.Member], set.Keys) != nil {
			continue // an identical field combination is already indexed
		}
		idx[set.Member] = append(idx[set.Member], &typeIndex{
			fields:  append([]string(nil), set.Keys...),
			buckets: make(map[string][]RecordID),
		})
	}
	return idx
}

// indexFor returns the index over exactly the given field set (order
// insensitive), or nil.
func indexFor(idxs []*typeIndex, fields []string) *typeIndex {
	for _, ix := range idxs {
		if len(ix.fields) != len(fields) {
			continue
		}
		all := true
		for _, f := range fields {
			found := false
			for _, g := range ix.fields {
				if f == g {
					found = true
					break
				}
			}
			if !found {
				all = false
				break
			}
		}
		if all {
			return ix
		}
	}
	return nil
}

// indexAdd registers a freshly stored occurrence with every index over
// its type. Callers invoke it after o.data is final.
func (db *DB) indexAdd(o *occurrence) {
	for _, ix := range db.indexes[o.typ.Name] {
		ix.add(o.id, o.data)
	}
}

// indexRemove unregisters an occurrence, keyed by its current stored
// data. Callers invoke it before mutating or deleting o.data.
func (db *DB) indexRemove(o *occurrence) {
	for _, ix := range db.indexes[o.typ.Name] {
		ix.remove(o.id, o.data)
	}
}

// probeIndex answers a FIND match by exact-key lookup when the match's
// non-null fields coincide exactly with an indexed field combination.
// The second result reports whether a probe was possible; when false the
// caller must fall back to the scan. The returned slice is the live
// bucket in ascending ID order and must not be retained or mutated.
func (db *DB) probeIndex(typ *schema.RecordType, match *value.Record) ([]RecordID, bool) {
	idxs := db.indexes[typ.Name]
	if len(idxs) == 0 || match == nil {
		return nil, false
	}
	nonNull := 0
	for _, n := range match.Names() {
		if match.MustGet(n).IsNull() {
			continue
		}
		f := typ.Field(n)
		if f == nil || f.Virtual != nil {
			// Virtual fields resolve through ownership, not stored
			// data; only the scan can evaluate such a match.
			return nil, false
		}
		nonNull++
	}
	if nonNull == 0 {
		return nil, false // an empty match means "first of type": scan is O(1)
	}
	for _, ix := range idxs {
		if len(ix.fields) != nonNull {
			continue
		}
		covered := true
		for _, f := range ix.fields {
			if v, ok := match.Get(f); !ok || v.IsNull() {
				covered = false
				break
			}
		}
		if covered {
			return ix.buckets[match.KeyOf(ix.fields)], true
		}
	}
	return nil, false
}

// IndexStatsOf returns the database's shared probe/scan counters.
func (db *DB) IndexStatsOf() *IndexStats { return db.stats }

// IndexDump renders every index deterministically — record type, key
// fields, then each bucket's key and ID list in sorted order — so
// tests can compare index contents byte for byte across build paths
// (incremental maintenance vs bulk load).
func (db *DB) IndexDump() string {
	var b strings.Builder
	types := make([]string, 0, len(db.indexes))
	for t := range db.indexes {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		for _, ix := range db.indexes[t] {
			fmt.Fprintf(&b, "index %s(%s)\n", t, strings.Join(ix.fields, ","))
			keys := make([]string, 0, len(ix.buckets))
			for k := range ix.buckets {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %q -> %v\n", k, ix.buckets[k])
			}
		}
	}
	return b.String()
}

// SetIndexing enables or disables the keyed FIND fast path. Disabling
// drops the indexes (every FIND scans, as before the fast path existed);
// enabling rebuilds them from the live occurrences. Behaviour is
// identical either way — only the access path changes.
func (db *DB) SetIndexing(enabled bool) {
	if db.readOnly {
		panic(ErrReadOnly)
	}
	if !enabled {
		db.indexes = nil
		return
	}
	db.indexes = buildIndexes(db.schema)
	for _, t := range db.schema.Records {
		for _, id := range db.byType[t.Name] {
			db.indexAdd(db.recs[id])
		}
	}
}
