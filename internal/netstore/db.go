package netstore

import (
	"errors"
	"fmt"
	"sort"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// RecordID identifies a record occurrence. IDs are never reused, so a
// stale currency indicator can be detected after an ERASE.
type RecordID int64

// systemOwner is the pseudo-owner of SYSTEM (singular) set occurrences.
const systemOwner RecordID = 0

type occurrence struct {
	id   RecordID
	typ  *schema.RecordType
	data *value.Record // stored fields only
	// memberOf maps set type name to the owner occurrence of the set
	// occurrence this record is connected into (systemOwner for SYSTEM
	// sets). Absent key = not connected.
	memberOf map[string]RecordID
}

// DB is an in-memory CODASYL database instance. Navigation state lives in
// Session, not here, so several run-units can share one database.
type DB struct {
	schema *schema.Network
	recs   map[RecordID]*occurrence
	byType map[string][]RecordID // insertion-ordered occurrences per record type
	// members maps set type -> owner occurrence -> ordered member IDs.
	members map[string]map[RecordID][]RecordID
	nextID  RecordID
	// indexes maps record type -> hash indexes over its schema key
	// fields, maintained incrementally by every mutation path. nil when
	// indexing is disabled (SetIndexing(false)).
	indexes map[string][]*typeIndex
	stats   *IndexStats // shared with clones and views; see IndexStats
	// readOnly marks a View: every mutating entry point refuses.
	readOnly bool
}

// ErrReadOnly is what every mutating entry point on a read-only View
// refuses with: the session verbs and StoreWith return it, and
// NewBulkLoader and SetIndexing panic with it.
var ErrReadOnly = errors.New("netstore: database is a read-only view")

// View returns a read-only handle on the database in O(1). The view
// shares the origin's records, set occurrences, indexes and IndexStats,
// so FINDs through it answer — and count probes and scans — exactly as
// they would on a Clone. Views of one database may be read
// concurrently; the origin must not be mutated while a view is in use.
func (db *DB) View() *DB {
	v := *db
	v.readOnly = true
	return &v
}

// NewDB creates an empty database for the schema. The schema must be
// valid; NewDB panics otherwise.
func NewDB(s *schema.Network) *DB {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("netstore: invalid schema: %v", err))
	}
	db := &DB{
		schema:  s,
		recs:    make(map[RecordID]*occurrence),
		byType:  make(map[string][]RecordID),
		members: make(map[string]map[RecordID][]RecordID),
		nextID:  1,
		indexes: buildIndexes(s),
		stats:   &IndexStats{},
	}
	for _, t := range s.Sets {
		db.members[t.Name] = make(map[RecordID][]RecordID)
	}
	return db
}

// Schema returns the database's schema.
func (db *DB) Schema() *schema.Network { return db.schema }

// Count returns the number of occurrences of the record type.
func (db *DB) Count(recType string) int { return len(db.byType[recType]) }

// Len returns the total number of record occurrences in the database.
func (db *DB) Len() int { return len(db.recs) }

// IDBound returns the exclusive upper bound of assigned record IDs:
// every live occurrence's ID is in [1, IDBound). Dense per-source-ID
// tables (the data translator's ID map) size themselves with it.
func (db *DB) IDBound() RecordID { return db.nextID }

// AllOf returns the occurrence IDs of a record type in insertion order.
// The returned slice is a copy.
func (db *DB) AllOf(recType string) []RecordID {
	return append([]RecordID(nil), db.byType[recType]...)
}

// EachOf visits the occurrence IDs of a record type in insertion order,
// stopping early when fn returns false. It is the allocation-free
// counterpart of AllOf: the database must not be mutated during the
// visit (use AllOf to take a snapshot when the loop body stores,
// erases, or reconnects records).
func (db *DB) EachOf(recType string, fn func(RecordID) bool) {
	for _, id := range db.byType[recType] {
		if !fn(id) {
			return
		}
	}
}

// EachMember visits the ordered member IDs of the set occurrence owned
// by owner, stopping early when fn returns false. Allocation-free
// counterpart of Members; the same no-mutation-during-visit contract as
// EachOf applies.
func (db *DB) EachMember(set string, owner RecordID, fn func(RecordID) bool) {
	occ, ok := db.members[set]
	if !ok {
		return
	}
	for _, id := range occ[owner] {
		if !fn(id) {
			return
		}
	}
}

// TypeOf returns the record type name of an occurrence, or "" if the ID
// is stale.
func (db *DB) TypeOf(id RecordID) string {
	if o, ok := db.recs[id]; ok {
		return o.typ.Name
	}
	return ""
}

// Exists reports whether the occurrence still exists.
func (db *DB) Exists(id RecordID) bool {
	_, ok := db.recs[id]
	return ok
}

// StoredData returns a copy of the occurrence's stored fields (no
// virtuals), or nil for a stale ID.
func (db *DB) StoredData(id RecordID) *value.Record {
	o, ok := db.recs[id]
	if !ok {
		return nil
	}
	return o.data.Clone()
}

// StoredDataInto copies the occurrence's stored fields into out
// (resetting it first), the allocation-free counterpart of StoredData
// for loops that reuse one staging buffer. It reports whether the
// occurrence exists; out is left reset when it does not.
func (db *DB) StoredDataInto(id RecordID, out *value.Record) bool {
	o, ok := db.recs[id]
	if !ok {
		out.Reset()
		return false
	}
	out.CopyFrom(o.data)
	return true
}

// Data returns a copy of the occurrence's record with virtual fields
// resolved through set ownership (recursively, so a virtual sourced from
// an owner's virtual — the Figure 4.4 EMP.DIV-NAME — resolves through two
// levels). Unresolvable virtuals (record not connected) surface as null.
func (db *DB) Data(id RecordID) *value.Record {
	o, ok := db.recs[id]
	if !ok {
		return nil
	}
	out := value.NewRecordSize(len(o.typ.Fields))
	db.DataInto(id, out)
	return out
}

// DataInto resolves the occurrence's record into out (resetting it
// first), the allocation-free counterpart of Data for loops that reuse
// one buffer. It reports whether the occurrence exists; out is left
// reset when it does not.
func (db *DB) DataInto(id RecordID, out *value.Record) bool {
	o, ok := db.recs[id]
	out.Reset()
	if !ok {
		return false
	}
	for _, f := range o.typ.Fields {
		if f.Virtual == nil {
			out.Set(f.Name, o.data.MustGet(f.Name))
		} else {
			out.Set(f.Name, db.resolveVirtual(o, &f))
		}
	}
	return true
}

func (db *DB) resolveVirtual(o *occurrence, f *schema.Field) value.Value {
	ownerID, connected := o.memberOf[f.Virtual.ViaSet]
	if !connected || ownerID == systemOwner {
		return value.NullValue()
	}
	owner, ok := db.recs[ownerID]
	if !ok {
		return value.NullValue()
	}
	of := owner.typ.Field(f.Virtual.Using)
	if of == nil {
		return value.NullValue()
	}
	if of.Virtual != nil {
		return db.resolveVirtual(owner, of)
	}
	return owner.data.MustGet(of.Name)
}

// Members returns the ordered member IDs of the set occurrence owned by
// owner (systemOwner semantics: pass OwnerSystem). The slice is a copy.
func (db *DB) Members(set string, owner RecordID) []RecordID {
	occ, ok := db.members[set]
	if !ok {
		return nil
	}
	return append([]RecordID(nil), occ[owner]...)
}

// SystemMembers returns the members of a SYSTEM set's singular occurrence.
func (db *DB) SystemMembers(set string) []RecordID {
	return db.Members(set, systemOwner)
}

// OwnerOf returns the owner occurrence of the set occurrence containing
// id, and whether id is connected into the set at all. For SYSTEM sets
// the owner is systemOwner and the second result is still true.
func (db *DB) OwnerOf(set string, id RecordID) (RecordID, bool) {
	o, ok := db.recs[id]
	if !ok {
		return 0, false
	}
	owner, connected := o.memberOf[set]
	return owner, connected
}

// insertOrdered connects member into the occurrence list keeping the set
// ordering: ascending by set keys, insertion order among equals (and for
// keyless sets).
func (db *DB) insertOrdered(set *schema.SetType, owner RecordID, member *occurrence) {
	lst := db.members[set.Name][owner]
	if len(set.Keys) == 0 {
		db.members[set.Name][owner] = append(lst, member.id)
		return
	}
	pos := sort.Search(len(lst), func(i int) bool {
		other := db.recs[lst[i]]
		return value.CompareBy(other.data, member.data, set.Keys) > 0
	})
	lst = append(lst, 0)
	copy(lst[pos+1:], lst[pos:])
	lst[pos] = member.id
	db.members[set.Name][owner] = lst
}

func (db *DB) removeMember(set string, owner RecordID, id RecordID) {
	lst := db.members[set][owner]
	for i, m := range lst {
		if m == id {
			copy(lst[i:], lst[i+1:])
			lst[len(lst)-1] = 0 // clear the tail so the backing array can't alias
			db.members[set][owner] = lst[:len(lst)-1]
			return
		}
	}
}

// duplicateInOcc reports whether the set occurrence owned by owner already
// holds a member with the same set-key values ("duplicates are not allowed
// within a set occurrence", §4.2).
func (db *DB) duplicateInOcc(set *schema.SetType, owner RecordID, data *value.Record, exclude RecordID) bool {
	if len(set.Keys) == 0 {
		return false
	}
	for _, m := range db.members[set.Name][owner] {
		if m == exclude {
			continue
		}
		if value.CompareBy(db.recs[m].data, data, set.Keys) == 0 {
			return true
		}
	}
	return false
}

// connect wires member into set under owner, preserving ordering, after
// the duplicate check. Callers have validated set membership types.
func (db *DB) connect(set *schema.SetType, owner RecordID, member *occurrence) Status {
	if _, already := member.memberOf[set.Name]; already {
		return AlreadyMember
	}
	if db.duplicateInOcc(set, owner, member.data, -1) {
		return DuplicateInSet
	}
	db.insertOrdered(set, owner, member)
	member.memberOf[set.Name] = owner
	return OK
}

// disconnect unwires member from the set; retention is the caller's
// concern (ERASE bypasses it, DISCONNECT enforces it).
func (db *DB) disconnect(set string, member *occurrence) {
	owner, connected := member.memberOf[set]
	if !connected {
		return
	}
	db.removeMember(set, owner, member.id)
	delete(member.memberOf, set)
}

// eraseOccurrence removes the record and recursively applies retention
// semantics to sets it owns: MANDATORY members are erased with it (the
// §3.1 cascade that "violates the system's integrity constraints" when
// applied carelessly), OPTIONAL members are disconnected.
func (db *DB) eraseOccurrence(o *occurrence) {
	for _, set := range db.schema.SetsOwnedBy(o.typ.Name) {
		memberIDs := append([]RecordID(nil), db.members[set.Name][o.id]...)
		for _, mid := range memberIDs {
			m, ok := db.recs[mid]
			if !ok {
				continue
			}
			if set.Retention == schema.Mandatory {
				db.eraseOccurrence(m)
			} else {
				db.disconnect(set.Name, m)
			}
		}
		delete(db.members[set.Name], o.id)
	}
	for set := range o.memberOf {
		db.disconnect(set, o)
	}
	lst := db.byType[o.typ.Name]
	for i, id := range lst {
		if id == o.id {
			copy(lst[i:], lst[i+1:])
			lst[len(lst)-1] = 0 // clear the tail so the backing array can't alias
			db.byType[o.typ.Name] = lst[:len(lst)-1]
			break
		}
	}
	db.indexRemove(o)
	delete(db.recs, o.id)
}

// OwnerSystem is the owner to pass to StoreWith for SYSTEM set
// occurrences.
const OwnerSystem = systemOwner

// StoreWith inserts a record with explicit set memberships (set name →
// owner occurrence ID; OwnerSystem for SYSTEM sets), bypassing run-unit
// currency. Insertion modes are not consulted: the memberships map says
// exactly which sets to connect. It is the one-record reference path
// that TestBulkLoaderParity and xform's migration oracle compare
// against; the data translator itself loads through BulkLoader.
func (db *DB) StoreWith(recType string, rec *value.Record, memberships map[string]RecordID) (RecordID, error) {
	if db.readOnly {
		return 0, ErrReadOnly
	}
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
	type target struct {
		set   *schema.SetType
		owner RecordID
	}
	var targets []target
	for setName, owner := range memberships {
		set := db.schema.Set(setName)
		if set == nil {
			return 0, fmt.Errorf("netstore: unknown set %s", setName)
		}
		if set.Member != recType {
			return 0, fmt.Errorf("netstore: %s is not the member type of set %s", recType, setName)
		}
		if set.IsSystem() {
			if owner != OwnerSystem {
				return 0, fmt.Errorf("netstore: set %s is SYSTEM-owned", setName)
			}
		} else {
			o, ok := db.recs[owner]
			if !ok {
				return 0, fmt.Errorf("netstore: set %s: owner %d does not exist", setName, owner)
			}
			if o.typ.Name != set.Owner {
				return 0, fmt.Errorf("netstore: set %s: owner %d is a %s, not a %s",
					setName, owner, o.typ.Name, set.Owner)
			}
		}
		if db.duplicateInOcc(set, owner, data, -1) {
			return 0, fmt.Errorf("netstore: set %s: duplicate set key in occurrence", setName)
		}
		targets = append(targets, target{set, owner})
	}
	o := &occurrence{
		id:       db.nextID,
		typ:      typ,
		data:     data,
		memberOf: make(map[string]RecordID),
	}
	db.nextID++
	db.recs[o.id] = o
	db.byType[recType] = append(db.byType[recType], o.id)
	db.indexAdd(o)
	for _, tg := range targets {
		db.insertOrdered(tg.set, tg.owner, o)
		o.memberOf[tg.set.Name] = tg.owner
	}
	return o.id, nil
}

// Clone returns an independent deep copy of the database, for the
// restructurer and the bridge baseline. Record IDs are preserved.
func (db *DB) Clone() *DB {
	c := NewDB(db.schema.Clone())
	c.nextID = db.nextID
	for id, o := range db.recs {
		c.recs[id] = &occurrence{
			id:       o.id,
			typ:      c.schema.Record(o.typ.Name),
			data:     o.data.Clone(),
			memberOf: make(map[string]RecordID, len(o.memberOf)),
		}
		for s, owner := range o.memberOf {
			c.recs[id].memberOf[s] = owner
		}
	}
	for t, ids := range db.byType {
		c.byType[t] = append([]RecordID(nil), ids...)
	}
	for s, occs := range db.members {
		for owner, lst := range occs {
			c.members[s][owner] = append([]RecordID(nil), lst...)
		}
	}
	// Rebuild rather than deep-copy the indexes (same result, simpler),
	// and share the stats counters so probes on clones — the verify
	// runs execute on clones — aggregate with the original's.
	c.SetIndexing(db.indexes != nil)
	c.stats = db.stats
	return c
}
