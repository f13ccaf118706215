package netstore

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"progconv/internal/schema"
	"progconv/internal/slab"
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
	// links are the set occurrences this record is connected into, in
	// connection order: at most one per set type, a set absent from it
	// is one the record is not connected into. A record joins a handful
	// of sets, so a scan beats a hash, as in value.Record.
	links []link
}

// link is one set connection of an occurrence: the set type's name and
// the owner occurrence of the set occurrence (systemOwner for SYSTEM
// sets).
type link struct {
	set   string
	owner RecordID
}

// ownerIn returns the owner of the set occurrence of set that o is
// connected into, and whether it is connected into set at all.
func (o *occurrence) ownerIn(set string) (RecordID, bool) {
	for _, l := range o.links {
		if l.set == set {
			return l.owner, true
		}
	}
	return 0, false
}

// unlink drops o's link for set, keeping the others in connection
// order. DeleteFunc writes only inside o.links, so links carved from a
// shared slab never reach a neighbour's.
func (o *occurrence) unlink(set string) {
	o.links = slices.DeleteFunc(o.links, func(l link) bool { return l.set == set })
}

// DB is an in-memory CODASYL database instance. Navigation state lives in
// Session, not here, so several run-units can share one database.
type DB struct {
	schema *schema.Network
	// recs is the occurrence table: recs[id-1] is occurrence id, nil once
	// erased. IDs are assigned densely from 1 and never reused, so the
	// table's length is the last ID assigned; live counts the non-nil
	// entries.
	recs []*occurrence
	live int
	// occSlab and linkSlab are where every insert path takes its next
	// occurrence and that occurrence's set links from; see slab.Carve.
	occSlab  []occurrence
	linkSlab []link
	byType   map[string][]RecordID // insertion-ordered occurrences per record type
	// members maps set type -> owner occurrence -> ordered member IDs.
	members map[string]map[RecordID][]RecordID
	// indexes maps record type -> hash indexes over its schema key
	// fields, maintained incrementally by every mutation path. nil when
	// indexing is disabled (SetIndexing(false)).
	indexes map[string][]*typeIndex
	stats   *IndexStats // shared with clones and views; see IndexStats
	// nanKeys records that some member of a keyed set occurrence has
	// held a NaN set-key value; see seek.
	nanKeys bool
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
		byType:  make(map[string][]RecordID),
		members: make(map[string]map[RecordID][]RecordID),
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
func (db *DB) Len() int { return db.live }

// IDBound returns the exclusive upper bound of assigned record IDs:
// every live occurrence's ID is in [1, IDBound). Dense per-source-ID
// tables (the data translator's ID map) size themselves with it.
func (db *DB) IDBound() RecordID { return RecordID(len(db.recs) + 1) }

// occ is the one occurrence lookup: the live occurrence with the given
// ID, or nil for an erased ID and for one the table never assigned (0,
// negative, or past the last).
func (db *DB) occ(id RecordID) *occurrence {
	if i := uint64(id) - 1; i < uint64(len(db.recs)) {
		return db.recs[i]
	}
	return nil
}

// add stores data as a new occurrence of typ, with room for nlinks set
// links, under the next ID: it enters the occurrence in the table and in
// its type's extent. The occurrence and its links are carved from the
// slabs, the links capped at nlinks, so a later CONNECT reallocates
// them instead of writing into the next occurrence's.
func (db *DB) add(typ *schema.RecordType, data *value.Record, nlinks int) *occurrence {
	o := &slab.Carve(&db.occSlab, 1, len(db.recs))[0]
	*o = occurrence{id: RecordID(len(db.recs) + 1), typ: typ, data: data}
	if nlinks > 0 {
		o.links = slab.Carve(&db.linkSlab, nlinks, len(db.recs))[:0]
	}
	db.recs = append(db.recs, o)
	db.live++
	db.byType[typ.Name] = append(db.byType[typ.Name], o.id)
	return o
}

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
	if o := db.occ(id); o != nil {
		return o.typ.Name
	}
	return ""
}

// Exists reports whether the occurrence still exists.
func (db *DB) Exists(id RecordID) bool { return db.occ(id) != nil }

// StoredData returns a copy of the occurrence's stored fields (no
// virtuals), or nil for a stale ID.
func (db *DB) StoredData(id RecordID) *value.Record {
	o := db.occ(id)
	if o == nil {
		return nil
	}
	return o.data.Clone()
}

// StoredDataInto copies the occurrence's stored fields into out
// (resetting it first), the allocation-free counterpart of StoredData
// for loops that reuse one staging buffer. It reports whether the
// occurrence exists; out is left reset when it does not.
func (db *DB) StoredDataInto(id RecordID, out *value.Record) bool {
	o := db.occ(id)
	if o == nil {
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
	o := db.occ(id)
	if o == nil {
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
	o := db.occ(id)
	out.Reset()
	if o == nil {
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
	ownerID, connected := o.ownerIn(f.Virtual.ViaSet)
	if !connected || ownerID == systemOwner {
		return value.NullValue()
	}
	owner := db.occ(ownerID)
	if owner == nil {
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
	o := db.occ(id)
	if o == nil {
		return 0, false
	}
	return o.ownerIn(set)
}

// seek returns where data belongs in the set occurrence owned by owner,
// after every member whose keys order at or before it, and whether a
// member other than exclude already has its set-key values
// ("duplicates are not allowed within a set occurrence", §4.2). A keyed
// list is sorted and holds each key once, so only the member before
// that position can be equal. value.Compare finds NaN equal to every
// number, which breaks both premises: while data or the database holds
// a NaN key, seek compares data with every member.
func (db *DB) seek(set *schema.SetType, owner RecordID, data *value.Record, exclude RecordID) (int, bool) {
	lst := db.members[set.Name][owner]
	if len(set.Keys) == 0 {
		return len(lst), false
	}
	pos := db.upperBound(lst, data, set.Keys)
	if db.nanKeys || hasNaN(data, set.Keys) {
		return pos, db.holdsKey(set, owner, data, exclude)
	}
	return pos, pos > 0 && lst[pos-1] != exclude &&
		value.CompareBy(db.occ(lst[pos-1]).data, data, set.Keys) == 0
}

// upperBound returns the position in lst after every member whose keys
// order at or before data's: where an ordered insert puts data.
func (db *DB) upperBound(lst []RecordID, data *value.Record, keys []string) int {
	return sort.Search(len(lst), func(i int) bool {
		return value.CompareBy(db.occ(lst[i]).data, data, keys) > 0
	})
}

// holdsKey is the §4.2 check by comparison with every member of the
// occurrence but exclude, for when a NaN key rules out bisection and
// hashing.
func (db *DB) holdsKey(set *schema.SetType, owner RecordID, data *value.Record, exclude RecordID) bool {
	for _, m := range db.members[set.Name][owner] {
		if m != exclude && value.CompareBy(db.occ(m).data, data, set.Keys) == 0 {
			return true
		}
	}
	return false
}

func hasNaN(data *value.Record, keys []string) bool {
	for _, k := range keys {
		if v := data.MustGet(k); v.Kind() == value.Float && math.IsNaN(v.AsFloat()) {
			return true
		}
	}
	return false
}

// insertAt puts member into the set occurrence owned by owner at pos.
func (db *DB) insertAt(set *schema.SetType, owner RecordID, pos int, member *occurrence) {
	lst := append(db.members[set.Name][owner], 0)
	copy(lst[pos+1:], lst[pos:])
	lst[pos] = member.id
	db.members[set.Name][owner] = lst
	if len(set.Keys) > 0 && hasNaN(member.data, set.Keys) {
		db.nanKeys = true
	}
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

// connect wires member into set under owner, preserving ordering, after
// the duplicate check. Callers have validated set membership types.
func (db *DB) connect(set *schema.SetType, owner RecordID, member *occurrence) Status {
	if _, already := member.ownerIn(set.Name); already {
		return AlreadyMember
	}
	pos, dup := db.seek(set, owner, member.data, -1)
	if dup {
		return DuplicateInSet
	}
	db.insertAt(set, owner, pos, member)
	member.links = append(member.links, link{set.Name, owner})
	return OK
}

// disconnect unwires member from the set; retention is the caller's
// concern (ERASE bypasses it, DISCONNECT enforces it).
func (db *DB) disconnect(set string, member *occurrence) {
	owner, connected := member.ownerIn(set)
	if !connected {
		return
	}
	db.removeMember(set, owner, member.id)
	member.unlink(set)
}

// eraseOccurrence removes the record and recursively applies retention
// semantics to sets it owns: MANDATORY members are erased with it (the
// §3.1 cascade that "violates the system's integrity constraints" when
// applied carelessly), OPTIONAL members are disconnected.
func (db *DB) eraseOccurrence(o *occurrence) {
	for _, set := range db.schema.SetsOwnedBy(o.typ.Name) {
		memberIDs := append([]RecordID(nil), db.members[set.Name][o.id]...)
		for _, mid := range memberIDs {
			m := db.occ(mid)
			if m == nil {
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
	for _, l := range o.links {
		db.removeMember(l.set, l.owner, o.id)
	}
	o.links = nil
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
	db.recs[o.id-1] = nil
	db.live--
}

// OwnerSystem is the owner to pass to StoreWith for SYSTEM set
// occurrences.
const OwnerSystem = systemOwner

// Membership is one resolved set connection for an inserted record: the
// set type, already looked up in the schema, and the owner occurrence to
// connect under (OwnerSystem for SYSTEM sets).
type Membership struct {
	Set   *schema.SetType
	Owner RecordID
}

// Shape builds the stored record for an insert of typ, the one every
// insert path stores: typ's stored fields in schema order, taken from
// rec and kind-checked. Session.Store also refuses fields typ lacks.
func Shape(typ *schema.RecordType, rec *value.Record) (*value.Record, error) {
	data := value.NewRecordSize(len(typ.Fields))
	for _, f := range typ.Fields {
		if f.Virtual != nil {
			continue
		}
		v, _ := rec.Get(f.Name)
		if !v.IsNull() && v.Kind() != f.Kind {
			return nil, fmt.Errorf("netstore: %s.%s: value kind %v, field kind %v",
				typ.Name, f.Name, v.Kind(), f.Kind)
		}
		data.Set(f.Name, v)
	}
	return data, nil
}

// checkMembership validates a typ record's membership m against the
// schema and the database.
func (db *DB) checkMembership(typ *schema.RecordType, m Membership) error {
	set := m.Set
	if set.Member != typ.Name {
		return fmt.Errorf("netstore: %s is not the member type of set %s", typ.Name, set.Name)
	}
	if set.IsSystem() {
		if m.Owner != OwnerSystem {
			return fmt.Errorf("netstore: set %s is SYSTEM-owned", set.Name)
		}
		return nil
	}
	o := db.occ(m.Owner)
	if o == nil {
		return fmt.Errorf("netstore: set %s: owner %d does not exist", set.Name, m.Owner)
	}
	if o.typ.Name != set.Owner {
		return fmt.Errorf("netstore: set %s: owner %d is a %s, not a %s",
			set.Name, m.Owner, o.typ.Name, set.Owner)
	}
	return nil
}

// insert stores data, shaped for typ, as a new occurrence connected into
// every target in key order. If a target's set occurrence already holds
// data's set key, it stores nothing and returns that target's set.
func (db *DB) insert(typ *schema.RecordType, data *value.Record, targets []Membership) (*occurrence, *schema.SetType) {
	var buf [4]int // seek's positions; a record joins few sets
	pos := buf[:0]
	for _, tg := range targets {
		p, dup := db.seek(tg.Set, tg.Owner, data, -1)
		if dup {
			return nil, tg.Set
		}
		pos = append(pos, p)
	}
	o := db.add(typ, data, len(targets))
	db.indexAdd(o)
	for i, tg := range targets {
		db.insertAt(tg.Set, tg.Owner, pos[i], o)
		o.links = append(o.links, link{tg.Set.Name, tg.Owner})
	}
	return o, nil
}

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
	data, err := Shape(typ, rec)
	if err != nil {
		return 0, err
	}
	var targets []Membership
	for setName, owner := range memberships {
		set := db.schema.Set(setName)
		if set == nil {
			return 0, fmt.Errorf("netstore: unknown set %s", setName)
		}
		m := Membership{set, owner}
		if err := db.checkMembership(typ, m); err != nil {
			return 0, err
		}
		targets = append(targets, m)
	}
	o, dup := db.insert(typ, data, targets)
	if dup != nil {
		return 0, fmt.Errorf("netstore: set %s: duplicate set key in occurrence", dup.Name)
	}
	return o.id, nil
}

// Clone returns an independent deep copy of the database, for the
// restructurer and the bridge baseline. Record IDs are preserved. The
// copy's occurrences share one allocation, and so do their links, each
// capped at its length so a later CONNECT reallocates rather than
// writing into a neighbour's.
func (db *DB) Clone() *DB {
	c := NewDB(db.schema.Clone())
	c.recs = make([]*occurrence, len(db.recs))
	c.live = db.live
	occs := make([]occurrence, db.live)
	nlinks := 0
	for _, o := range db.recs {
		if o != nil {
			nlinks += len(o.links)
		}
	}
	links := make([]link, nlinks)
	for i, o := range db.recs {
		if o == nil {
			continue
		}
		n := len(o.links)
		co := &occs[0]
		*co = occurrence{id: o.id, typ: c.schema.Record(o.typ.Name), data: o.data.Clone(), links: links[:n:n]}
		copy(co.links, o.links)
		occs, links = occs[1:], links[n:]
		c.recs[i] = co
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
	c.nanKeys = db.nanKeys
	return c
}
