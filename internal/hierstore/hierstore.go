// Package hierstore is the hierarchical (IMS-style) engine: segment
// occurrences arranged in hierarchic sequence, navigated by DL/I calls
// (GU, GN, GNP, ISRT, DLET, REPL) with segment search arguments.
//
// It exists because the paper's survey of program-conversion research
// leans on hierarchical systems — Mehl & Wang's order transformation of
// IMS structures (§2.2) is reproduced on this engine — and because the
// framework (§5.1) must "span data models".
package hierstore

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"progconv/internal/schema"
	"progconv/internal/slab"
	"progconv/internal/value"
)

// Status is the DL/I status code, following IMS's two-character
// convention: "  " means success.
type Status string

// DL/I status codes.
const (
	OK Status = "  " // call succeeded
	GE Status = "GE" // segment not found
	GB Status = "GB" // end of database reached on get-next
	GP Status = "GP" // no parentage established for GNP
	II Status = "II" // insert would duplicate an existing segment
	AC Status = "AC" // SSA names segments out of hierarchic order
	AJ Status = "AJ" // malformed SSA (unknown segment or field)
	DJ Status = "DJ" // DLET/REPL without a preceding successful get
	DA Status = "DA" // REPL attempted to change the sequence field
)

// String renders the status for reports ("  " prints as OK).
func (s Status) String() string {
	if s == OK {
		return "OK"
	}
	return string(s)
}

// CompareOp is the comparison operator inside a qualified SSA.
type CompareOp string

// SSA comparison operators.
const (
	EQ  CompareOp = "="
	NE  CompareOp = "<>"
	LT  CompareOp = "<"
	LE  CompareOp = "<="
	GT  CompareOp = ">"
	GE_ CompareOp = ">="
)

// Qual is one qualification of an SSA: FIELD op VALUE.
type Qual struct {
	Field string
	Op    CompareOp
	Value value.Value
}

func (q Qual) matches(rec *value.Record) bool {
	got := rec.MustGet(q.Field)
	c, ok := got.Compare(q.Value)
	if !ok {
		return false
	}
	switch q.Op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE_:
		return c >= 0
	}
	return false
}

// SSA is a segment search argument: a segment name plus optional
// qualifications, all of which must hold.
type SSA struct {
	Segment string
	Quals   []Qual
}

// Q is a convenience constructor for a qualified SSA.
func Q(segment, field string, op CompareOp, v value.Value) SSA {
	return SSA{Segment: segment, Quals: []Qual{{Field: field, Op: op, Value: v}}}
}

// U is a convenience constructor for an unqualified SSA.
func U(segment string) SSA { return SSA{Segment: segment} }

// SegID identifies a segment occurrence. IDs are never reused.
type SegID int64

type seg struct {
	id     SegID
	typ    *schema.Segment
	data   *value.Record
	parent SegID // 0 for root occurrences
	// children holds the ordered occurrences of each child type, indexed
	// by the type's position in typ.Children, so a walk in schema order
	// needs no lookup; nil until the first child is inserted.
	children [][]SegID
}

// childList returns the occurrences of the child type at position ord
// of sg.typ.Children (nil for none, or for ord < 0).
func (sg *seg) childList(ord int) []SegID {
	if ord < 0 || sg.children == nil {
		return nil
	}
	return sg.children[ord]
}

// childOrdinal returns the position of the named child type in
// typ.Children, or -1.
func childOrdinal(typ *schema.Segment, name string) int {
	return slices.IndexFunc(typ.Children, func(c *schema.Segment) bool { return c.Name == name })
}

// DB is an in-memory hierarchical database instance.
type DB struct {
	schema *schema.Hierarchy
	// segs is the segment table: segs[id-1] is occurrence id, nil once
	// deleted. IDs are assigned densely from 1 and never reused.
	segs  []*seg
	roots []SegID
	// segSlab, listSlab and idSlab are where Insert takes its next
	// segment, a parent's child-list headers and the first slot of a
	// child list from; see slab.Carve.
	segSlab  []seg
	listSlab [][]SegID
	idSlab   []SegID
	// readOnly marks a View: every mutating entry point panics.
	readOnly bool
	// unordered records that a REPL stored a NaN sequence value. NaN
	// compares equal to every number, so twin lists may no longer be
	// sorted and lookups scan them instead of bisecting.
	unordered bool
}

// ErrReadOnly is the panic value of every mutating call (ISRT, DLET,
// REPL, Insert) on a read-only View.
var ErrReadOnly = errors.New("hierstore: database is a read-only view")

// NewDB creates an empty database for the hierarchy. The schema must be
// valid; NewDB panics otherwise.
func NewDB(h *schema.Hierarchy) *DB {
	if err := h.Validate(); err != nil {
		panic(fmt.Sprintf("hierstore: invalid schema: %v", err))
	}
	return &DB{schema: h}
}

// lookup is the one segment lookup: the live occurrence with the given
// ID, or nil for a deleted ID and for one the table never assigned (0,
// negative, or past the last).
func (db *DB) lookup(id SegID) *seg {
	if i := uint64(id) - 1; i < uint64(len(db.segs)) {
		return db.segs[i]
	}
	return nil
}

// Schema returns the database's hierarchy.
func (db *DB) Schema() *schema.Hierarchy { return db.schema }

// Count returns the number of occurrences of the segment type.
func (db *DB) Count(segType string) int {
	n := 0
	for _, s := range db.segs {
		if s != nil && s.typ.Name == segType {
			n++
		}
	}
	return n
}

// Data returns a copy of the occurrence's fields, or nil for a stale ID.
func (db *DB) Data(id SegID) *value.Record {
	if s := db.lookup(id); s != nil {
		return s.data.Clone()
	}
	return nil
}

// Stored returns the occurrence's stored record itself, not a copy, or
// nil for a stale ID: the allocation-free read for a caller that copies
// what it needs, as the data translator's reorder does. The caller must
// not mutate it, and it changes with a REPL of the occurrence.
func (db *DB) Stored(id SegID) *value.Record {
	if s := db.lookup(id); s != nil {
		return s.data
	}
	return nil
}

// TypeOf returns the segment type name of an occurrence, or "".
func (db *DB) TypeOf(id SegID) string {
	if s := db.lookup(id); s != nil {
		return s.typ.Name
	}
	return ""
}

// ParentOf returns the parent occurrence, or 0 for roots and stale IDs.
func (db *DB) ParentOf(id SegID) SegID {
	if s := db.lookup(id); s != nil {
		return s.parent
	}
	return 0
}

// ChildrenOf returns the ordered child occurrences of the given child
// segment type. The slice is a copy.
func (db *DB) ChildrenOf(id SegID, childType string) []SegID {
	s := db.lookup(id)
	if s == nil {
		return nil
	}
	return append([]SegID(nil), s.childList(childOrdinal(s.typ, childType))...)
}

// EachChild visits the ordered child occurrences of the given child
// segment type, stopping early when fn returns false: the
// allocation-free counterpart of ChildrenOf. The database must not be
// mutated during the visit.
func (db *DB) EachChild(id SegID, childType string, fn func(SegID) bool) {
	s := db.lookup(id)
	if s == nil {
		return
	}
	for _, c := range s.childList(childOrdinal(s.typ, childType)) {
		if !fn(c) {
			return
		}
	}
}

// Roots returns the root occurrences in sequence order. The slice is a
// copy.
func (db *DB) Roots() []SegID { return append([]SegID(nil), db.roots...) }

// hierarchicSequence appends the subtree of id in hierarchic (preorder)
// sequence: the segment, then each child type in schema order, each
// occurrence in sequence order.
func (db *DB) hierarchicSequence(id SegID, out *[]SegID) {
	*out = append(*out, id)
	for _, lst := range db.lookup(id).children {
		for _, c := range lst {
			db.hierarchicSequence(c, out)
		}
	}
}

// next returns the occurrence after id in hierarchic sequence within the
// subtree of within (the whole database when within is 0), or 0 past
// its end. It walks the child lists and parent links from id, so a
// sweep of GN or GNP calls visits each occurrence a bounded number of
// times instead of rebuilding the sequence per call.
func (db *DB) next(id, within SegID) SegID {
	sg := db.lookup(id)
	for _, lst := range sg.children {
		if len(lst) > 0 {
			return lst[0]
		}
	}
	for sg.id != within {
		p := db.lookup(sg.parent)
		if p == nil {
			if i := db.twinIndex(db.roots, sg); i+1 < len(db.roots) {
				return db.roots[i+1]
			}
			return 0
		}
		ord := slices.Index(p.typ.Children, sg.typ)
		twins := p.children[ord]
		if i := db.twinIndex(twins, sg); i+1 < len(twins) {
			return twins[i+1]
		}
		for _, lst := range p.children[ord+1:] {
			if len(lst) > 0 {
				return lst[0]
			}
		}
		sg = p
	}
	return 0
}

// twinIndex returns the position of sg in twins, its twin list. Twins
// are ordered by sequence value, each value held once, or, for a type
// without a sequence field, by insertion and so by ID: either order
// bisects. A list a NaN REPL may have unsorted, or a miss, falls back
// to a scan.
func (db *DB) twinIndex(twins []SegID, sg *seg) int {
	i := 0
	if seq := sg.typ.Seq; seq == "" {
		i = sort.Search(len(twins), func(i int) bool { return twins[i] >= sg.id })
	} else if !db.unordered {
		v := sg.data.MustGet(seq)
		i = sort.Search(len(twins), func(i int) bool {
			c, _ := db.lookup(twins[i]).data.MustGet(seq).Compare(v)
			return c >= 0
		})
	}
	if i < len(twins) && twins[i] == sg.id {
		return i
	}
	return slices.Index(twins, sg.id)
}

// within reports whether id lies in the subtree of anc, anc excluded.
func (db *DB) within(id, anc SegID) bool {
	for sg := db.lookup(id); sg != nil && sg.parent != 0; sg = db.lookup(sg.parent) {
		if sg.parent == anc {
			return true
		}
	}
	return false
}

// Sequence returns every occurrence in database hierarchic sequence.
func (db *DB) Sequence() []SegID {
	var out []SegID
	for _, r := range db.roots {
		db.hierarchicSequence(r, &out)
	}
	return out
}

// insertOrdered places id among siblings, ascending by the type's
// sequence field (insertion order for types without one, and among
// twins with equal sequence values).
func insertOrdered(db *DB, lst []SegID, s *seg) []SegID {
	if s.typ.Seq == "" {
		return append(lst, s.id)
	}
	pos := sort.Search(len(lst), func(i int) bool {
		other := db.lookup(lst[i])
		c, _ := other.data.MustGet(s.typ.Seq).Compare(s.data.MustGet(s.typ.Seq))
		return c > 0
	})
	lst = append(lst, 0)
	copy(lst[pos+1:], lst[pos:])
	lst[pos] = s.id
	return lst
}

// Clone returns an independent deep copy, preserving segment IDs. The
// copy's segments share one allocation, and so do their child lists,
// each capped at its length so a later insert reallocates rather than
// writing into a neighbour's.
func (db *DB) Clone() *DB {
	c := NewDB(db.schema.Clone())
	c.unordered = db.unordered
	c.roots = append([]SegID(nil), db.roots...)
	c.segs = make([]*seg, len(db.segs))
	var nsegs, nlists, nids int
	for _, s := range db.segs {
		if s == nil {
			continue
		}
		nsegs++
		nlists += len(s.children)
		for _, lst := range s.children {
			nids += len(lst)
		}
	}
	segs, lists, ids := make([]seg, nsegs), make([][]SegID, nlists), make([]SegID, nids)
	olds, news := db.schema.Preorder(), c.schema.Preorder()
	for i, s := range db.segs {
		if s == nil {
			continue
		}
		cs := &segs[0]
		segs = segs[1:]
		*cs = seg{id: s.id, typ: news[slices.Index(olds, s.typ)], data: s.data.Clone(), parent: s.parent}
		if n := len(s.children); n > 0 {
			cs.children, lists = lists[:n:n], lists[n:]
			for k, lst := range s.children {
				if m := len(lst); m > 0 {
					cs.children[k], ids = ids[:m:m], ids[m:]
					copy(cs.children[k], lst)
				}
			}
		}
		c.segs[i] = cs
	}
	return c
}

// View returns a read-only handle on the database in O(1): it shares
// the origin's segments, so gets through it answer exactly as they
// would on a Clone. ISRT, DLET, REPL and Insert on a view panic with
// ErrReadOnly before touching anything — a refused write aborts the
// program rather than handing it a status code to branch on. Views of
// one database may be read concurrently; the origin must not be
// mutated while a view is in use.
func (db *DB) View() *DB {
	v := *db
	v.readOnly = true
	return &v
}

func (db *DB) mustWrite() {
	if db.readOnly {
		panic(ErrReadOnly)
	}
}

// Session is a PCB: the position and parentage of one program against the
// database, plus the DL/I status code register.
type Session struct {
	db        *DB
	status    Status
	position  SegID // current position in hierarchic sequence, 0 = before first
	parentage SegID // parentage established by the last successful GU/GN/GNP
}

// NewSession opens a PCB on the database.
func NewSession(db *DB) *Session { return &Session{db: db} }

// DB returns the underlying database.
func (s *Session) DB() *DB { return s.db }

// Status returns the status code of the last call.
func (s *Session) Status() Status { return s.status }

// Position returns the current segment occurrence, or 0.
func (s *Session) Position() SegID { return s.position }

func (s *Session) fail(st Status) Status {
	s.status = st
	return st
}

// checkSSAs validates an SSA list: segments exist, qualification fields
// exist, and the segments form a root-to-target path in the hierarchy.
func (s *Session) checkSSAs(ssas []SSA) Status {
	if len(ssas) == 0 {
		return OK
	}
	for _, a := range ssas {
		st := s.db.schema.Segment(a.Segment)
		if st == nil {
			return AJ
		}
		for _, q := range a.Quals {
			if st.Field(q.Field) == nil {
				return AJ
			}
		}
	}
	// Path check: each SSA's segment must be an ancestor type of the next.
	for i := 0; i+1 < len(ssas); i++ {
		p := s.db.schema.Parent(ssas[i+1].Segment)
		if p == nil || p.Name != ssas[i].Segment {
			return AC
		}
	}
	return OK
}

func (a SSA) matches(rec *value.Record) bool {
	for _, q := range a.Quals {
		if !q.matches(rec) {
			return false
		}
	}
	return true
}

// pathMatches reports whether the occurrence and its ancestors satisfy
// the SSA path (last SSA = the occurrence's own type).
func (s *Session) pathMatches(id SegID, ssas []SSA) bool {
	sg := s.db.lookup(id)
	if sg.typ.Name != ssas[len(ssas)-1].Segment {
		return false
	}
	cur := sg
	for i := len(ssas) - 1; i >= 0; i-- {
		if cur == nil || cur.typ.Name != ssas[i].Segment || !ssas[i].matches(cur.data) {
			return false
		}
		cur = s.db.lookup(cur.parent)
	}
	return true
}

// GU implements Get Unique: position at the first segment in hierarchic
// sequence satisfying the SSA path, searching from the start.
func (s *Session) GU(ssas ...SSA) (*value.Record, Status) {
	if st := s.checkSSAs(ssas); st != OK {
		return nil, s.fail(st)
	}
	if len(ssas) == 0 {
		// GU with no SSA: first root.
		if len(s.db.roots) == 0 {
			return nil, s.fail(GE)
		}
		return s.arrive(s.db.roots[0])
	}
	if id := s.db.find(ssas); id != 0 {
		return s.arrive(id)
	}
	return nil, s.fail(GE)
}

// GN implements Get Next: advance in hierarchic sequence from the current
// position to the next segment satisfying the SSAs (any segment if none).
// A position that no longer exists restarts the search at the first
// root.
func (s *Session) GN(ssas ...SSA) (*value.Record, Status) {
	if st := s.checkSSAs(ssas); st != OK {
		return nil, s.fail(st)
	}
	var id SegID
	if s.exists(s.position) {
		id = s.db.next(s.position, 0)
	} else if len(s.db.roots) > 0 {
		id = s.db.roots[0]
	}
	for ; id != 0; id = s.db.next(id, 0) {
		if len(ssas) == 0 || s.pathMatches(id, ssas) {
			return s.arrive(id)
		}
	}
	if len(ssas) == 0 {
		return nil, s.fail(GB)
	}
	return nil, s.fail(GE)
}

// GNP implements Get Next Within Parent: like GN but only within the
// descendants of the parentage position. A position outside them, or
// one that no longer exists, restarts the search at the parent's first
// descendant.
func (s *Session) GNP(ssas ...SSA) (*value.Record, Status) {
	if st := s.checkSSAs(ssas); st != OK {
		return nil, s.fail(st)
	}
	if !s.exists(s.parentage) {
		return nil, s.fail(GP)
	}
	from := s.parentage
	if s.db.within(s.position, s.parentage) {
		from = s.position
	}
	for id := s.db.next(from, s.parentage); id != 0; id = s.db.next(id, s.parentage) {
		if len(ssas) == 0 || s.pathMatches(id, ssas) {
			// GNP moves position but keeps parentage.
			s.position = id
			s.status = OK
			return s.db.lookup(id).data.Clone(), OK
		}
	}
	return nil, s.fail(GE)
}

// arrive records a successful get: position and parentage move to id.
func (s *Session) arrive(id SegID) (*value.Record, Status) {
	s.position = id
	s.parentage = id
	s.status = OK
	return s.db.lookup(id).data.Clone(), OK
}

func (s *Session) exists(id SegID) bool { return s.db.lookup(id) != nil }

// find returns the first occurrence in hierarchic sequence that
// satisfies a checked SSA path, or 0. Instead of scanning the whole
// sequence it walks the schema path down from the roots: levels above
// the first SSA are visited in order, a level whose SSA qualifies the
// segment's sequence field with = bisects the sorted twin list, and any
// other level scans its twins in order. Hierarchic sequence orders the
// occurrences of one type by their ancestors' twin positions, level by
// level, so the descent's first hit is the sequence scan's first hit.
func (db *DB) find(ssas []SSA) SegID {
	var buf [8]string
	types := buf[:0] // segment type per level, root first
	if ssas[0].Segment != db.schema.Root.Name {
		for p := db.schema.Parent(ssas[0].Segment); p != nil; p = db.schema.Parent(p.Name) {
			types = append(types, p.Name)
		}
		slices.Reverse(types)
	}
	first := len(types)
	for _, a := range ssas {
		types = append(types, a.Segment)
	}
	return db.descend(db.roots, ssas, types, first, 0)
}

// descend is find's walk over one level: twins are the candidate
// occurrences of types[level], and ssas[level-first] qualifies them
// when the level is at or below the first SSA.
func (db *DB) descend(twins []SegID, ssas []SSA, types []string, first, level int) SegID {
	var a *SSA
	if level >= first {
		a = &ssas[level-first]
		twins = db.narrow(twins, a)
	}
	ord := -1 // of types[level+1] among the twins' child types
	for _, id := range twins {
		sg := db.lookup(id)
		if a != nil && !a.matches(sg.data) {
			continue
		}
		if level == len(types)-1 {
			return id
		}
		if ord < 0 {
			ord = childOrdinal(sg.typ, types[level+1])
		}
		if hit := db.descend(sg.childList(ord), ssas, types, first, level+1); hit != 0 {
			return hit
		}
	}
	return 0
}

// narrow cuts a twin list down to the only twin an SSA can match when
// the SSA qualifies the twins' sequence field with =.
func (db *DB) narrow(twins []SegID, a *SSA) []SegID {
	if len(twins) == 0 {
		return twins
	}
	seq := db.lookup(twins[0]).typ.Seq
	if seq == "" {
		return twins
	}
	for _, q := range a.Quals {
		if q.Field == seq && q.Op == EQ && db.bisectable(q.Value) {
			if i := db.twin(twins, seq, q.Value); i >= 0 {
				return twins[i : i+1]
			}
			return nil
		}
	}
	return twins
}

// bisectable reports whether twin lists can be searched for v by
// bisection. They are sorted by sequence value, and ISRT admits no two
// equal twins, unless a REPL has stored a NaN, which equals every
// number; a NaN probe likewise equals every numeric twin.
func (db *DB) bisectable(v value.Value) bool {
	return !db.unordered && !isNaN(v)
}

func isNaN(v value.Value) bool { return v.Kind() == value.Float && math.IsNaN(v.AsFloat()) }

// twin returns the position of the first twin whose field equals v, or
// -1: by bisection when the list allows it, by scanning otherwise.
func (db *DB) twin(twins []SegID, field string, v value.Value) int {
	if !db.bisectable(v) {
		for i, id := range twins {
			if db.lookup(id).data.MustGet(field).Equal(v) {
				return i
			}
		}
		return -1
	}
	i := sort.Search(len(twins), func(i int) bool {
		c, _ := db.lookup(twins[i]).data.MustGet(field).Compare(v)
		return c >= 0
	})
	if i < len(twins) && db.lookup(twins[i]).data.MustGet(field).Equal(v) {
		return i
	}
	return -1
}

// shape builds the stored record for an insert of typ: every declared
// field, taken from data and kind-checked (AJ for a mismatch or for a
// field typ does not declare).
func shape(typ *schema.Segment, data *value.Record) (*value.Record, Status) {
	rec := value.NewRecordSize(len(typ.Fields))
	for _, f := range typ.Fields {
		v, _ := data.Get(f.Name)
		if !v.IsNull() && v.Kind() != f.Kind {
			return nil, AJ
		}
		rec.Set(f.Name, v)
	}
	for _, n := range data.Names() {
		if typ.Field(n) == nil {
			return nil, AJ
		}
	}
	return rec, OK
}

// Insert places a new occurrence of segType under the parent occurrence
// with the given ID (0 for a root). It is the one insertion path: ISRT
// resolves its parent path and calls it, and the data translator's
// reorder splice calls it with the IDs it has just created. The data is
// kind-checked against the segment type (AJ); the parent must be an
// occurrence of the type's schema parent (AC), and a live one (GE). A
// twin with an equal sequence value rejects the insert with II and its
// ID is returned; on OK the new occurrence's ID is. The stored record
// is a fresh copy of data's fields; the segment, its parent's child-list
// headers and the first slot of its twin list come from slabs.
func (db *DB) Insert(parent SegID, segType string, data *value.Record) (SegID, Status) {
	db.mustWrite()
	typ := db.schema.Segment(segType)
	if typ == nil {
		return 0, AJ
	}
	rec, st := shape(typ, data)
	if st != OK {
		return 0, st
	}
	var p *seg
	ord := -1
	twins := db.roots
	if parent == 0 {
		if typ.Name != db.schema.Root.Name {
			return 0, AC // a non-root insert needs its parent
		}
	} else {
		if p = db.lookup(parent); p == nil {
			return 0, GE
		}
		if ord = childOrdinal(p.typ, segType); ord < 0 {
			return 0, AC
		}
		twins = p.childList(ord)
	}
	if typ.Seq != "" {
		if i := db.twin(twins, typ.Seq, rec.MustGet(typ.Seq)); i >= 0 {
			return twins[i], II
		}
	}
	sg := &slab.Carve(&db.segSlab, 1, len(db.segs))[0]
	*sg = seg{id: SegID(len(db.segs) + 1), typ: typ, data: rec, parent: parent}
	db.segs = append(db.segs, sg)
	if p == nil {
		db.roots = insertOrdered(db, db.roots, sg)
	} else {
		if p.children == nil {
			p.children = slab.Carve(&db.listSlab, len(p.typ.Children), len(db.segs))
		}
		if p.children[ord] == nil {
			p.children[ord] = slab.Carve(&db.idSlab, 1, len(db.segs))[:0] // a second child moves the list to the heap
		}
		p.children[ord] = insertOrdered(db, p.children[ord], sg)
	}
	return sg.id, OK
}

// ISRT implements Insert: the last SSA names the segment type to insert
// (unqualified); any preceding SSAs select the parent path, whose first
// occurrence in hierarchic sequence becomes the parent. A root segment
// is inserted with a single SSA. Twins with an equal sequence value are
// rejected with II, matching IMS's no-duplicate-keys rule.
func (s *Session) ISRT(data *value.Record, ssas ...SSA) Status {
	s.db.mustWrite()
	if len(ssas) == 0 {
		return s.fail(AJ)
	}
	if st := s.checkSSAs(ssas); st != OK {
		return s.fail(st)
	}
	target := s.db.schema.Segment(ssas[len(ssas)-1].Segment)
	var parentID SegID
	if len(ssas) > 1 {
		if parentID = s.db.find(ssas[:len(ssas)-1]); parentID == 0 {
			// A malformed record outranks a missing parent.
			if _, st := shape(target, data); st != OK {
				return s.fail(st)
			}
			return s.fail(GE)
		}
	}
	id, st := s.db.Insert(parentID, target.Name, data)
	if st != OK {
		return s.fail(st)
	}
	s.position = id
	s.parentage = id
	return s.fail(OK)
}

// DLET implements Delete: removes the segment at the current position and
// its whole subtree (IMS deletes dependents with their parent), then
// clears the position.
func (s *Session) DLET() Status {
	s.db.mustWrite()
	root := s.db.lookup(s.position)
	if root == nil {
		return s.fail(DJ)
	}
	if root.parent == 0 {
		s.db.roots = s.db.unlink(s.db.roots, root)
	} else {
		p := s.db.lookup(root.parent)
		ord := slices.Index(p.typ.Children, root.typ)
		p.children[ord] = s.db.unlink(p.children[ord], root)
	}
	s.db.forget(root)
	s.position = 0
	s.parentage = 0
	return s.fail(OK)
}

// unlink removes sg from twins, its twin list.
func (db *DB) unlink(twins []SegID, sg *seg) []SegID {
	i := db.twinIndex(twins, sg)
	return slices.Delete(twins, i, i+1)
}

// forget clears the table entries of sg's subtree.
func (db *DB) forget(sg *seg) {
	db.segs[sg.id-1] = nil
	for _, lst := range sg.children {
		for _, c := range lst {
			db.forget(db.lookup(c))
		}
	}
}

// REPL implements Replace: overwrites the named fields of the segment at
// the current position. Changing the sequence field is refused with DA,
// as in IMS.
func (s *Session) REPL(data *value.Record) Status {
	s.db.mustWrite()
	sg := s.db.lookup(s.position)
	if sg == nil {
		return s.fail(DJ)
	}
	for _, n := range data.Names() {
		f := sg.typ.Field(n)
		if f == nil {
			return s.fail(AJ)
		}
		v := data.MustGet(n)
		if !v.IsNull() && v.Kind() != f.Kind {
			return s.fail(AJ)
		}
		if n == sg.typ.Seq && !v.Equal(sg.data.MustGet(n)) {
			return s.fail(DA)
		}
	}
	for _, n := range data.Names() {
		v := data.MustGet(n)
		if n == sg.typ.Seq && isNaN(v) {
			s.db.unordered = true
		}
		sg.data.Set(n, v)
	}
	return s.fail(OK)
}

// Reset clears position and parentage, returning the PCB to the start of
// the database.
func (s *Session) Reset() {
	s.position = 0
	s.parentage = 0
	s.status = OK
}

// DumpSequence renders the database in hierarchic sequence for debugging
// and golden tests: one "TYPE{fields}" line per segment, indented by depth.
func (db *DB) DumpSequence() string {
	var b strings.Builder
	var walk func(id SegID, depth int)
	walk = func(id SegID, depth int) {
		sg := db.lookup(id)
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sg.typ.Name)
		b.WriteString(sg.data.String())
		b.WriteByte('\n')
		for _, lst := range sg.children {
			for _, c := range lst {
				walk(c, depth+1)
			}
		}
	}
	for _, r := range db.roots {
		walk(r, 0)
	}
	return b.String()
}
