package netstore

import (
	"fmt"
	"sort"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// Direction selects the variant of FIND ... WITHIN set.
type Direction uint8

// FIND directions.
const (
	First Direction = iota
	Last
	Next
	Prior
)

func (d Direction) String() string {
	switch d {
	case First:
		return "FIRST"
	case Last:
		return "LAST"
	case Next:
		return "NEXT"
	case Prior:
		return "PRIOR"
	}
	return "?"
}

// Session is a run-unit: the currency indicators and DB-STATUS register
// of one executing program. DML verbs are methods on Session; each sets
// Status and, on success, the currency indicators, exactly the state the
// paper's §2.1.2 warns a DML-emulation layer must track ("status values
// (e.g., currency)").
type Session struct {
	db     *DB
	status Status
	// Currency indicators.
	runUnit RecordID            // current of run-unit
	ofType  map[string]RecordID // current of record type
	ofSet   map[string]RecordID // current of set type (owner or member occurrence)
}

// NewSession opens a run-unit on the database.
func NewSession(db *DB) *Session {
	return &Session{
		db:     db,
		ofType: make(map[string]RecordID),
		ofSet:  make(map[string]RecordID),
	}
}

// DB returns the underlying database.
func (s *Session) DB() *DB { return s.db }

// Status returns the DB-STATUS register: the outcome of the last DML verb.
func (s *Session) Status() Status { return s.status }

// Current returns the current of run-unit, or 0 if none.
func (s *Session) Current() RecordID { return s.runUnit }

// CurrentOfType returns the current of the given record type, or 0.
func (s *Session) CurrentOfType(recType string) RecordID { return s.ofType[recType] }

// CurrentOfSet returns the current of the given set type, or 0.
func (s *Session) CurrentOfSet(set string) RecordID { return s.ofSet[set] }

// setCurrency makes o current of run-unit, of its record type, and of
// every set type in which its record type participates as owner or
// member (the DBTG currency update rule).
func (s *Session) setCurrency(o *occurrence) {
	s.runUnit = o.id
	s.ofType[o.typ.Name] = o.id
	for _, set := range s.db.schema.Sets {
		if set.Member == o.typ.Name || set.Owner == o.typ.Name {
			s.ofSet[set.Name] = o.id
		}
	}
}

// scrubStale clears currency indicators that point at erased records.
func (s *Session) scrubStale() {
	if s.runUnit != 0 && !s.db.Exists(s.runUnit) {
		s.runUnit = 0
	}
	for k, id := range s.ofType {
		if !s.db.Exists(id) {
			delete(s.ofType, k)
		}
	}
	for k, id := range s.ofSet {
		if !s.db.Exists(id) {
			delete(s.ofSet, k)
		}
	}
}

func (s *Session) fail(st Status) Status {
	s.status = st
	return st
}

// matchShape verifies that every non-null field of match names a field of
// the record type; this is a usage error, not a DB-STATUS condition.
func matchShape(typ *schema.RecordType, match *value.Record) error {
	if match == nil {
		return nil
	}
	for _, n := range match.Names() {
		if typ.Field(n) == nil {
			return fmt.Errorf("netstore: %s has no field %s", typ.Name, n)
		}
	}
	return nil
}

// matches reports whether the occurrence's resolved record agrees with
// every non-null field of match.
func (s *Session) matches(o *occurrence, match *value.Record) bool {
	if match == nil {
		return true
	}
	for _, n := range match.Names() {
		want := match.MustGet(n)
		if want.IsNull() {
			continue
		}
		var got value.Value
		if f := o.typ.Field(n); f.Virtual == nil {
			got = o.data.MustGet(n)
		} else {
			got = s.db.resolveVirtual(o, f)
		}
		if !got.Equal(want) {
			return false
		}
	}
	return true
}

// Store implements STORE <record>: creates an occurrence from the record's
// stored fields and connects it into every AUTOMATIC set of which its type
// is the member. For a non-SYSTEM AUTOMATIC set the owner occurrence is
// selected through the set's currency (the "set selection" of DBTG); with
// no currency the store fails with NoCurrentOwner and nothing is stored.
func (s *Session) Store(recType string, rec *value.Record) (RecordID, Status, error) {
	if s.db.readOnly {
		return 0, s.status, ErrReadOnly
	}
	typ := s.db.schema.Record(recType)
	if typ == nil {
		return 0, s.status, fmt.Errorf("netstore: unknown record type %s", recType)
	}
	data, err := Shape(typ, rec)
	if err != nil {
		return 0, s.status, err
	}
	for _, n := range rec.Names() {
		f := typ.Field(n)
		if f == nil {
			return 0, s.status, fmt.Errorf("netstore: %s has no field %s", recType, n)
		}
		if f.Virtual != nil && !rec.MustGet(n).IsNull() {
			return 0, s.status, fmt.Errorf("netstore: %s.%s is virtual and cannot be stored", recType, n)
		}
	}

	// Resolve the target owner of every AUTOMATIC set before mutating.
	var targets []Membership
	for _, set := range s.db.schema.SetsWithMember(recType) {
		if set.Insertion != schema.Automatic {
			continue
		}
		if set.IsSystem() {
			targets = append(targets, Membership{set, systemOwner})
			continue
		}
		owner, st := s.ownerFromCurrency(set)
		if st != OK {
			return 0, s.fail(st), nil
		}
		targets = append(targets, Membership{set, owner})
	}
	o, dup := s.db.insert(typ, data, targets)
	if dup != nil {
		return 0, s.fail(DuplicateInSet), nil
	}
	s.setCurrency(o)
	return o.id, s.fail(OK), nil
}

// ownerFromCurrency resolves the owner occurrence a set-level operation
// should use: the current of set, walked up to the owner if the currency
// points at a member occurrence.
func (s *Session) ownerFromCurrency(set *schema.SetType) (RecordID, Status) {
	cur, ok := s.ofSet[set.Name]
	if !ok || !s.db.Exists(cur) {
		return 0, NoCurrentOwner
	}
	o := s.db.recs[cur]
	if o.typ.Name == set.Owner {
		return o.id, OK
	}
	owner, connected := o.memberOf[set.Name]
	if !connected {
		return 0, NoCurrentOwner
	}
	return owner, OK
}

// Position sets the currency indicators directly to an occurrence. It is
// not a DBTG verb; it is the utility entry point the data translator and
// the higher-level DMLs use to address a record they already hold, where
// FIND ANY by field values could hit a different record with equal fields.
func (s *Session) Position(id RecordID) Status {
	o, ok := s.db.recs[id]
	if !ok {
		return s.fail(NoCurrency)
	}
	s.setCurrency(o)
	return s.fail(OK)
}

// FindAny implements FIND ANY <record> [matching the non-null fields of
// match]: the first occurrence of the type, in insertion order, that
// agrees with the match record.
func (s *Session) FindAny(recType string, match *value.Record) (Status, error) {
	return s.findScan(recType, match, 0)
}

// FindDuplicate implements FIND DUPLICATE: the next matching occurrence
// after the current of the record type.
func (s *Session) FindDuplicate(recType string, match *value.Record) (Status, error) {
	cur := s.ofType[recType]
	if cur == 0 || !s.db.Exists(cur) {
		return s.fail(NoCurrency), nil
	}
	return s.findScan(recType, match, cur)
}

func (s *Session) findScan(recType string, match *value.Record, after RecordID) (Status, error) {
	typ := s.db.schema.Record(recType)
	if typ == nil {
		return s.status, fmt.Errorf("netstore: unknown record type %s", recType)
	}
	if err := matchShape(typ, match); err != nil {
		return s.status, err
	}
	// Fast path: when the match's non-null fields are exactly an indexed
	// key combination, probe the hash index. Buckets are in ascending ID
	// order — the byType scan order — so the first bucket entry beyond
	// `after` is precisely the record the scan below would surface.
	if bucket, ok := s.db.probeIndex(typ, match); ok {
		s.db.stats.probes.Add(1)
		pos := sort.Search(len(bucket), func(i int) bool { return bucket[i] > after })
		if pos < len(bucket) {
			s.setCurrency(s.db.recs[bucket[pos]])
			return s.fail(OK), nil
		}
		return s.fail(NotFound), nil
	}
	s.db.stats.scans.Add(1)
	skipping := after != 0
	for _, id := range s.db.byType[recType] {
		if skipping {
			if id == after {
				skipping = false
			}
			continue
		}
		if s.matches(s.db.recs[id], match) {
			s.setCurrency(s.db.recs[id])
			return s.fail(OK), nil
		}
	}
	return s.fail(NotFound), nil
}

// FindInSet implements FIND FIRST/LAST/NEXT/PRIOR <member> WITHIN <set>
// [USING the non-null fields of match]. The set occurrence is selected by
// the set's currency. NEXT and PRIOR move relative to the current of set;
// when the current of set is the owner occurrence, NEXT starts at the
// first member and PRIOR at the last.
func (s *Session) FindInSet(set string, dir Direction, match *value.Record) (Status, error) {
	st := s.db.schema.Set(set)
	if st == nil {
		return s.status, fmt.Errorf("netstore: unknown set %s", set)
	}
	member := s.db.schema.Record(st.Member)
	if err := matchShape(member, match); err != nil {
		return s.status, err
	}
	var owner RecordID
	if st.IsSystem() {
		owner = systemOwner
	} else {
		var ost Status
		owner, ost = s.ownerFromCurrency(st)
		if ost != OK {
			return s.fail(NoCurrency), nil
		}
	}
	lst := s.db.members[set][owner]
	if len(lst) == 0 {
		return s.fail(EndOfSet), nil
	}

	// Establish the scan start and direction.
	idx, step := 0, 1
	switch dir {
	case First:
		idx, step = 0, 1
	case Last:
		idx, step = len(lst)-1, -1
	case Next, Prior:
		step = 1
		if dir == Prior {
			step = -1
		}
		cur, ok := s.ofSet[set]
		if !ok || !s.db.Exists(cur) {
			return s.fail(NoCurrency), nil
		}
		curOcc := s.db.recs[cur]
		if curOcc.typ.Name == st.Owner && !st.IsSystem() {
			// Positioned on the owner: NEXT = first, PRIOR = last.
			if dir == Next {
				idx = 0
			} else {
				idx = len(lst) - 1
			}
		} else {
			pos := -1
			for i, id := range lst {
				if id == cur {
					pos = i
					break
				}
			}
			if pos < 0 {
				return s.fail(NoCurrency), nil
			}
			idx = pos + step
		}
	}
	for ; idx >= 0 && idx < len(lst); idx += step {
		o := s.db.recs[lst[idx]]
		if s.matches(o, match) {
			s.setCurrency(o)
			return s.fail(OK), nil
		}
	}
	return s.fail(EndOfSet), nil
}

// FindOwner implements FIND OWNER WITHIN <set>: moves currency to the
// owner of the set occurrence containing the current of set.
func (s *Session) FindOwner(set string) (Status, error) {
	st := s.db.schema.Set(set)
	if st == nil {
		return s.status, fmt.Errorf("netstore: unknown set %s", set)
	}
	if st.IsSystem() {
		return s.fail(NotMember), nil
	}
	cur, ok := s.ofSet[set]
	if !ok || !s.db.Exists(cur) {
		return s.fail(NoCurrency), nil
	}
	o := s.db.recs[cur]
	if o.typ.Name == st.Owner {
		return s.fail(OK), nil // already on the owner
	}
	owner, connected := o.memberOf[set]
	if !connected {
		return s.fail(NotMember), nil
	}
	s.setCurrency(s.db.recs[owner])
	return s.fail(OK), nil
}

// Get implements GET <record>: delivers the current of run-unit, which
// must be of the stated type, with virtual fields resolved, as a fresh
// record (nil unless the status is OK).
func (s *Session) Get(recType string) (*value.Record, Status, error) {
	rec := value.NewRecord()
	st, err := s.GetInto(recType, rec)
	if err != nil || st != OK {
		return nil, st, err
	}
	return rec, OK, nil
}

// GetInto is Get into a record the caller reuses, the allocation-free
// counterpart for loops that GET into one buffer: with status OK, out is
// reset and filled; with any other outcome it is left untouched.
func (s *Session) GetInto(recType string, out *value.Record) (Status, error) {
	if s.db.schema.Record(recType) == nil {
		return s.status, fmt.Errorf("netstore: unknown record type %s", recType)
	}
	if s.runUnit == 0 || !s.db.Exists(s.runUnit) {
		return s.fail(NoCurrency), nil
	}
	o := s.db.recs[s.runUnit]
	if o.typ.Name != recType {
		return s.fail(WrongType), nil
	}
	s.db.DataInto(o.id, out)
	return s.fail(OK), nil
}

// Modify implements MODIFY <record>: replaces the stated stored fields of
// the current of run-unit and repositions it in every set occurrence whose
// keys it moved under. A reposition that would duplicate a set key fails
// with DuplicateInSet and leaves the record unchanged.
func (s *Session) Modify(recType string, rec *value.Record) (Status, error) {
	if s.db.readOnly {
		return s.status, ErrReadOnly
	}
	typ := s.db.schema.Record(recType)
	if typ == nil {
		return s.status, fmt.Errorf("netstore: unknown record type %s", recType)
	}
	if s.runUnit == 0 || !s.db.Exists(s.runUnit) {
		return s.fail(NoCurrency), nil
	}
	o := s.db.recs[s.runUnit]
	if o.typ.Name != recType {
		return s.fail(WrongType), nil
	}
	newData := o.data.Clone()
	for _, n := range rec.Names() {
		f := typ.Field(n)
		if f == nil {
			return s.status, fmt.Errorf("netstore: %s has no field %s", recType, n)
		}
		if f.Virtual != nil {
			return s.status, fmt.Errorf("netstore: %s.%s is virtual and cannot be modified", recType, n)
		}
		v := rec.MustGet(n)
		if !v.IsNull() && v.Kind() != f.Kind {
			return s.status, fmt.Errorf("netstore: %s.%s: value kind %v, field kind %v",
				recType, n, v.Kind(), f.Kind)
		}
		newData.Set(n, v)
	}
	// Check duplicates in every set occurrence the record belongs to.
	for setName, owner := range o.memberOf {
		if _, dup := s.db.seek(s.db.schema.Set(setName), owner, newData, o.id); dup {
			return s.fail(DuplicateInSet), nil
		}
	}
	// Reposition under the new key values.
	for setName, owner := range o.memberOf {
		s.db.removeMember(setName, owner, o.id)
	}
	s.db.indexRemove(o) // keyed by the old data; re-add under the new below
	o.data = newData
	s.db.indexAdd(o)
	for setName, owner := range o.memberOf {
		set := s.db.schema.Set(setName)
		pos, _ := s.db.seek(set, owner, o.data, -1)
		s.db.insertAt(set, owner, pos, o)
	}
	return s.fail(OK), nil
}

// Erase implements ERASE <record> on the current of run-unit: MANDATORY
// members of sets it owns are erased with it, OPTIONAL members are
// disconnected (§3.1's DELETE-with-cascade behaviour).
func (s *Session) Erase(recType string) (Status, error) {
	if s.db.readOnly {
		return s.status, ErrReadOnly
	}
	if s.db.schema.Record(recType) == nil {
		return s.status, fmt.Errorf("netstore: unknown record type %s", recType)
	}
	if s.runUnit == 0 || !s.db.Exists(s.runUnit) {
		return s.fail(NoCurrency), nil
	}
	o := s.db.recs[s.runUnit]
	if o.typ.Name != recType {
		return s.fail(WrongType), nil
	}
	s.db.eraseOccurrence(o)
	s.scrubStale()
	return s.fail(OK), nil
}

// Connect implements CONNECT <record> TO <set>: wires the current of
// run-unit into the set occurrence selected by the set's currency.
func (s *Session) Connect(set string) (Status, error) {
	if s.db.readOnly {
		return s.status, ErrReadOnly
	}
	st := s.db.schema.Set(set)
	if st == nil {
		return s.status, fmt.Errorf("netstore: unknown set %s", set)
	}
	if s.runUnit == 0 || !s.db.Exists(s.runUnit) {
		return s.fail(NoCurrency), nil
	}
	o := s.db.recs[s.runUnit]
	if o.typ.Name != st.Member {
		return s.fail(WrongType), nil
	}
	var owner RecordID
	if st.IsSystem() {
		owner = systemOwner
	} else {
		// The record being connected is also current of the set (currency
		// follows the run-unit), so owner selection must not resolve
		// through it: use the current of the owner's record type.
		cur := s.ofType[st.Owner]
		if cur == 0 || !s.db.Exists(cur) {
			return s.fail(NoCurrentOwner), nil
		}
		owner = cur
	}
	return s.fail(s.db.connect(st, owner, o)), nil
}

// Disconnect implements DISCONNECT <record> FROM <set>. Disconnecting
// from a MANDATORY set is the retention violation of §3.1.
func (s *Session) Disconnect(set string) (Status, error) {
	if s.db.readOnly {
		return s.status, ErrReadOnly
	}
	st := s.db.schema.Set(set)
	if st == nil {
		return s.status, fmt.Errorf("netstore: unknown set %s", set)
	}
	if s.runUnit == 0 || !s.db.Exists(s.runUnit) {
		return s.fail(NoCurrency), nil
	}
	o := s.db.recs[s.runUnit]
	if o.typ.Name != st.Member {
		return s.fail(WrongType), nil
	}
	if _, connected := o.memberOf[set]; !connected {
		return s.fail(NotMember), nil
	}
	if st.Retention == schema.Mandatory {
		return s.fail(Retention), nil
	}
	s.db.disconnect(set, o)
	return s.fail(OK), nil
}
