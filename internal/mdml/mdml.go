// Package mdml implements the University of Maryland conversion-oriented
// DML of §4.2 (Shneiderman): retrievals that "return collections of
// records of a single record type", specified by a FIND with a qualified
// access path that "begins with a SYSTEM owned set or a collection of
// previously retrieved target records" and is extended by set-name /
// record-name pairs, plus SORT, STORE, DELETE and MODIFY.
//
//	FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'),
//	     DIV-EMP, EMP(DEPT-NAME = 'SALES'))
//
// The language exists to be easy to convert: the paper's Figure 4.2→4.4
// transformation rewrites these FIND paths mechanically, which
// package xform reproduces.
package mdml

import (
	"fmt"
	"slices"

	"progconv/internal/netstore"
	"progconv/internal/value"
)

// Qual is a boolean qualification over one record's fields.
type Qual interface {
	fmt.Stringer
	// AppendTo appends the qualification's source rendering to dst;
	// String is its thin wrapper.
	AppendTo(dst []byte) []byte
	// Eval tests the record; params supply :NAME placeholders.
	Eval(rec *value.Record, params map[string]value.Value) (bool, error)
}

// Cmp is FIELD op operand.
type Cmp struct {
	Field string
	Op    string
	Lit   value.Value // used when Param is empty
	Param string
}

func (c Cmp) String() string { return string(c.AppendTo(nil)) }

// AppendTo implements Qual.
func (c Cmp) AppendTo(dst []byte) []byte {
	dst = append(dst, c.Field...)
	dst = append(dst, ' ')
	dst = append(dst, c.Op...)
	if c.Param != "" {
		dst = append(dst, " :"...)
		return append(dst, c.Param...)
	}
	dst = append(dst, ' ')
	return c.Lit.AppendLiteral(dst)
}

// Eval implements Qual.
func (c Cmp) Eval(rec *value.Record, params map[string]value.Value) (bool, error) {
	lhs, ok := rec.Get(c.Field)
	if !ok {
		return false, fmt.Errorf("mdml: record has no field %s", c.Field)
	}
	rhs := c.Lit
	if c.Param != "" {
		v, bound := params[c.Param]
		if !bound {
			return false, fmt.Errorf("mdml: unbound parameter :%s", c.Param)
		}
		rhs = v
	}
	if lhs.IsNull() || rhs.IsNull() {
		return false, nil
	}
	cmp, comparable := lhs.Compare(rhs)
	if !comparable {
		return false, nil
	}
	switch c.Op {
	case "=":
		return cmp == 0, nil
	case "<>":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("mdml: unknown operator %q", c.Op)
}

// And is conjunction.
type And struct{ L, R Qual }

func (q And) String() string { return string(q.AppendTo(nil)) }

// AppendTo implements Qual.
func (q And) AppendTo(dst []byte) []byte { return appendBinary(dst, q.L, " AND ", q.R) }

// appendBinary renders (L op R).
func appendBinary(dst []byte, l Qual, op string, r Qual) []byte {
	dst = append(dst, '(')
	dst = l.AppendTo(dst)
	dst = append(dst, op...)
	dst = r.AppendTo(dst)
	return append(dst, ')')
}

// Eval implements Qual.
func (q And) Eval(rec *value.Record, params map[string]value.Value) (bool, error) {
	l, err := q.L.Eval(rec, params)
	if err != nil || !l {
		return false, err
	}
	return q.R.Eval(rec, params)
}

// Or is disjunction.
type Or struct{ L, R Qual }

func (q Or) String() string { return string(q.AppendTo(nil)) }

// AppendTo implements Qual.
func (q Or) AppendTo(dst []byte) []byte { return appendBinary(dst, q.L, " OR ", q.R) }

// Eval implements Qual.
func (q Or) Eval(rec *value.Record, params map[string]value.Value) (bool, error) {
	l, err := q.L.Eval(rec, params)
	if err != nil || l {
		return l, err
	}
	return q.R.Eval(rec, params)
}

// Not is negation.
type Not struct{ Q Qual }

func (q Not) String() string { return string(q.AppendTo(nil)) }

// AppendTo implements Qual.
func (q Not) AppendTo(dst []byte) []byte {
	dst = append(dst, "(NOT "...)
	dst = q.Q.AppendTo(dst)
	return append(dst, ')')
}

// Eval implements Qual.
func (q Not) Eval(rec *value.Record, params map[string]value.Value) (bool, error) {
	v, err := q.Q.Eval(rec, params)
	return !v, err
}

// Conjuncts decomposes a qualification into its top-level AND conjuncts,
// the unit the Program Converter moves between path steps (a DEPT-NAME
// condition migrates from the EMP step to the new DEPT step in the
// Figure 4.2→4.4 conversion).
func Conjuncts(q Qual) []Qual {
	if q == nil {
		return nil
	}
	if a, ok := q.(And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Qual{q}
}

// Conjoin rebuilds a qualification from conjuncts (nil for none).
func Conjoin(qs []Qual) Qual {
	var out Qual
	for _, q := range qs {
		if out == nil {
			out = q
		} else {
			out = And{out, q}
		}
	}
	return out
}

// QualFields returns every field name a qualification mentions.
func QualFields(q Qual) []string {
	switch x := q.(type) {
	case nil:
		return nil
	case Cmp:
		return []string{x.Field}
	case And:
		return append(QualFields(x.L), QualFields(x.R)...)
	case Or:
		return append(QualFields(x.L), QualFields(x.R)...)
	case Not:
		return QualFields(x.Q)
	}
	return nil
}

// IsEqualityOn reports whether the qualification pins the given field
// with a top-level equality conjunct — the condition under which a
// rewritten path stays within one set occurrence and needs no SORT.
func IsEqualityOn(q Qual, field string) bool {
	for _, c := range Conjuncts(q) {
		if cmp, ok := c.(Cmp); ok && cmp.Field == field && cmp.Op == "=" {
			return true
		}
	}
	return false
}

// StepKind distinguishes path elements.
type StepKind uint8

// Path step kinds.
const (
	SystemStep     StepKind = iota // the SYSTEM entry point
	CollectionStep                 // a previously retrieved collection, by name
	SetStep                        // traverse a set from owners to members
	RecordStep                     // filter to a record type, optionally qualified
)

// Step is one element of a FIND access path.
type Step struct {
	Kind StepKind
	Name string // set name, record name, or collection name
	Qual Qual   // only for RecordStep, may be nil
}

func (s Step) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the step's rendering to dst: SYSTEM, @COLLECTION, a
// set name, or a record name with its qualification in parentheses.
func (s Step) AppendTo(dst []byte) []byte {
	switch s.Kind {
	case SystemStep:
		return append(dst, "SYSTEM"...)
	case CollectionStep:
		return append(append(dst, '@'), s.Name...)
	}
	dst = append(dst, s.Name...)
	if s.Kind != SetStep && s.Qual != nil {
		dst = append(dst, '(')
		dst = s.Qual.AppendTo(dst)
		dst = append(dst, ')')
	}
	return dst
}

// Find is a FIND(target: path...) retrieval.
type Find struct {
	Target string
	Steps  []Step
}

// String renders the FIND in the paper's syntax.
func (f *Find) String() string { return string(f.AppendTo(nil)) }

// AppendTo appends the FIND's rendering to dst; a nil Find renders as
// <nil>, as fmt printed it.
func (f *Find) AppendTo(dst []byte) []byte {
	if f == nil {
		return append(dst, "<nil>"...)
	}
	dst = append(dst, "FIND("...)
	dst = append(dst, f.Target...)
	dst = append(dst, ": "...)
	for i, s := range f.Steps {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = s.AppendTo(dst)
	}
	return append(dst, ')')
}

// Sort wraps a Find (or collection) with an ordering, the paper's
// SORT(FIND(...)) ON (EMP-NAME).
type Sort struct {
	Inner *Find
	On    []string
}

// String renders the SORT in the paper's syntax.
func (s *Sort) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends the SORT's rendering to dst.
func (s *Sort) AppendTo(dst []byte) []byte {
	dst = append(dst, "SORT("...)
	dst = s.Inner.AppendTo(dst)
	dst = append(dst, ") ON ("...)
	for i, f := range s.On {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, f...)
	}
	return append(dst, ')')
}

// Evaluator runs Maryland DML against a network database.
type Evaluator struct {
	db *netstore.DB
	// Collections holds previously retrieved collections by name, for
	// paths that start from one.
	Collections map[string][]netstore.RecordID
	// Params supplies :NAME qualification placeholders.
	Params map[string]value.Value
}

// NewEvaluator creates an evaluator over the database.
func NewEvaluator(db *netstore.DB) *Evaluator {
	return &Evaluator{
		db:          db,
		Collections: make(map[string][]netstore.RecordID),
		Params:      make(map[string]value.Value),
	}
}

// DB returns the underlying database.
func (e *Evaluator) DB() *netstore.DB { return e.db }

// Eval runs a FIND and returns the resulting collection of record IDs,
// in traversal order, without duplicates (§4.2: "Duplicates are not
// allowed").
func (e *Evaluator) Eval(f *Find) ([]netstore.RecordID, error) {
	if e.db.Schema().Record(f.Target) == nil {
		return nil, fmt.Errorf("mdml: unknown target record type %s", f.Target)
	}
	if len(f.Steps) == 0 {
		return nil, fmt.Errorf("mdml: empty access path")
	}
	sch := e.db.Schema()
	f, err := f.Classified(
		func(n string) bool { return sch.Set(n) != nil },
		func(n string) bool { return sch.Record(n) != nil },
	)
	if err != nil {
		return nil, err
	}
	var current []netstore.RecordID
	sawSystem := false
	for i, step := range f.Steps {
		switch step.Kind {
		case SystemStep:
			if i != 0 {
				return nil, fmt.Errorf("mdml: SYSTEM must begin the path")
			}
			sawSystem = true
		case CollectionStep:
			if i != 0 {
				return nil, fmt.Errorf("mdml: collection %s must begin the path", step.Name)
			}
			coll, ok := e.Collections[step.Name]
			if !ok {
				return nil, fmt.Errorf("mdml: unknown collection %s", step.Name)
			}
			current = append([]netstore.RecordID(nil), coll...)
		case SetStep:
			set := e.db.Schema().Set(step.Name)
			if set == nil {
				return nil, fmt.Errorf("mdml: unknown set %s", step.Name)
			}
			if i == 1 && sawSystem {
				if !set.IsSystem() {
					return nil, fmt.Errorf("mdml: set %s after SYSTEM is not SYSTEM-owned", step.Name)
				}
				current = e.db.SystemMembers(step.Name)
				continue
			}
			var next []netstore.RecordID
			seen := make(map[netstore.RecordID]bool)
			for _, owner := range current {
				if e.db.TypeOf(owner) != set.Owner {
					return nil, fmt.Errorf("mdml: set %s cannot be traversed from %s records",
						step.Name, e.db.TypeOf(owner))
				}
				e.db.EachMember(step.Name, owner, func(m netstore.RecordID) bool {
					if !seen[m] {
						seen[m] = true
						next = append(next, m)
					}
					return true
				})
			}
			current = next
		case RecordStep:
			typ := e.db.Schema().Record(step.Name)
			if typ == nil {
				return nil, fmt.Errorf("mdml: unknown record type %s", step.Name)
			}
			// Every candidate is read into one record, and the survivors
			// are kept in place: current is this evaluation's own slice.
			var rec *value.Record
			if step.Qual != nil {
				rec = value.NewRecordSize(len(typ.Fields))
			}
			next := current[:0]
			for _, id := range current {
				if e.db.TypeOf(id) != step.Name {
					return nil, fmt.Errorf("mdml: path yields %s records where %s expected",
						e.db.TypeOf(id), step.Name)
				}
				if step.Qual != nil {
					e.db.DataInto(id, rec)
					keep, err := step.Qual.Eval(rec, e.Params)
					if err != nil {
						return nil, err
					}
					if !keep {
						continue
					}
				}
				next = append(next, id)
			}
			current = next
		}
	}
	last := f.Steps[len(f.Steps)-1]
	if last.Kind != RecordStep || last.Name != f.Target {
		return nil, fmt.Errorf("mdml: path must end at the target record type %s", f.Target)
	}
	return current, nil
}

// EvalSort runs a SORT(FIND(...)) ON (fields).
func (e *Evaluator) EvalSort(s *Sort) ([]netstore.RecordID, error) {
	ids, err := e.Eval(s.Inner)
	if err != nil {
		return nil, err
	}
	return e.SortIDs(ids, s.On)
}

// SortIDs orders a collection by the given fields of the records' data.
// Each record is read into one reused buffer and only its sort keys are
// kept, row-major in keys; the stable sort then permutes positions, so
// equal keys keep the collection's order.
func (e *Evaluator) SortIDs(ids []netstore.RecordID, on []string) ([]netstore.RecordID, error) {
	w := len(on)
	keys := make([]value.Value, 0, len(ids)*w)
	rec := value.NewRecord()
	for _, id := range ids {
		if !e.db.DataInto(id, rec) {
			return nil, fmt.Errorf("mdml: stale record %d in collection", id)
		}
		for _, f := range on {
			v, ok := rec.Get(f)
			if !ok {
				return nil, fmt.Errorf("mdml: sort field %s not in record", f)
			}
			keys = append(keys, v)
		}
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ka, kb := keys[a*w:(a+1)*w], keys[b*w:(b+1)*w]
		for k := range ka {
			if c := ka[k].Order(kb[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	out := make([]netstore.RecordID, len(order))
	for i, pos := range order {
		out[i] = ids[pos]
	}
	return out, nil
}

// Records resolves a collection to its record data, in order.
func (e *Evaluator) Records(ids []netstore.RecordID) []*value.Record {
	out := make([]*value.Record, 0, len(ids))
	for _, id := range ids {
		if r := e.db.Data(id); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Delete erases every record in the collection, with the engine's
// retention semantics (MANDATORY members cascade).
func (e *Evaluator) Delete(ids []netstore.RecordID) (int, error) {
	sess := netstore.NewSession(e.db)
	n := 0
	for _, id := range ids {
		if !e.db.Exists(id) {
			continue // already cascaded away
		}
		recType := e.db.TypeOf(id)
		if sess.Position(id) != netstore.OK {
			continue
		}
		if _, err := sess.Erase(recType); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Modify applies the assignments to every record in the collection.
func (e *Evaluator) Modify(ids []netstore.RecordID, set *value.Record) (int, error) {
	sess := netstore.NewSession(e.db)
	n := 0
	for _, id := range ids {
		if !e.db.Exists(id) {
			continue
		}
		recType := e.db.TypeOf(id)
		if st := sess.Position(id); st != netstore.OK {
			return n, fmt.Errorf("mdml: cannot reposition on record %d (%v)", id, st)
		}
		mst, err := sess.Modify(recType, set)
		if err != nil {
			return n, err
		}
		if mst != netstore.OK {
			return n, fmt.Errorf("mdml: modify failed with %v", mst)
		}
		n++
	}
	return n, nil
}

// Store creates a record of the target type. ownerPaths names, for each
// non-SYSTEM AUTOMATIC set the type is a member of, a FIND that must
// resolve to exactly one owner occurrence; the new record is connected
// beneath it.
func (e *Evaluator) Store(target string, rec *value.Record, ownerPaths map[string]*Find) (netstore.RecordID, error) {
	typ := e.db.Schema().Record(target)
	if typ == nil {
		return 0, fmt.Errorf("mdml: unknown record type %s", target)
	}
	sess := netstore.NewSession(e.db)
	for _, set := range e.db.Schema().SetsWithMember(target) {
		if set.IsSystem() {
			continue
		}
		path, ok := ownerPaths[set.Name]
		if !ok {
			continue // MANUAL sets need no owner; AUTOMATIC will fail in Store
		}
		owners, err := e.Eval(path)
		if err != nil {
			return 0, err
		}
		if len(owners) != 1 {
			return 0, fmt.Errorf("mdml: owner path for set %s resolved to %d records, need exactly 1",
				set.Name, len(owners))
		}
		// Position the set's currency on the owner.
		if st := sess.Position(owners[0]); st != netstore.OK {
			return 0, fmt.Errorf("mdml: cannot position on owner for set %s (%v)", set.Name, st)
		}
	}
	id, st, err := sess.Store(target, rec)
	if err != nil {
		return 0, err
	}
	if st != netstore.OK {
		return 0, fmt.Errorf("mdml: store failed with %v", st)
	}
	return id, nil
}
