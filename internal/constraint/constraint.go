// Package constraint is the centralized integrity-constraint subsystem
// §3.1 argues for: "This problem could be reduced significantly if
// constraints could be removed from program logic and centralized,
// explicitly, as part of the data model."
//
// The 1979 models cannot hold these rules — the relational model keeps
// only key uniqueness, the owner-coupled-set model only what
// AUTOMATIC/MANDATORY encode — so programs enforce them procedurally, and
// schema changes silently invalidate the programs' assumptions. This
// package states the paper's example rules declaratively (existence,
// uniqueness, numeric participation limits like "a course may not be
// offered more than twice in a school year") and checks them against any
// engine through the Instance interface, so the conversion system can
// carry them from source to target.
package constraint

import (
	"fmt"

	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/relstore"
	"progconv/internal/value"
)

// Instance is a data-model-independent view of a database population:
// every engine adapts to it.
type Instance interface {
	// Entities returns the records of the named entity type (relation,
	// record type, or segment type), with derived fields resolved.
	Entities(name string) []*value.Record
}

// Violation reports one constraint failure.
type Violation struct {
	Constraint string
	Message    string
	Record     *value.Record // the offending record, nil for group rules
}

func (v Violation) String() string {
	if v.Record != nil {
		return fmt.Sprintf("%s: %s: %s", v.Constraint, v.Message, v.Record)
	}
	return fmt.Sprintf("%s: %s", v.Constraint, v.Message)
}

// Constraint is a declarative integrity rule.
type Constraint interface {
	// Name identifies the rule in reports and conversion plans.
	Name() string
	// Check returns every violation in the instance.
	Check(inst Instance) []Violation
}

// Existence is the §3.1 rule that "a course-offering instance cannot
// exist unless the course and semester instances it references do": every
// child record's fields must match some parent record, and must not be
// null.
type Existence struct {
	Label        string
	Child        string
	ChildFields  []string
	Parent       string
	ParentFields []string
}

// Name implements Constraint.
func (c Existence) Name() string { return c.Label }

// Check implements Constraint.
func (c Existence) Check(inst Instance) []Violation {
	parents := make(map[string]bool)
	for _, p := range inst.Entities(c.Parent) {
		parents[p.KeyOf(c.ParentFields)] = true
	}
	var out []Violation
	for _, ch := range inst.Entities(c.Child) {
		nullField := ""
		for _, f := range c.ChildFields {
			if ch.MustGet(f).IsNull() {
				nullField = f
				break
			}
		}
		if nullField != "" {
			out = append(out, Violation{c.Label,
				fmt.Sprintf("%s.%s cannot be null", c.Child, nullField), ch})
			continue
		}
		probe := ch.Project(c.ChildFields)
		key := value.NewRecord()
		for i, f := range c.ParentFields {
			key.Set(f, probe.MustGet(c.ChildFields[i]))
		}
		if !parents[key.KeyOf(c.ParentFields)] {
			out = append(out, Violation{c.Label,
				fmt.Sprintf("%s references missing %s", c.Child, c.Parent), ch})
		}
	}
	return out
}

// Unique requires the field combination to be unique across the entity.
type Unique struct {
	Label  string
	Entity string
	Fields []string
}

// Name implements Constraint.
func (c Unique) Name() string { return c.Label }

// Check implements Constraint.
func (c Unique) Check(inst Instance) []Violation {
	seen := make(map[string]bool)
	var out []Violation
	for _, r := range inst.Entities(c.Entity) {
		k := r.KeyOf(c.Fields)
		if seen[k] {
			out = append(out, Violation{c.Label,
				fmt.Sprintf("duplicate %v in %s", c.Fields, c.Entity), r})
		}
		seen[k] = true
	}
	return out
}

// Term is one grouping component of a Cardinality rule: either a field of
// the entity itself, or a field fetched from a related entity through a
// lookup join (the school rule groups offerings by the YEAR of the
// SEMESTER the offering's S names).
type Term struct {
	Field  string
	Lookup *Lookup // nil for a direct field
}

// Lookup describes how to fetch Term.Field from a related entity.
type Lookup struct {
	Entity string // related entity type
	Local  string // field of the constrained entity
	Remote string // matching field of the related entity
}

// Cardinality is the §3.1 "numeric limits on relationship participation"
// rule "not maintained by any of the models": at most Max records of
// Entity may share a GroupBy value.
type Cardinality struct {
	Label   string
	Entity  string
	GroupBy []Term
	Max     int
}

// Name implements Constraint.
func (c Cardinality) Name() string { return c.Label }

// Check implements Constraint.
func (c Cardinality) Check(inst Instance) []Violation {
	// Pre-index lookup targets.
	lookups := make(map[int]map[string]value.Value) // term index -> local key -> remote value
	for i, term := range c.GroupBy {
		if term.Lookup == nil {
			continue
		}
		idx := make(map[string]value.Value)
		for _, r := range inst.Entities(term.Lookup.Entity) {
			idx[r.MustGet(term.Lookup.Remote).Key()] = r.MustGet(term.Field)
		}
		lookups[i] = idx
	}
	// A group's key is its terms' values in KeyOf's layout, each Key form
	// behind its length, so string values cannot shift a boundary; the
	// groups keep the order in which they first appear.
	type group struct {
		label string
		n     int
	}
	var groups []group
	at := make(map[string]int)
	var key []byte
	for _, r := range inst.Entities(c.Entity) {
		key = key[:0]
		var label string
		for i, term := range c.GroupBy {
			var v value.Value
			if term.Lookup == nil {
				v = r.MustGet(term.Field)
			} else {
				v = lookups[i][r.MustGet(term.Lookup.Local).Key()]
			}
			key = v.AppendKeyPart(key)
			if label != "" {
				label += ","
			}
			label += v.String()
		}
		g, ok := at[string(key)]
		if !ok {
			g = len(groups)
			at[string(key)] = g
			groups = append(groups, group{})
		}
		groups[g].label = label
		groups[g].n++
	}
	var out []Violation
	for _, g := range groups {
		if g.n > c.Max {
			out = append(out, Violation{c.Label,
				fmt.Sprintf("%s group (%s) has %d records, limit %d", c.Entity, g.label, g.n, c.Max), nil})
		}
	}
	return out
}

// CheckAll evaluates every rule and concatenates the violations.
func CheckAll(rules []Constraint, inst Instance) []Violation {
	var out []Violation
	for _, r := range rules {
		out = append(out, r.Check(inst)...)
	}
	return out
}

// ---- engine adapters ----

type relInstance struct{ db *relstore.DB }

// FromRelational adapts a relational database to Instance.
func FromRelational(db *relstore.DB) Instance { return relInstance{db} }

func (r relInstance) Entities(name string) []*value.Record {
	rows, err := r.db.All(name)
	if err != nil {
		return nil
	}
	return rows
}

type netInstance struct{ db *netstore.DB }

// FromNetwork adapts a network database to Instance. Virtual fields are
// resolved, so constraints can be stated over the logical record.
func FromNetwork(db *netstore.DB) Instance { return netInstance{db} }

func (n netInstance) Entities(name string) []*value.Record {
	var out []*value.Record
	n.db.EachOf(name, func(id netstore.RecordID) bool {
		out = append(out, n.db.Data(id))
		return true
	})
	return out
}

type hierInstance struct{ db *hierstore.DB }

// FromHierarchy adapts a hierarchical database to Instance.
func FromHierarchy(db *hierstore.DB) Instance { return hierInstance{db} }

func (h hierInstance) Entities(name string) []*value.Record {
	var out []*value.Record
	for _, id := range h.db.Sequence() {
		if h.db.TypeOf(id) == name {
			out = append(out, h.db.Data(id))
		}
	}
	return out
}

// SchoolRules returns the §3.1 rules for the school database of Figure
// 3.1, including the "course may not be offered more than twice in a
// school year" limit that no 1979 model can hold.
func SchoolRules() []Constraint {
	return []Constraint{
		Existence{
			Label: "offering-requires-course",
			Child: "COURSE-OFFERING", ChildFields: []string{"CNO"},
			Parent: "COURSE", ParentFields: []string{"CNO"},
		},
		Existence{
			Label: "offering-requires-semester",
			Child: "COURSE-OFFERING", ChildFields: []string{"S"},
			Parent: "SEMESTER", ParentFields: []string{"S"},
		},
		Unique{
			Label:  "offering-key",
			Entity: "COURSE-OFFERING", Fields: []string{"CNO", "S"},
		},
		Cardinality{
			Label:  "at-most-twice-per-year",
			Entity: "COURSE-OFFERING",
			GroupBy: []Term{
				{Field: "CNO"},
				{Field: "YEAR", Lookup: &Lookup{Entity: "SEMESTER", Local: "S", Remote: "S"}},
			},
			Max: 2,
		},
	}
}
