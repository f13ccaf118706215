// Package xform is the transformation catalog of the conversion
// framework: each Transformation bundles the four aspects the paper's
// architecture needs from a schema change —
//
//  1. the schema mapping (Conversion Analyzer input),
//  2. the induced data restructuring (the data translation the paper
//     cites as prior art: EXPRESS, the Michigan translator),
//  3. the program-conversion rewrite rules (Program Converter input),
//  4. invertibility, Housel's precondition: "the assumption of the
//     existence of inverse operators restricts the scope of the
//     conversion problem".
//
// A Plan chains transformations; Classify infers a Plan from a source and
// target schema pair, flagging anything it cannot explain for the
// Conversion Analyst.
package xform

import (
	"fmt"
	"strings"

	"progconv/internal/schema"
	"progconv/internal/semantic"
)

// PathSplit records that one set was replaced by an
// owner→intermediate→member chain (the Figure 4.2→4.4 change), with
// everything the program rewriter needs.
type PathSplit struct {
	Upper      string   // new owner→intermediate set
	Inter      string   // intermediate record type
	GroupField string   // field identifying the intermediate
	Lower      string   // new intermediate→member set
	Member     string   // the member record type of the replaced set
	Owner      string   // the owner record type of the replaced set
	OldKeys    []string // the replaced set's ordering keys
}

// PathMerge records that an owner→intermediate→member chain was
// collapsed into one set.
type PathMerge struct {
	Upper  string // removed owner→intermediate set
	Inter  string // removed intermediate record type
	Lower  string // removed intermediate→member set
	NewSet string // restored owner→member set
}

// Rewriter holds one transformation's program-conversion mapping rules.
// The Program Converter composes these across a Plan.
type Rewriter struct {
	// Record maps renamed record types (old → new).
	Record map[string]string
	// Field maps relocated or renamed fields: {record, field} → {record, field}.
	Field map[[2]string][2]string
	// Set maps renamed set types.
	Set map[string]string
	// Splits maps a removed set to its replacement chain.
	Splits map[string]PathSplit
	// Merges lists chains collapsed into a single set (the inverse of a
	// split).
	Merges []PathMerge
	// Dropped lists {record, field} pairs that no longer exist in any
	// form; programs referencing them are not convertible.
	Dropped [][2]string
	// OrderChanged maps sets whose member enumeration order changed to
	// the old ordering keys (programs depending on the order need SORT).
	OrderChanged map[string][]string
	// Notes records behavioural changes that preserve structure but not
	// strict equivalence (§5.2's levels of successful conversion), e.g. a
	// retention change.
	Notes []string
	// Step is the catalogue name of the plan step this rewriter came
	// from (set by Plan.Rewriters), so converter findings can attribute
	// themselves in the decision audit trail.
	Step string
}

// NewRewriter returns an empty rewriter (identity mapping).
func NewRewriter() *Rewriter {
	return &Rewriter{
		Record:       map[string]string{},
		Field:        map[[2]string][2]string{},
		Set:          map[string]string{},
		Splits:       map[string]PathSplit{},
		OrderChanged: map[string][]string{},
	}
}

// MapRecord returns the new name of a record type.
func (r *Rewriter) MapRecord(name string) string {
	if n, ok := r.Record[name]; ok {
		return n
	}
	return name
}

// MapSet returns the new name of a set type ("" if the set was split
// away and has no single successor).
func (r *Rewriter) MapSet(name string) (string, bool) {
	if _, split := r.Splits[name]; split {
		return "", false
	}
	if n, ok := r.Set[name]; ok {
		return n, true
	}
	return name, true
}

// MapField returns the new home of a field.
func (r *Rewriter) MapField(record, field string) (string, string) {
	if nf, ok := r.Field[[2]string{record, field}]; ok {
		return nf[0], nf[1]
	}
	return r.MapRecord(record), field
}

// IsDropped reports whether the field was dropped outright.
func (r *Rewriter) IsDropped(record, field string) bool {
	for _, d := range r.Dropped {
		if d[0] == record && d[1] == field {
			return true
		}
	}
	return false
}

// RewriteHops maps a network access path through the transformation:
// renames, split expansion (a downward hop through a split set becomes
// two downward hops; upward reverses), and merge contraction (a chain's
// two hops collapse into one).
func (r *Rewriter) RewriteHops(hops []semantic.Hop) []semantic.Hop {
	var out []semantic.Hop
	for i := 0; i < len(hops); i++ {
		h := hops[i]
		if sp, ok := r.Splits[h.Set]; ok {
			if h.Down {
				out = append(out,
					semantic.Hop{Set: sp.Upper, Down: true},
					semantic.Hop{Set: sp.Lower, Down: true})
			} else {
				out = append(out,
					semantic.Hop{Set: sp.Lower, Down: false},
					semantic.Hop{Set: sp.Upper, Down: false})
			}
			continue
		}
		merged := false
		for _, m := range r.Merges {
			if i+1 < len(hops) {
				next := hops[i+1]
				if h.Down && next.Down && h.Set == m.Upper && next.Set == m.Lower {
					out = append(out, semantic.Hop{Set: m.NewSet, Down: true})
					i++
					merged = true
					break
				}
				if !h.Down && !next.Down && h.Set == m.Lower && next.Set == m.Upper {
					out = append(out, semantic.Hop{Set: m.NewSet, Down: false})
					i++
					merged = true
					break
				}
			}
		}
		if merged {
			continue
		}
		name, _ := r.MapSet(h.Set)
		out = append(out, semantic.Hop{Set: name, Down: h.Down})
	}
	return out
}

// Transformation is one catalogued schema transformation over the
// network model.
type Transformation interface {
	// Name is the catalogue identifier.
	Name() string
	// Describe renders the transformation for conversion reports.
	Describe() string
	// Invertible reports whether an inverse data mapping exists.
	Invertible() bool
	// ApplySchema produces the transformed schema.
	ApplySchema(src *schema.Network) (*schema.Network, error)
	// dataFns returns the step's data restructuring as the mapping
	// functions one Migrate pass applies per record. The catalogue is
	// closed, so the hook is unexported.
	dataFns() rebuildFns
	// Rewriter returns the program-conversion rules.
	Rewriter(src *schema.Network) (*Rewriter, error)
}

// Plan is an ordered sequence of transformations: the "definition of a
// restructuring" of the paper's problem statement.
type Plan struct {
	Steps []Transformation
}

// Describe renders the plan one transformation per line.
func (p *Plan) Describe() string {
	var b strings.Builder
	for i, t := range p.Steps {
		fmt.Fprintf(&b, "%d. %s: %s\n", i+1, t.Name(), t.Describe())
	}
	return b.String()
}

// Invertible reports whether every step admits an inverse data mapping.
func (p *Plan) Invertible() bool {
	for _, t := range p.Steps {
		if !t.Invertible() {
			return false
		}
	}
	return true
}

// ApplySchema chains the steps' schema mappings.
func (p *Plan) ApplySchema(src *schema.Network) (*schema.Network, error) {
	cur := src
	for _, t := range p.Steps {
		next, err := t.ApplySchema(cur)
		if err != nil {
			return nil, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// Rewriters returns the per-step rewrite rules against the schemas each
// step actually sees.
func (p *Plan) Rewriters(src *schema.Network) ([]*Rewriter, error) {
	cur := src
	var out []*Rewriter
	for _, t := range p.Steps {
		r, err := t.Rewriter(cur)
		if err != nil {
			return nil, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		r.Step = t.Name()
		out = append(out, r)
		next, err := t.ApplySchema(cur)
		if err != nil {
			return nil, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		cur = next
	}
	return out, nil
}

// topoRecordOrder orders record types so that every set owner precedes
// its members, which is the order the data translator must create
// occurrences in. Cycles (legal in CODASYL, rare) fall back to schema
// order after the acyclic prefix.
func topoRecordOrder(s *schema.Network) []string {
	indeg := map[string]int{}
	for _, r := range s.Records {
		indeg[r.Name] = 0
	}
	for _, t := range s.Sets {
		if t.IsSystem() || t.Owner == t.Member {
			continue
		}
		indeg[t.Member]++
	}
	var order []string
	placed := map[string]bool{}
	for len(order) < len(s.Records) {
		progressed := false
		for _, r := range s.Records {
			if placed[r.Name] || indeg[r.Name] != 0 {
				continue
			}
			placed[r.Name] = true
			order = append(order, r.Name)
			progressed = true
			for _, t := range s.Sets {
				if !t.IsSystem() && t.Owner == r.Name && t.Owner != t.Member && !placed[t.Member] {
					indeg[t.Member]--
				}
			}
		}
		if !progressed {
			for _, r := range s.Records {
				if !placed[r.Name] {
					placed[r.Name] = true
					order = append(order, r.Name)
				}
			}
		}
	}
	return order
}
