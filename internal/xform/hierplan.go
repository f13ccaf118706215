package xform

import (
	"fmt"
	"strings"

	"progconv/internal/schema"
)

// HierPlan is an ordered sequence of hierarchical transformations — the
// DL/I counterpart of Plan. The catalogue currently holds one entry,
// the §2.2 hierarchical reorder, so steps are concrete HierReorder
// values rather than an interface: the program converter needs their
// command substitution rules (RewriteSSAs, EmulateGU) directly.
type HierPlan struct {
	Steps []HierReorder
}

// Describe renders the plan one transformation per line, in the same
// numbered format as Plan.Describe.
func (p *HierPlan) Describe() string {
	var b strings.Builder
	for i, t := range p.Steps {
		fmt.Fprintf(&b, "%d. %s: %s\n", i+1, t.Name(), t.Describe())
	}
	return b.String()
}

// Invertible reports whether every step admits an inverse data mapping.
func (p *HierPlan) Invertible() bool {
	for _, t := range p.Steps {
		if !t.Invertible() {
			return false
		}
	}
	return true
}

// ApplySchema chains the steps' schema mappings.
func (p *HierPlan) ApplySchema(src *schema.Hierarchy) (*schema.Hierarchy, error) {
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

// ClassifyHier is the Conversion Analyzer over the hierarchical model:
// it compares source and target hierarchies and produces a HierPlan
// drawn from the catalogue. Identical hierarchies classify to the empty
// plan; a target reachable by promoting one direct leaf child of the
// source root classifies to that reorder. Anything else is the
// situation an interactive Conversion Analyst must resolve with an
// explicit plan.
func ClassifyHier(src, dst *schema.Hierarchy) (*HierPlan, error) {
	if src == nil || src.Root == nil || dst == nil || dst.Root == nil {
		return nil, fmt.Errorf("xform: classify: empty hierarchy")
	}
	if src.DDL() == dst.DDL() {
		return &HierPlan{}, nil
	}
	for _, c := range src.Root.Children {
		if c.Name != dst.Root.Name || len(c.Children) > 0 {
			continue
		}
		t := HierReorder{Promote: c.Name}
		out, err := t.ApplySchema(src)
		if err != nil {
			continue
		}
		if out.DDL() == dst.DDL() {
			return &HierPlan{Steps: []HierReorder{t}}, nil
		}
	}
	return nil, fmt.Errorf("xform: cannot classify hierarchy change %s -> %s: not a catalogued reorder (supply an explicit plan)",
		src.Root.Name, dst.Root.Name)
}
