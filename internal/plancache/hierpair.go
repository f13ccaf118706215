package plancache

import (
	"progconv/internal/fingerprint"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

// HierPair is the immutable pair-scoped context of one hierarchical
// conversion — Pair's counterpart over the DL/I model. The hierarchical
// catalogue has no composed rewriters, path graph, or cost table: its
// substitution rules live on the plan steps themselves, and the
// optimizer is an identity pass.
type HierPair struct {
	// Key is the content-addressed cache key, domain-separated from
	// network pair keys by fingerprint.HierPairKey.
	Key      fingerprint.Hash
	SrcHash  fingerprint.Hash
	PlanHash fingerprint.Hash

	Src    *schema.Hierarchy
	Plan   *xform.HierPlan
	Target *schema.Hierarchy
	// Description and Invertible are the plan's report-facing summary.
	Description string
	Invertible  bool
}

// BuildHierPair computes every hierarchical pair-scoped artifact cold.
// A nil plan is classified from the (src, dst) hierarchy diff first.
func BuildHierPair(src, dst *schema.Hierarchy, plan *xform.HierPlan) (*HierPair, error) {
	key := fingerprint.HierPairKey(src, dst, plan)
	if plan == nil {
		p, err := xform.ClassifyHier(src, dst)
		if err != nil {
			return nil, &BuildError{Phase: PhaseClassify, Err: err}
		}
		plan = p
	}
	target, err := plan.ApplySchema(src)
	if err != nil {
		return nil, &BuildError{Phase: PhaseApply, Err: err}
	}
	return &HierPair{
		Key:         key,
		SrcHash:     fingerprint.Hierarchy(src),
		PlanHash:    fingerprint.HierPlan(plan),
		Src:         src,
		Plan:        plan,
		Target:      target,
		Description: plan.Describe(),
		Invertible:  plan.Invertible(),
	}, nil
}
