package xform

import (
	"fmt"

	"progconv/internal/hierstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// HierReorder is the Mehl & Wang transformation of §2.2: a change in the
// hierarchical order of an IMS structure. A child segment type is
// promoted to the root, its former parent becoming its child — the
// classic DEPT→EMP to EMP→DEPT inversion for a one-to-one-ish pairing,
// generalized here by duplicating the old parent beneath each promoted
// child. Old programs keep working through "command substitution rules"
// (RewriteSSAs).
type HierReorder struct {
	// Promote names the child segment type that becomes the new root.
	Promote string
}

// Name identifies the transformation.
func (t HierReorder) Name() string { return "hier-reorder" }

// Describe renders the transformation.
func (t HierReorder) Describe() string {
	return fmt.Sprintf("segment %s promoted to root; former root becomes its child", t.Promote)
}

// Invertible reports whether an inverse mapping exists: yes, the same
// reorder applied the other way, provided no occurrences were orphaned.
func (t HierReorder) Invertible() bool { return true }

// ApplySchema transforms the hierarchy. The promoted segment must be a
// direct child of the root in a two-level hierarchy (the shape Mehl &
// Wang's order transformations address call-by-call).
func (t HierReorder) ApplySchema(src *schema.Hierarchy) (*schema.Hierarchy, error) {
	root := src.Root
	if root == nil {
		return nil, fmt.Errorf("empty hierarchy")
	}
	var promoted *schema.Segment
	for _, c := range root.Children {
		if c.Name == t.Promote {
			promoted = c
		}
	}
	if promoted == nil {
		return nil, fmt.Errorf("%s is not a child of root %s", t.Promote, root.Name)
	}
	if len(promoted.Children) > 0 {
		return nil, fmt.Errorf("%s has children of its own; only leaf promotion is catalogued", t.Promote)
	}
	newRoot := promoted.Clone()
	oldRoot := root.Clone()
	var keptChildren []*schema.Segment
	for _, c := range oldRoot.Children {
		if c.Name != t.Promote {
			keptChildren = append(keptChildren, c)
		}
	}
	oldRoot.Children = keptChildren
	newRoot.Children = []*schema.Segment{oldRoot}
	out := &schema.Hierarchy{Name: src.Name, Root: newRoot}
	return out, out.Validate()
}

// RewriteSSAs is the command substitution rule for calls whose target is
// the old root: an SSA path stated in the old order (PARENT, CHILD)
// becomes the new order (CHILD, PARENT) with the qualification payloads
// carried along. A call targeting the promoted child cannot be rewritten
// into a single SSA path — DL/I paths qualify ancestors, never
// descendants — and needs EmulateGU's command sequence instead, which is
// the very complication §2.1.2 attributes to the emulation strategy.
func (t HierReorder) RewriteSSAs(oldRootType string, ssas []hierstore.SSA) []hierstore.SSA {
	var parentQ, childQ *hierstore.SSA
	var rest []hierstore.SSA
	for i := range ssas {
		switch ssas[i].Segment {
		case oldRootType:
			parentQ = &ssas[i]
		case t.Promote:
			childQ = &ssas[i]
		default:
			rest = append(rest, ssas[i])
		}
	}
	var out []hierstore.SSA
	if childQ != nil {
		out = append(out, *childQ)
	}
	if parentQ != nil {
		if childQ == nil {
			// Target is the parent alone: in the new order it lives under
			// every promoted child, so the path must pass through the child
			// unqualified.
			out = append(out, hierstore.U(t.Promote))
		}
		out = append(out, *parentQ)
	}
	return append(out, rest...)
}

// EmulateGU executes an old-order GU against the reordered database by
// the substituted command sequence: when the call targets the promoted
// child with a parent qualification, the emulator sweeps the child roots
// and probes each one's parent copies with GNP until the qualification
// holds — Mehl & Wang's per-call evaluation, and the source of the
// emulation strategy's overhead.
func (t HierReorder) EmulateGU(sess *hierstore.Session, oldRootType string, path []hierstore.SSA) (*value.Record, hierstore.Status) {
	if len(path) == 0 {
		return sess.GU()
	}
	target := path[len(path)-1].Segment
	if target == oldRootType {
		// Parent-targeted calls rewrite to a direct path.
		return sess.GU(t.RewriteSSAs(oldRootType, path)...)
	}
	if target != t.Promote {
		return sess.GU(path...)
	}
	var childSSA, parentSSA *hierstore.SSA
	for i := range path {
		switch path[i].Segment {
		case t.Promote:
			childSSA = &path[i]
		case oldRootType:
			parentSSA = &path[i]
		}
	}
	childPath := hierstore.U(t.Promote)
	if childSSA != nil {
		childPath = *childSSA
	}
	rec, st := sess.GU(childPath)
	for st == hierstore.OK {
		if parentSSA == nil {
			return rec, hierstore.OK
		}
		if _, pst := sess.GNP(*parentSSA); pst == hierstore.OK {
			// Reposition on the child so the caller's currency matches the
			// original call's.
			return sess.GU(exactChildSSA(sess.DB().Schema().Root, rec, childPath))
		}
		rec, st = sess.GN(childPath)
	}
	return nil, hierstore.GE
}

// exactChildSSA pins a retrieved child record by its sequence field so a
// re-GU lands on the same occurrence.
func exactChildSSA(root *schema.Segment, rec *value.Record, fallback hierstore.SSA) hierstore.SSA {
	if root.Seq == "" {
		return fallback
	}
	return hierstore.Q(root.Name, root.Seq, hierstore.EQ, rec.MustGet(root.Seq))
}

// ReorderedValueEqual verifies migration fidelity field-by-field: every
// (parent, child) pair of the source appears as a (child, parent-copy)
// pair in the target. It returns the number of pairs checked.
func (t HierReorder) ReorderedValueEqual(src, dst *hierstore.DB) (int, error) {
	oldRootType := src.Schema().Root.Name
	pairs := 0
	for _, rootID := range src.Roots() {
		parentData := src.Data(rootID)
		for _, cid := range src.ChildrenOf(rootID, t.Promote) {
			cdata := src.Data(cid)
			found := false
			for _, nr := range dst.Roots() {
				if !dst.Data(nr).Equal(cdata) {
					continue
				}
				for _, pc := range dst.ChildrenOf(nr, oldRootType) {
					if dst.Data(pc).Equal(parentData) {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			if !found {
				return pairs, fmt.Errorf("pair (%s, %s) missing after reorder", parentData, cdata)
			}
			pairs++
		}
	}
	return pairs, nil
}
