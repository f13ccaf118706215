package xform

import (
	"fmt"

	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// The oracle is the serial data translator Migrate replaced, kept as
// test code: one StoreWith per record through a map-based ID table, the
// two hand-written intermediate loops, and the serial hierarchical
// reorder. The property suites compare Migrate against it, so the
// engine is checked against a reference written separately from it.

// oracleRebuild copies src into a fresh database under dst, applying
// the mapping functions. Record types are processed owners-first so that
// destination memberships can be wired as occurrences appear.
func oracleRebuild(src *netstore.DB, dst *schema.Network, f rebuildFns) (*netstore.DB, error) {
	out := netstore.NewDB(dst)
	idMap := map[netstore.RecordID]netstore.RecordID{}
	srcSchema := src.Schema()
	for _, srcType := range topoRecordOrder(srcSchema) {
		dstType := srcType
		if f.mapType != nil {
			dstType = f.mapType(srcType)
		}
		if dstType == "" {
			continue
		}
		memberSets := srcSchema.SetsWithMember(srcType)
		var visitErr error
		// EachOf iterates src without copying; only out is mutated here,
		// so the no-mutation-during-visit contract holds.
		src.EachOf(srcType, func(id netstore.RecordID) bool {
			data := src.StoredData(id)
			if f.mapData != nil {
				data = f.mapData(srcType, data)
			}
			memberships := map[string]netstore.RecordID{}
			for _, set := range memberSets {
				owner, connected := src.OwnerOf(set.Name, id)
				if !connected {
					continue
				}
				dstSet := set.Name
				if f.mapSet != nil {
					dstSet = f.mapSet(set.Name)
				}
				if dstSet == "" {
					continue
				}
				if set.IsSystem() {
					memberships[dstSet] = netstore.OwnerSystem
				} else {
					dstOwner, ok := idMap[owner]
					if !ok {
						visitErr = fmt.Errorf("xform: %s occurrence's owner in %s not yet migrated", srcType, set.Name)
						return false
					}
					memberships[dstSet] = dstOwner
				}
			}
			nid, err := out.StoreWith(dstType, data, memberships)
			if err != nil {
				visitErr = err
				return false
			}
			idMap[id] = nid
			return true
		})
		if visitErr != nil {
			return nil, visitErr
		}
	}
	return out, nil
}

// oracleIntroduce regroups members beneath intermediates created per
// (owner, group value).
func oracleIntroduce(t IntroduceIntermediate, src *netstore.DB, dst *schema.Network) (*netstore.DB, error) {
	set, _, _, err := t.check(src.Schema())
	if err != nil {
		return nil, err
	}
	memberType := set.Member

	out := netstore.NewDB(dst)
	idMap := map[netstore.RecordID]netstore.RecordID{}
	// inters maps (dst owner ID, group key) to the intermediate created.
	type interKey struct {
		owner netstore.RecordID
		group string
	}
	inters := map[interKey]netstore.RecordID{}

	srcSchema := src.Schema()
	for _, srcType := range topoRecordOrder(srcSchema) {
		memberSets := srcSchema.SetsWithMember(srcType)
		var visitErr error
		src.EachOf(srcType, func(id netstore.RecordID) bool {
			data := src.StoredData(id)
			memberships := map[string]netstore.RecordID{}
			for _, s := range memberSets {
				owner, connected := src.OwnerOf(s.Name, id)
				if !connected {
					continue
				}
				if s.IsSystem() {
					memberships[s.Name] = netstore.OwnerSystem
					continue
				}
				dstOwner, ok := idMap[owner]
				if !ok {
					visitErr = fmt.Errorf("xform: owner of %s in %s not yet migrated", srcType, s.Name)
					return false
				}
				if srcType == memberType && s.Name == t.Set {
					// Route through an intermediate for this group value.
					gv := data.MustGet(t.GroupField)
					k := interKey{dstOwner, gv.Key()}
					interID, have := inters[k]
					if !have {
						rec := value.NewRecord()
						rec.Set(t.GroupField, gv)
						interID, visitErr = out.StoreWith(t.Inter, rec,
							map[string]netstore.RecordID{t.Upper: dstOwner})
						if visitErr != nil {
							return false
						}
						inters[k] = interID
					}
					memberships[t.Lower] = interID
					continue
				}
				memberships[s.Name] = dstOwner
			}
			if srcType == memberType {
				data.Delete(t.GroupField) // now virtual through the chain
			}
			nid, err := out.StoreWith(srcType, data, memberships)
			if err != nil {
				visitErr = err
				return false
			}
			idMap[id] = nid
			return true
		})
		if visitErr != nil {
			return nil, visitErr
		}
	}
	return out, nil
}

// oracleCollapse drops the intermediates and reattaches each member to
// its intermediate's owner, pulling the group field back down.
func oracleCollapse(t CollapseIntermediate, src *netstore.DB, dst *schema.Network) (*netstore.DB, error) {
	upper, lower, err := t.check(src.Schema())
	if err != nil {
		return nil, err
	}
	interName := upper.Member
	memberType := lower.Member

	out := netstore.NewDB(dst)
	idMap := map[netstore.RecordID]netstore.RecordID{}
	srcSchema := src.Schema()
	for _, srcType := range topoRecordOrder(srcSchema) {
		if srcType == interName {
			continue // intermediates vanish
		}
		memberSets := srcSchema.SetsWithMember(srcType)
		var visitErr error
		src.EachOf(srcType, func(id netstore.RecordID) bool {
			data := src.StoredData(id)
			memberships := map[string]netstore.RecordID{}
			for _, s := range memberSets {
				owner, connected := src.OwnerOf(s.Name, id)
				if !connected {
					continue
				}
				if s.IsSystem() {
					memberships[s.Name] = netstore.OwnerSystem
					continue
				}
				if srcType == memberType && s.Name == t.Lower {
					// Reattach to the intermediate's owner, pulling the
					// group field back down.
					gv := src.StoredData(owner).MustGet(t.GroupField)
					data.Set(t.GroupField, gv)
					grand, ok := src.OwnerOf(t.Upper, owner)
					if !ok {
						visitErr = fmt.Errorf("xform: intermediate %d has no %s owner", owner, t.Upper)
						return false
					}
					dstOwner, ok := idMap[grand]
					if !ok {
						visitErr = fmt.Errorf("xform: owner of intermediate not yet migrated")
						return false
					}
					memberships[t.NewSet] = dstOwner
					continue
				}
				dstOwner, ok := idMap[owner]
				if !ok {
					visitErr = fmt.Errorf("xform: owner of %s in %s not yet migrated", srcType, s.Name)
					return false
				}
				memberships[s.Name] = dstOwner
			}
			nid, err := out.StoreWith(srcType, data, memberships)
			if err != nil {
				visitErr = err
				return false
			}
			idMap[id] = nid
			return true
		})
		if visitErr != nil {
			return nil, visitErr
		}
	}
	return out, nil
}

// oracleStep restructures a database instance into dst, which must be
// the step's ApplySchema result.
func oracleStep(t Transformation, src *netstore.DB, dst *schema.Network) (*netstore.DB, error) {
	switch x := t.(type) {
	case IntroduceIntermediate:
		return oracleIntroduce(x, src, dst)
	case CollapseIntermediate:
		return oracleCollapse(x, src, dst)
	}
	return oracleRebuild(src, dst, t.dataFns())
}

// oracleStepwise chains the steps' data restructurings, one
// full-database pass per step.
func oracleStepwise(p *Plan, src *netstore.DB) (*netstore.DB, error) {
	cur := src
	curSchema := src.Schema()
	for _, t := range p.Steps {
		nextSchema, err := t.ApplySchema(curSchema)
		if err != nil {
			return nil, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		next, err := oracleStep(t, cur, nextSchema)
		if err != nil {
			return nil, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		cur = next
		curSchema = nextSchema
	}
	return cur, nil
}

// oracleFused is Migrate's pass structure run serially: maximal runs of
// two or more per-record mapping steps compose into one rebuild, every
// other step takes its own pass. Its errors carry the same wrapping
// Migrate's do.
func oracleFused(p *Plan, src *netstore.DB) (*netstore.DB, MigrateStats, error) {
	var stats MigrateStats
	cur := src
	curSchema := src.Schema()
	for i := 0; i < len(p.Steps); {
		// Extend a maximal run of composable steps starting at i.
		j := i
		for j < len(p.Steps) && p.Steps[j].dataFns().composable() {
			j++
		}
		if j-i >= 2 {
			// Compose the run's mapping functions across the step chain
			// and rebuild once, directly into the run's final schema.
			finalSchema := curSchema
			chain := make([]rebuildFns, 0, j-i)
			for k := i; k < j; k++ {
				next, err := p.Steps[k].ApplySchema(finalSchema)
				if err != nil {
					return nil, stats, fmt.Errorf("xform: %s: %w", p.Steps[k].Name(), err)
				}
				chain = append(chain, p.Steps[k].dataFns())
				finalSchema = next
			}
			next, err := oracleRebuild(cur, finalSchema, composeFns(chain))
			if err != nil {
				return nil, stats, fmt.Errorf("xform: fused steps %d..%d: %w", i+1, j, err)
			}
			stats.FusedSteps += j - i
			stats.Passes++
			cur, curSchema = next, finalSchema
			i = j
			continue
		}
		t := p.Steps[i]
		nextSchema, err := t.ApplySchema(curSchema)
		if err != nil {
			return nil, stats, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		next, err := oracleStep(t, cur, nextSchema)
		if err != nil {
			return nil, stats, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		stats.StepwiseSteps++
		stats.Passes++
		cur, curSchema = next, nextSchema
		i++
	}
	return cur, stats, nil
}

// oracleHierReorder restructures the database: each promoted occurrence
// becomes a root, with a copy of its former parent beneath it. Parent
// occurrences with no promoted children are dropped (they are
// unreachable in the new order) — the migration reports them. It
// replays ISRTs by SSA path, so it copies none of the old root's other
// children and, when the promoted type has no sequence field, hangs
// every parent copy under the first root; compare against it only where
// neither arises, as on PERSONNEL. TestHierReorderKeepsOtherChildren and
// TestHierReorderPromotedWithoutSeq pin the engine where they do.
func oracleHierReorder(t HierReorder, src *hierstore.DB, dst *schema.Hierarchy) (*hierstore.DB, []string, error) {
	out := hierstore.NewDB(dst)
	sess := hierstore.NewSession(out)
	oldRootType := src.Schema().Root.Name
	var warnings []string
	newRootSeg := dst.Root
	for _, rootID := range src.Roots() {
		parentData := src.Data(rootID)
		children := src.ChildrenOf(rootID, t.Promote)
		if len(children) == 0 {
			warnings = append(warnings,
				fmt.Sprintf("%s %s has no %s occurrences and is unreachable after reorder",
					oldRootType, parentData.String(), t.Promote))
			continue
		}
		for _, cid := range children {
			cdata := src.Data(cid)
			st := sess.ISRT(cdata, hierstore.U(t.Promote))
			if st == hierstore.II {
				// The child already exists as a root (promoted from another
				// parent occurrence); the new root is shared.
				warnings = append(warnings,
					fmt.Sprintf("%s %s promoted once; parents merge beneath it", t.Promote, cdata.String()))
			} else if st != hierstore.OK {
				return nil, warnings, fmt.Errorf("migrating %s: ISRT status %v", t.Promote, st)
			}
			seqField := newRootSeg.Seq
			path := []hierstore.SSA{hierstore.U(t.Promote)}
			if seqField != "" {
				path = []hierstore.SSA{hierstore.Q(t.Promote, seqField, hierstore.EQ, cdata.MustGet(seqField))}
			}
			if st := sess.ISRT(parentData, append(path, hierstore.U(oldRootType))...); st != hierstore.OK {
				return nil, warnings, fmt.Errorf("migrating %s under %s: ISRT status %v", oldRootType, t.Promote, st)
			}
		}
	}
	return out, warnings, nil
}

// oracleHierPlan chains the steps' data restructurings and accumulates
// their warnings.
func oracleHierPlan(p *HierPlan, src *hierstore.DB) (*hierstore.DB, []string, error) {
	cur := src
	curSchema := src.Schema()
	var warnings []string
	for _, t := range p.Steps {
		nextSchema, err := t.ApplySchema(curSchema)
		if err != nil {
			return nil, warnings, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		next, warns, err := oracleHierReorder(t, cur, nextSchema)
		warnings = append(warnings, warns...)
		if err != nil {
			return nil, warnings, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		cur, curSchema = next, nextSchema
	}
	if cur == src {
		// Identity plan: hand back a clone so the "migrated" database
		// never aliases the caller's source.
		return src.Clone(), warnings, nil
	}
	return cur, warnings, nil
}
