package xform

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// MigrateOptions configures the data translator.
type MigrateOptions struct {
	// Parallelism bounds the shard workers per rebuild pass; <= 0 means
	// GOMAXPROCS. The output is byte-identical at every setting.
	Parallelism int
}

// MigrateStats reports how a migration executed: how many steps were
// composed into multi-step passes and how many ran a pass of their own,
// the total passes made, how many shards those passes fanned out into,
// and how many records went through the bulk-load merge phase.
type MigrateStats struct {
	FusedSteps    int
	StepwiseSteps int
	Passes        int
	Shards        int
	BulkRecords   int
}

// rebuildFns parameterizes one rebuild pass of the data translator.
type rebuildFns struct {
	// mapType returns the destination record type ("" = drop the record).
	mapType func(srcType string) string
	// mapData transforms a stored record (never nil; identity by default).
	mapData func(srcType string, data *value.Record) *value.Record
	// mapSet returns the destination set for a source membership
	// ("" = drop the membership).
	mapSet func(srcSet string) string
	// split routes each member's membership in split.Set through an
	// intermediate occurrence, created per (destination owner, group
	// value) just before the first member that needs it.
	split *IntroduceIntermediate
	// merge reattaches each member of merge.Lower to its intermediate's
	// merge.Upper owner, pulling the group field back down; the
	// intermediates themselves are dropped.
	merge *CollapseIntermediate
}

// composable reports whether the pass is a pure per-record mapping that
// can compose with its neighbours into a single pass.
func (f rebuildFns) composable() bool { return f.split == nil && f.merge == nil }

// composeFns chains mapping-function sets left to right. mapData sees
// the record under the type name it has at entry to that step, so
// renames and data edits interleave exactly as one pass per step would
// apply them.
func composeFns(chain []rebuildFns) rebuildFns {
	if len(chain) == 1 {
		return chain[0]
	}
	return rebuildFns{
		mapType: func(srcType string) string {
			cur := srcType
			for _, f := range chain {
				if f.mapType != nil {
					cur = f.mapType(cur)
					if cur == "" {
						return ""
					}
				}
			}
			return cur
		},
		mapData: func(srcType string, data *value.Record) *value.Record {
			cur := srcType
			for _, f := range chain {
				if f.mapData != nil {
					data = f.mapData(cur, data)
				}
				if f.mapType != nil {
					cur = f.mapType(cur)
				}
			}
			return data
		},
		mapSet: func(srcSet string) string {
			cur := srcSet
			for _, f := range chain {
				if f.mapSet != nil {
					cur = f.mapSet(cur)
					if cur == "" {
						return ""
					}
				}
			}
			return cur
		},
	}
}

// minShardRecords is the smallest extent worth a dedicated shard: below
// this, goroutine handoff costs more than the transform it parallelizes.
const minShardRecords = 64

// ctxPollEvery is how many records the shard workers and the splice
// loop process between context polls, mirroring equiv.Check's cadence.
const ctxPollEvery = 256

// fanOut partitions n records into contiguous shards and runs prepare
// over each: inline for a single shard, one goroutine per shard
// otherwise. The shard count depends only on (n, parallelism), never on
// runtime load, so a migration shards identically on every machine and
// every run.
func fanOut(n, parallelism int, stats *MigrateStats, prepare func(lo, hi int)) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	shards := min(parallelism, (n+minShardRecords-1)/minShardRecords)
	shards = max(shards, 1)
	stats.Shards += shards
	if shards == 1 {
		prepare(0, n)
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			prepare(lo, hi)
		}()
	}
	wg.Wait()
}

// Migrate restructures src through the plan: the data translator of
// the paper's Figure 4.1. Each maximal run of per-record mapping steps
// composes into one rebuild pass; each intermediate introduction or
// collapse takes a pass of its own through the same engine. Every pass
// fans its per-record transform out over opts.Parallelism shard workers
// and splices the results through the netstore bulk loader in source
// order, so record IDs, set orderings, index contents, error text and
// order are the same at every setting. Cancelling ctx aborts mid-pass;
// the cause surfaces unwrapped inside the usual per-step error
// wrapping, so errors.Is(err, context.DeadlineExceeded) sees through it.
func (p *Plan) Migrate(ctx context.Context, src *netstore.DB, opts MigrateOptions) (*netstore.DB, MigrateStats, error) {
	var stats MigrateStats
	fns := make([]rebuildFns, len(p.Steps))
	for i, t := range p.Steps {
		fns[i] = t.dataFns()
	}
	cur, curSchema := src, src.Schema()
	for i := 0; i < len(p.Steps); {
		j := i + 1
		for fns[i].composable() && j < len(p.Steps) && fns[j].composable() {
			j++
		}
		nextSchema := curSchema
		for _, t := range p.Steps[i:j] {
			next, err := t.ApplySchema(nextSchema)
			if err != nil {
				return nil, stats, fmt.Errorf("xform: %s: %w", t.Name(), err)
			}
			nextSchema = next
		}
		next, err := rebuildParallel(ctx, cur, nextSchema, composeFns(fns[i:j]), opts.Parallelism, &stats)
		if err != nil {
			if j-i > 1 {
				return nil, stats, fmt.Errorf("xform: fused steps %d..%d: %w", i+1, j, err)
			}
			return nil, stats, fmt.Errorf("xform: %s: %w", p.Steps[i].Name(), err)
		}
		if j-i > 1 {
			stats.FusedSteps += j - i
		} else {
			stats.StepwiseSteps++
		}
		stats.Passes++
		cur, curSchema = next, nextSchema
		i = j
	}
	return cur, stats, nil
}

// stagedMember is one source set membership a shard worker collected:
// the spliceSet index and the source owner occurrence, resolved to a
// destination owner only at splice time (the owner's destination ID
// does not exist until its own splice).
type stagedMember struct {
	si    int
	owner netstore.RecordID
}

// stagedRec is one shard-prepared record awaiting its splice: the
// destination data record (built off-thread, kind-checked), the
// memberships to wire, the group value a split routes it by, and any
// error the preparation raised — held back so errors surface in
// submission order.
type stagedRec struct {
	data    *value.Record
	members []stagedMember
	group   value.Value
	err     error
}

// spliceSet is one source member set of the type being rebuilt, with
// its destination mapping pre-resolved once per pass instead of per
// record.
type spliceSet struct {
	srcName string
	dstName string
	dst     *schema.SetType // nil when dstName is absent from dst
	system  bool
	drop    bool
	split   bool // membership routes through a split's intermediate
	merge   bool // membership reattaches to a merge's Upper owner
}

// interKey names one intermediate a split creates: the destination
// owner and the group value's key form.
type interKey struct {
	owner netstore.RecordID
	group string
}

// stagingRecPool recycles the per-worker scratch records that hold a
// source occurrence's stored data during the transform. The staged
// destination records are NOT pooled — they become the new database's
// occurrence data.
var stagingRecPool = sync.Pool{New: func() any { return value.NewRecord() }}

// rebuildParallel copies src into a fresh database under dst, applying
// the pass's mapping functions. Record types are processed owners-first
// so destination memberships can be wired as occurrences appear. Each
// type's extent is partitioned into contiguous ID-range shards,
// transformed into private staging, then spliced into the destination
// sequentially in source insertion order — so IDs, set orderings, index
// contents and error precedence do not depend on the shard count. The
// splice goes through the bulk loader, which defers member ordering and
// index maintenance to one batched finalization per pass.
func rebuildParallel(ctx context.Context, src *netstore.DB, dst *schema.Network, f rebuildFns, parallelism int, stats *MigrateStats) (*netstore.DB, error) {
	out := netstore.NewDB(dst)
	bl := out.NewBulkLoader(src.Len())
	// idMap is dense: source IDs are bounded by IDBound and destination
	// IDs start at 1, so 0 doubles as "not migrated".
	idMap := make([]netstore.RecordID, src.IDBound())
	srcSchema := src.Schema()

	var interType *schema.RecordType
	var interTargets []netstore.Membership
	var inters map[interKey]netstore.RecordID
	if f.split != nil {
		interType = dst.Record(f.split.Inter)
		interTargets = []netstore.Membership{{Set: dst.Set(f.split.Upper)}}
		inters = map[interKey]netstore.RecordID{}
	}
	var mergeInter string
	if f.merge != nil {
		mergeInter = srcSchema.Set(f.merge.Upper).Member
	}

	var staged []stagedRec
	var memBuf []stagedMember
	var targets []netstore.Membership

	for _, srcType := range topoRecordOrder(srcSchema) {
		dstType := srcType
		if f.mapType != nil {
			dstType = f.mapType(srcType)
		}
		if dstType == "" || srcType == mergeInter {
			continue
		}
		ids := src.AllOf(srcType)
		n := len(ids)
		if n == 0 {
			// An empty extent never stores anything, so even an unmapped
			// destination type is not an error.
			continue
		}
		typ := dst.Record(dstType)
		if typ == nil {
			return nil, fmt.Errorf("netstore: unknown record type %s", dstType)
		}

		memberSets := srcSchema.SetsWithMember(srcType)
		sets := make([]spliceSet, len(memberSets))
		for si, set := range memberSets {
			dstSet := set.Name
			if f.mapSet != nil {
				dstSet = f.mapSet(set.Name)
			}
			e := spliceSet{srcName: set.Name, dstName: dstSet, system: set.IsSystem(), drop: dstSet == "",
				split: f.split != nil && set.Name == f.split.Set,
				merge: f.merge != nil && set.Name == f.merge.Lower}
			if !e.drop {
				e.dst = dst.Set(dstSet)
			}
			sets[si] = e
		}
		k := len(sets)

		if cap(staged) < n {
			staged = make([]stagedRec, n)
		}
		staged = staged[:n]
		if k > 0 && cap(memBuf) < n*k {
			memBuf = make([]stagedMember, n*k)
		}

		prepare := func(lo, hi int) {
			tmp := stagingRecPool.Get().(*value.Record)
			defer stagingRecPool.Put(tmp)
			var interData *value.Record
			if f.merge != nil {
				interData = stagingRecPool.Get().(*value.Record)
				defer stagingRecPool.Put(interData)
			}
			for i := lo; i < hi; i++ {
				if i%ctxPollEvery == 0 && ctx.Err() != nil {
					for ; i < hi; i++ {
						staged[i] = stagedRec{err: ctx.Err()}
					}
					return
				}
				id := ids[i]
				st := &staged[i]
				*st = stagedRec{}
				src.StoredDataInto(id, tmp)
				data := tmp
				if f.mapData != nil {
					data = f.mapData(srcType, data)
				}
				if k > 0 {
					mem := memBuf[i*k : i*k : i*k+k]
					for si := range sets {
						e := &sets[si]
						if e.drop {
							continue
						}
						owner, connected := src.OwnerOf(e.srcName, id)
						if !connected {
							continue
						}
						switch {
						case e.split:
							st.group, _ = data.Get(f.split.GroupField)
						case e.merge:
							// The intermediate vanishes: its group value rejoins
							// the member and its own owner becomes the member's.
							src.StoredDataInto(owner, interData)
							gv, _ := interData.Get(f.merge.GroupField)
							data.Set(f.merge.GroupField, gv)
							grand, ok := src.OwnerOf(f.merge.Upper, owner)
							if !ok {
								st.err = fmt.Errorf("xform: intermediate %d has no %s owner", owner, f.merge.Upper)
							}
							owner = grand
						}
						if st.err != nil {
							break
						}
						mem = append(mem, stagedMember{si: si, owner: owner})
					}
					st.members = mem
				}
				if st.err != nil {
					continue
				}
				st.data, st.err = netstore.Shape(typ, data)
			}
		}
		fanOut(n, parallelism, stats, prepare)

		// Splice sequentially in source insertion order. Error precedence
		// per record: unmigrated owners (found while collecting
		// memberships), then the staged preparation error, then the bulk
		// loader's membership validation.
		if cap(targets) < k {
			targets = make([]netstore.Membership, 0, k)
		}
		for i := range staged {
			if i%ctxPollEvery == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			st := &staged[i]
			for _, m := range st.members {
				if sets[m.si].system {
					continue
				}
				if idMap[m.owner] == 0 {
					return nil, fmt.Errorf("xform: %s occurrence's owner in %s not yet migrated", srcType, sets[m.si].srcName)
				}
			}
			if st.err != nil {
				return nil, st.err
			}
			targets = targets[:0]
			for _, m := range st.members {
				e := &sets[m.si]
				if e.dst == nil {
					return nil, fmt.Errorf("netstore: unknown set %s", e.dstName)
				}
				owner := netstore.OwnerSystem
				if !e.system {
					owner = idMap[m.owner]
				}
				if e.split {
					ik := interKey{owner, st.group.Key()}
					iid, ok := inters[ik]
					if !ok {
						// No kind check: the group value was checked against
						// this field's kind when the source member was stored.
						rec := value.NewRecordSize(1)
						rec.Set(f.split.GroupField, st.group)
						interTargets[0].Owner = owner
						var err error
						if iid, err = bl.StorePrepared(interType, rec, interTargets); err != nil {
							return nil, err
						}
						inters[ik] = iid
					}
					owner = iid
				}
				targets = append(targets, netstore.Membership{Set: e.dst, Owner: owner})
			}
			nid, err := bl.StorePrepared(typ, st.data, targets)
			if err != nil {
				return nil, err
			}
			idMap[ids[i]] = nid
		}
	}
	bl.Close(parallelism)
	stats.BulkRecords += bl.Loaded()
	return out, nil
}

// stagedRoot is one shard-prepared source root of a hierarchical
// reorder: the parent's data, every promoted child's, and the subtrees
// of its other children, read off-thread so the sequential splice only
// places segments. The data records are the source's stored records,
// read in place: the source is not mutated during a migration, and
// hierstore.Insert shapes each into a fresh record, the one copy.
type stagedRoot struct {
	parentData *value.Record
	childData  []*value.Record
	kept       []stagedSeg
	canceled   bool
}

// stagedSeg is one segment of a non-promoted child subtree, in
// hierarchic sequence: its type, its data, and the position in the same
// list of its parent (-1 for a child of the old root itself).
type stagedSeg struct {
	typ    string
	data   *value.Record
	parent int
}

// stageSubtree appends the subtree of id, an occurrence of typ, to out
// in hierarchic sequence; out[base] is the first segment of the list
// that parent positions count from.
func stageSubtree(src *hierstore.DB, typ *schema.Segment, id hierstore.SegID, parent, base int, out []stagedSeg) []stagedSeg {
	out = append(out, stagedSeg{typ: typ.Name, data: src.Stored(id), parent: parent})
	self := len(out) - 1 - base
	for _, ct := range typ.Children {
		src.EachChild(id, ct.Name, func(c hierstore.SegID) bool {
			out = stageSubtree(src, ct, c, self, base, out)
			return true
		})
	}
	return out
}

// Migrate restructures src through the hierarchical plan, one pass per
// step, and accumulates the steps' warnings (dropped unreachable
// occurrences, merged roots). Each step's per-root reads fan out over
// shard workers ahead of the sequential insert splice, so databases,
// warnings and errors are the same at every setting. The identity plan
// returns a clone, so the migrated database never aliases src.
func (p *HierPlan) Migrate(ctx context.Context, src *hierstore.DB, opts MigrateOptions) (*hierstore.DB, []string, MigrateStats, error) {
	var stats MigrateStats
	cur := src
	curSchema := src.Schema()
	var warnings []string
	for _, t := range p.Steps {
		nextSchema, err := t.ApplySchema(curSchema)
		if err != nil {
			return nil, warnings, stats, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		next, warns, err := t.migrate(ctx, cur, nextSchema, opts.Parallelism, &stats)
		warnings = append(warnings, warns...)
		if err != nil {
			return nil, warnings, stats, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		stats.StepwiseSteps++
		stats.Passes++
		cur, curSchema = next, nextSchema
	}
	if cur == src {
		return src.Clone(), warnings, stats, nil
	}
	return cur, warnings, stats, nil
}

// migrate restructures the database: each promoted occurrence becomes a
// root, with a copy of its former parent beneath it, and beneath every
// such copy a copy of the parent's other child subtrees. Parent
// occurrences with no promoted children are dropped (they are
// unreachable in the new order) and reported as warnings. The per-root
// source reads (parent data, promoted children, the other subtrees —
// all in place on the unmutated source) are sharded across workers; the
// splice stays sequential in root order and places each segment by
// hierstore.Insert under the ID of the parent it has just created, so
// it builds no SSA and resolves no path.
func (t HierReorder) migrate(ctx context.Context, src *hierstore.DB, dst *schema.Hierarchy, parallelism int, stats *MigrateStats) (*hierstore.DB, []string, error) {
	roots := src.Roots()
	promote := t.Promote
	oldRoot := src.Schema().Root

	stagedRoots := make([]stagedRoot, len(roots))
	fanOut(len(roots), parallelism, stats, func(lo, hi int) {
		// A shard's roots stage into two shared lists, each root into a
		// window of them, so a root costs no allocation of its own.
		var children []*value.Record
		var kept []stagedSeg
		for i := lo; i < hi; i++ {
			if i%ctxPollEvery == 0 && ctx.Err() != nil {
				for ; i < hi; i++ {
					stagedRoots[i].canceled = true
				}
				return
			}
			st := &stagedRoots[i]
			st.parentData = src.Stored(roots[i])
			c0, k0 := len(children), len(kept)
			for _, ct := range oldRoot.Children {
				src.EachChild(roots[i], ct.Name, func(c hierstore.SegID) bool {
					if ct.Name == promote {
						children = append(children, src.Stored(c))
					} else {
						kept = stageSubtree(src, ct, c, -1, k0, kept)
					}
					return true
				})
			}
			st.childData = children[c0:len(children):len(children)]
			st.kept = kept[k0:len(kept):len(kept)]
		}
	})

	out := hierstore.NewDB(dst)
	var warnings []string
	var keptIDs []hierstore.SegID
	for i := range stagedRoots {
		if i%ctxPollEvery == 0 && ctx.Err() != nil {
			return nil, warnings, ctx.Err()
		}
		st := &stagedRoots[i]
		if st.canceled {
			return nil, warnings, ctx.Err()
		}
		if len(st.childData) == 0 {
			warnings = append(warnings,
				fmt.Sprintf("%s %s has no %s occurrences and is unreachable after reorder",
					oldRoot.Name, st.parentData.String(), promote))
			continue
		}
		for _, cdata := range st.childData {
			root, ist := out.Insert(0, promote, cdata)
			if ist == hierstore.II {
				// The child already exists as a root (promoted from another
				// parent occurrence); the new root is shared.
				warnings = append(warnings,
					fmt.Sprintf("%s %s promoted once; parents merge beneath it", promote, cdata.String()))
			} else if ist != hierstore.OK {
				return nil, warnings, fmt.Errorf("migrating %s: ISRT status %v", promote, ist)
			}
			parentCopy, ist := out.Insert(root, oldRoot.Name, st.parentData)
			if ist != hierstore.OK {
				return nil, warnings, fmt.Errorf("migrating %s under %s: ISRT status %v", oldRoot.Name, promote, ist)
			}
			keptIDs = keptIDs[:0]
			for _, k := range st.kept {
				under := parentCopy
				if k.parent >= 0 {
					under = keptIDs[k.parent]
				}
				id, ist := out.Insert(under, k.typ, k.data)
				if ist != hierstore.OK {
					return nil, warnings, fmt.Errorf("migrating %s under %s: ISRT status %v", k.typ, oldRoot.Name, ist)
				}
				keptIDs = append(keptIDs, id)
			}
		}
	}
	return out, warnings, nil
}
