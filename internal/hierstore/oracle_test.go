package hierstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// The oracle is the engine's original lookup path, kept as the reference
// the downward resolver must agree with: GU and ISRT's parent lookup
// built the whole hierarchic sequence and returned the first occurrence
// whose ancestor chain satisfied the SSA path, and the twin duplicate
// check compared against every twin.

// oracleGU is GU by a scan of the hierarchic sequence.
func oracleGU(s *Session, ssas ...SSA) (*value.Record, Status) {
	if st := s.checkSSAs(ssas); st != OK {
		return nil, s.fail(st)
	}
	if len(ssas) == 0 {
		if len(s.db.roots) == 0 {
			return nil, s.fail(GE)
		}
		return s.arrive(s.db.roots[0])
	}
	for _, id := range s.db.Sequence() {
		if s.pathMatches(id, ssas) {
			return s.arrive(id)
		}
	}
	return nil, s.fail(GE)
}

// oracleISRT is ISRT with the sequence-scan parent lookup and the linear
// twin check.
func oracleISRT(s *Session, data *value.Record, ssas ...SSA) Status {
	if len(ssas) == 0 {
		return s.fail(AJ)
	}
	if st := s.checkSSAs(ssas); st != OK {
		return s.fail(st)
	}
	target := s.db.schema.Segment(ssas[len(ssas)-1].Segment)
	rec := value.NewRecord()
	for _, f := range target.Fields {
		v, _ := data.Get(f.Name)
		if !v.IsNull() && v.Kind() != f.Kind {
			return s.fail(AJ)
		}
		rec.Set(f.Name, v)
	}
	for _, n := range data.Names() {
		if target.Field(n) == nil {
			return s.fail(AJ)
		}
	}
	var parentID SegID
	if len(ssas) == 1 {
		if s.db.schema.Root.Name != target.Name {
			return s.fail(AC)
		}
	} else {
		parentPath := ssas[:len(ssas)-1]
		found := false
		for _, id := range s.db.Sequence() {
			if s.pathMatches(id, parentPath) {
				parentID = id
				found = true
				break
			}
		}
		if !found {
			return s.fail(GE)
		}
	}
	var siblings []SegID
	if parentID == 0 {
		siblings = s.db.roots
	} else {
		siblings = s.db.segs[parentID].children[target.Name]
	}
	if target.Seq != "" {
		for _, sib := range siblings {
			if s.db.segs[sib].data.MustGet(target.Seq).Equal(rec.MustGet(target.Seq)) {
				return s.fail(II)
			}
		}
	}
	sg := &seg{id: s.db.nextID, typ: target, data: rec, parent: parentID, children: make(map[string][]SegID)}
	s.db.nextID++
	s.db.segs[sg.id] = sg
	if parentID == 0 {
		s.db.roots = insertOrdered(s.db, s.db.roots, sg)
	} else {
		p := s.db.segs[parentID]
		p.children[target.Name] = insertOrdered(s.db, p.children[target.Name], sg)
	}
	s.position = sg.id
	s.parentage = sg.id
	return s.fail(OK)
}

var randomFields = []schema.Field{
	{Name: "S", Kind: value.String},
	{Name: "I", Kind: value.Int},
	{Name: "F", Kind: value.Float},
}

// randomHierarchy draws a three-level schema — root A with children B
// and C, D beneath B — where each type has an even chance of a sequence
// field of a random kind.
func randomHierarchy(rng *rand.Rand) *schema.Hierarchy {
	seg := func(name string) *schema.Segment {
		s := &schema.Segment{Name: name, Fields: append([]schema.Field(nil), randomFields...)}
		if rng.Intn(2) == 0 {
			s.Seq = randomFields[rng.Intn(len(randomFields))].Name
		}
		return s
	}
	a, b, c, d := seg("A"), seg("B"), seg("C"), seg("D")
	b.Children = []*schema.Segment{d}
	a.Children = []*schema.Segment{b, c}
	return &schema.Hierarchy{Name: "RANDOM", Root: a}
}

// randomValue draws from a small domain of the kind, so twins and
// qualifications collide, with nulls and the odd NaN.
func randomValue(rng *rand.Rand, kind value.Kind) value.Value {
	if rng.Intn(6) == 0 {
		return value.NullValue()
	}
	switch kind {
	case value.String:
		return value.Str(string(rune('a' + rng.Intn(4))))
	case value.Int:
		return value.Of(int64(rng.Intn(5)))
	}
	if rng.Intn(40) == 0 {
		return value.F(math.NaN())
	}
	return value.F(float64(rng.Intn(5)) / 2)
}

// randomProbe is a qualification value: usually of the field's kind,
// sometimes of another kind (numeric cross-kind or incomparable).
func randomProbe(rng *rand.Rand, kind value.Kind) value.Value {
	if rng.Intn(5) == 0 {
		kind = randomFields[rng.Intn(len(randomFields))].Kind
	}
	return randomValue(rng, kind)
}

var randomOps = []CompareOp{EQ, EQ, EQ, NE, LT, LE, GT, GE_}

// randomSSA qualifies the segment with up to two random comparisons.
func randomSSA(rng *rand.Rand, segType *schema.Segment) SSA {
	a := SSA{Segment: segType.Name}
	for n := rng.Intn(3); n > 0; n-- {
		f := segType.Fields[rng.Intn(len(segType.Fields))]
		if segType.Seq != "" && rng.Intn(2) == 0 {
			f = *segType.Field(segType.Seq) // favour the bisected case
		}
		a.Quals = append(a.Quals, Qual{Field: f.Name, Op: randomOps[rng.Intn(len(randomOps))], Value: randomProbe(rng, f.Kind)})
	}
	return a
}

// randomPath is an SSA path to a random segment type, starting at a
// random level at or above it (so some paths start below the root).
func randomPath(rng *rand.Rand, h *schema.Hierarchy) []SSA {
	types := h.Preorder()
	var chain []*schema.Segment
	for s := types[rng.Intn(len(types))]; s != nil; s = h.Parent(s.Name) {
		chain = append([]*schema.Segment{s}, chain...)
	}
	chain = chain[rng.Intn(len(chain)):]
	path := make([]SSA, len(chain))
	for i, s := range chain {
		path[i] = randomSSA(rng, s)
	}
	return path
}

// randomData is an insert payload for the type, now and then malformed
// (a kind mismatch or an undeclared field).
func randomData(rng *rand.Rand, segType *schema.Segment) *value.Record {
	rec := value.NewRecord()
	for _, f := range segType.Fields {
		rec.Set(f.Name, randomValue(rng, f.Kind))
	}
	switch rng.Intn(25) {
	case 0:
		rec.Set("I", value.Str("x"))
	case 1:
		rec.Set("Z", value.Of(1))
	}
	return rec
}

// randomLive returns a random live occurrence, or 0 for an empty db.
func randomLive(rng *rand.Rand, db *DB) SegID {
	seqn := db.Sequence()
	if len(seqn) == 0 {
		return 0
	}
	return seqn[rng.Intn(len(seqn))]
}

// TestDescentMatchesSequenceScan drives random ISRT/REPL/DLET mixes on
// random hierarchies through the engine and through the oracle in
// lockstep, and fires random GUs at the result: every call must return
// the same status and land on the same occurrence, and the two
// databases must stay identical. The mix covers qualified and
// unqualified paths, every operator, null and NaN sequence values,
// kind-mismatched probes, and paths that start below the root.
func TestDescentMatchesSequenceScan(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomHierarchy(rng)
		got, want := NewDB(h), NewDB(h.Clone())
		gs, ws := NewSession(got), NewSession(want)
		check := func(op string, gst, wst Status) {
			t.Helper()
			if gst != wst || gs.Position() != ws.Position() {
				t.Fatalf("seed %d %s: status %q position %d, oracle %q position %d",
					seed, op, gst, gs.Position(), wst, ws.Position())
			}
		}
		for op := 0; op < 160; op++ {
			switch r := rng.Intn(20); {
			case r < 12:
				types := h.Preorder()
				target := types[rng.Intn(len(types))]
				path := randomPath(rng, h)
				if p := h.Parent(target.Name); p != nil && rng.Intn(8) != 0 {
					// Most inserts name a parent path that fits the target.
					for path[len(path)-1].Segment != p.Name {
						path = randomPath(rng, h)
					}
				} else if rng.Intn(2) == 0 {
					path = nil
				}
				data := randomData(rng, target)
				path = append(path, U(target.Name))
				check(fmt.Sprintf("ISRT %s %v", data, path), gs.ISRT(data, path...), oracleISRT(ws, data, path...))
			case r < 14:
				id := randomLive(rng, got)
				if id == 0 {
					continue
				}
				gs.position, ws.position = id, id
				typ := got.segs[id].typ
				data := value.NewRecord()
				f := typ.Fields[rng.Intn(len(typ.Fields))]
				if f.Kind == value.Float && rng.Intn(2) == 0 {
					data.Set(f.Name, value.F(math.NaN())) // the one change REPL allows to a sequence field
				} else {
					data.Set(f.Name, randomValue(rng, f.Kind))
				}
				check(fmt.Sprintf("REPL %s", data), gs.REPL(data), ws.REPL(data))
			case r < 15:
				id := randomLive(rng, got)
				if id == 0 {
					continue
				}
				gs.position, ws.position = id, id
				check("DLET", gs.DLET(), ws.DLET())
			default:
				for q := 0; q < 6; q++ {
					path := randomPath(rng, h)
					gs.Reset()
					ws.Reset()
					_, gst := gs.GU(path...)
					_, wst := oracleGU(ws, path...)
					check(fmt.Sprintf("GU %v", path), gst, wst)
				}
			}
			if g, w := got.DumpSequence(), want.DumpSequence(); g != w || got.nextID != want.nextID {
				t.Fatalf("seed %d: databases diverged:\n%s\nvs oracle\n%s", seed, g, w)
			}
		}
	}
}

// TestDescentAfterNaNRepl: a NaN stored into a sequence field by REPL
// (allowed, since NaN equals the old value) unsorts a twin list, and
// lookups still answer as the sequence scan does.
func TestDescentAfterNaNRepl(t *testing.T) {
	h := &schema.Hierarchy{Name: "N", Root: &schema.Segment{Name: "R", Seq: "F",
		Fields: []schema.Field{{Name: "F", Kind: value.Float}, {Name: "T", Kind: value.String}}}}
	db := NewDB(h)
	s := NewSession(db)
	for i, f := range []float64{1, 2, 3, 4, 5, 6, 7} {
		if st := s.ISRT(value.FromPairs("F", f, "T", fmt.Sprint(i)), U("R")); st != OK {
			t.Fatal(st)
		}
	}
	s.GU(Q("R", "F", EQ, value.F(3)))
	if st := s.REPL(value.FromPairs("F", value.F(math.NaN()))); st != OK {
		t.Fatalf("REPL to NaN: %v", st)
	}
	for _, probe := range []float64{1, 3, 4, 7, 8, math.NaN()} {
		a, b := NewSession(db), NewSession(db)
		_, gst := a.GU(Q("R", "F", EQ, value.F(probe)))
		_, wst := oracleGU(b, Q("R", "F", EQ, value.F(probe)))
		if gst != wst || a.Position() != b.Position() {
			t.Errorf("GU F=%v: %v at %d, oracle %v at %d", probe, gst, a.Position(), wst, b.Position())
		}
	}
	// The NaN twin equals every number, so any insert duplicates it.
	if st := s.ISRT(value.FromPairs("F", 8.0), U("R")); st != II {
		t.Errorf("ISRT beside a NaN twin: %v, want II", st)
	}
}

func TestInsertByParentID(t *testing.T) {
	db, s := seedPersonnel(t)
	s.GU(Q("DEPT", "D#", EQ, value.Str("D2")))
	d2 := s.Position()
	emp := func(e string) *value.Record {
		return value.FromPairs("E#", e, "ENAME", "N", "AGE", 30, "YEAR-OF-SERVICE", 1)
	}
	id, st := db.Insert(d2, "EMP", emp("E0"))
	if st != OK || db.ParentOf(id) != d2 || db.ChildrenOf(d2, "EMP")[0] != id {
		t.Fatalf("Insert under D2: id %d status %v children %v", id, st, db.ChildrenOf(d2, "EMP"))
	}
	if dup, st := db.Insert(d2, "EMP", emp("E0")); st != II || dup != id {
		t.Errorf("duplicate twin: id %d status %v, want %d II", dup, st, id)
	}
	root, st := db.Insert(0, "DEPT", value.FromPairs("D#", "D5", "DNAME", "X", "MGR", "Y"))
	if st != OK || db.ParentOf(root) != 0 || len(db.Roots()) != 3 {
		t.Errorf("root insert: %d %v", root, st)
	}
	for _, tc := range []struct {
		parent SegID
		typ    string
		data   *value.Record
		want   Status
	}{
		{d2, "NOPE", emp("E9"), AJ},
		{d2, "EMP", value.FromPairs("AGE", "old"), AJ},
		{d2, "EMP", value.FromPairs("NOPE", 1), AJ},
		{0, "EMP", emp("E9"), AC},
		{id, "EMP", emp("E9"), AC},
		{d2, "DEPT", value.FromPairs("D#", "D9"), AC},
		{9999, "EMP", emp("E9"), GE},
	} {
		if _, st := db.Insert(tc.parent, tc.typ, tc.data); st != tc.want {
			t.Errorf("Insert(%d, %s, %v) = %v, want %v", tc.parent, tc.typ, tc.data, st, tc.want)
		}
	}
	checkHierInvariants(t, db)
}

// TestViewRefusesWrites: a view answers gets like its origin, and every
// mutating call on it panics with ErrReadOnly and changes nothing.
func TestViewRefusesWrites(t *testing.T) {
	db, _ := seedPersonnel(t)
	before := db.DumpSequence()
	v := db.View()
	vs := NewSession(v)
	rec, st := vs.GU(Q("DEPT", "D#", EQ, value.Str("D12")), U("EMP"))
	if st != OK || rec.MustGet("ENAME").AsString() != "BAKER" {
		t.Fatalf("GU on view: %v %v", st, rec)
	}
	refuses := func(name string, call func()) {
		t.Helper()
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, ErrReadOnly) {
				t.Errorf("%s on a view: recovered %v, want ErrReadOnly", name, err)
			}
		}()
		call()
	}
	refuses("ISRT", func() { vs.ISRT(value.FromPairs("D#", "D7"), U("DEPT")) })
	refuses("ISRT with a bad path", func() { vs.ISRT(value.NewRecord(), U("NOPE")) })
	refuses("REPL", func() { vs.REPL(value.FromPairs("AGE", 1)) })
	refuses("DLET", func() { vs.DLET() })
	refuses("Insert", func() { v.Insert(0, "DEPT", value.FromPairs("D#", "D7")) })
	if db.DumpSequence() != before || v.DumpSequence() != before {
		t.Error("a refused write changed the database")
	}
	// The origin stays writable, and a clone of a view is writable too.
	if st := NewSession(v.Clone()).ISRT(value.FromPairs("D#", "D7"), U("DEPT")); st != OK {
		t.Errorf("ISRT on a clone of a view: %v", st)
	}
	if st := NewSession(db).ISRT(value.FromPairs("D#", "D7"), U("DEPT")); st != OK {
		t.Errorf("ISRT on the origin: %v", st)
	}
}
