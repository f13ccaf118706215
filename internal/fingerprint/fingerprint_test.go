package fingerprint

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"progconv/internal/corpus"
	"progconv/internal/dbprog"
	"progconv/internal/schema"
	"progconv/internal/xform"
)

func TestSchemaHashIsContentAddressed(t *testing.T) {
	a, b := Schema(schema.CompanyV1()), Schema(schema.CompanyV1())
	if a != b {
		t.Errorf("two fresh CompanyV1 values hash differently: %s vs %s", a, b)
	}
	if Schema(schema.CompanyV1()) == Schema(schema.CompanyV2()) {
		t.Error("CompanyV1 and CompanyV2 share a fingerprint")
	}
	mutated := schema.CompanyV1()
	mutated.Records[1].Fields[2].Name = "YEARS"
	if Schema(schema.CompanyV1()) == Schema(mutated) {
		t.Error("field rename did not change the schema fingerprint")
	}
	if Schema(nil) == Schema(schema.CompanyV1()) {
		t.Error("nil schema collides with a real one")
	}
}

func TestProgramAndPlanHashes(t *testing.T) {
	p1, err := dbprog.Parse("PROGRAM A DIALECT NETWORK. PRINT 'X'. END PROGRAM.")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := dbprog.Parse("PROGRAM A DIALECT NETWORK. PRINT 'X'. END PROGRAM.")
	if err != nil {
		t.Fatal(err)
	}
	if Program(p1) != Program(p2) {
		t.Error("identical program text hashes differently")
	}
	p3, err := dbprog.Parse("PROGRAM A DIALECT NETWORK. PRINT 'Y'. END PROGRAM.")
	if err != nil {
		t.Fatal(err)
	}
	if Program(p1) == Program(p3) {
		t.Error("distinct program text shares a fingerprint")
	}

	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
	}}
	other := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameField{Record: "EMP", Old: "AGE", New: "Y"},
	}}
	if Plan(plan) == Plan(other) {
		t.Error("distinct plans share a fingerprint")
	}
	if Plan(plan) != Plan(plan) {
		t.Error("plan hash unstable")
	}
}

func TestPairKeyDistinguishesKeyingModes(t *testing.T) {
	src, dst := schema.CompanyV1(), schema.CompanyV2()
	plan := &xform.Plan{Steps: []xform.Transformation{
		xform.RenameField{Record: "EMP", Old: "AGE", New: "YEARS"},
	}}
	withPlan := PairKey(src, dst, plan)
	// With an explicit plan, dst contributes nothing.
	if withPlan != PairKey(src, nil, plan) {
		t.Error("explicit-plan pair key depends on dst")
	}
	if withPlan == PairKey(src, dst, nil) {
		t.Error("plan-keyed and schema-diff-keyed pairs collide")
	}
	if PairKey(src, dst, nil) == PairKey(dst, src, nil) {
		t.Error("pair key is direction-insensitive")
	}
}

func TestShort(t *testing.T) {
	h := Schema(schema.CompanyV1())
	if len(h) != 64 || !strings.HasPrefix(string(h), h.Short()) || len(h.Short()) != 12 {
		t.Errorf("hash %q short %q", h, h.Short())
	}
}

func TestHierHashesAreDomainSeparated(t *testing.T) {
	h := schema.EmpDeptHierarchy()
	if Hierarchy(h) != Hierarchy(schema.EmpDeptHierarchy()) {
		t.Error("two fresh EmpDeptHierarchy values hash differently")
	}
	if Hierarchy(nil) == Hierarchy(h) {
		t.Error("nil hierarchy collides with a real one")
	}
	// Domain separation: a hierarchy key can never collide with a
	// network key, even for hand-crafted colliding description text —
	// the domain tags ("hierschema" vs "schema") are written raw ahead
	// of the length-prefixed parts, and neither is a prefix of the other
	// (TestDomainsArePrefixFree). Spot-check on the shared LRU's real
	// inputs.
	if string(Hierarchy(h)) == string(Schema(schema.CompanyV1())) {
		t.Error("hierarchy and network schema fingerprints collide")
	}

	dst, err := xform.HierReorder{Promote: "EMP"}.ApplySchema(h)
	if err != nil {
		t.Fatal(err)
	}
	plan := &xform.HierPlan{Steps: []xform.HierReorder{{Promote: "EMP"}}}
	withPlan := HierPairKey(h, dst, plan)
	if withPlan != HierPairKey(h, nil, plan) {
		t.Error("explicit-plan hier pair key depends on dst")
	}
	if withPlan == HierPairKey(h, dst, nil) {
		t.Error("plan-keyed and schema-diff-keyed hier pairs collide")
	}
	if HierPairKey(h, dst, nil) == HierPairKey(dst, h, nil) {
		t.Error("hier pair key is direction-insensitive")
	}
}

// goldenPrograms cover one program per dialect whose fingerprint
// TestHashGolden pins: every expression form, a SORT(FIND …) and a
// two-owner STORE … VIA, and qualified SSAs with ISRT … UNDER.
var goldenPrograms = []struct{ name, src string }{
	{"network", `PROGRAM NET-GOLD DIALECT NETWORK.
  LET N = 0.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  FIND FIRST EMP WITHIN DIV-EMP.
  PERFORM UNTIL DB-STATUS <> 'OK'
    GET EMP.
    IF AGE IN EMP > 30 AND NOT (DEPT-NAME IN EMP = 'O''HARA')
      PRINT EMP-NAME IN EMP, AGE IN EMP * 2 - 1, RECORD EMP.
      LET N = - (N + 1.5).
    ELSE
      WRITE 'SKIPPED' EMP-NAME IN EMP.
    END-IF.
    FIND NEXT EMP WITHIN DIV-EMP USING DEPT-NAME.
  END-PERFORM.
  FIND OWNER WITHIN DIV-EMP.
  MODIFY EMP USING AGE, DEPT-NAME.
  CONNECT EMP TO DIV-EMP.
  DISCONNECT EMP FROM DIV-EMP.
  ERASE EMP.
  ACCEPT W.
  READ 'IN' INTO L.
  STOP.
END PROGRAM.
`},
	{"maryland", `PROGRAM MD-GOLD DIALECT MARYLAND.
  SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(AGE > 30 OR NOT (DEPT-NAME = 'SALES') AND AGE <= -2))) ON (EMP-NAME, AGE) INTO C1.
  FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-LOC = :LOC)) INTO C2.
  FOR EACH E IN C1
    PRINT EMP-NAME IN E.
  END-FOR.
  MODIFY C1 SET (AGE = AGE IN E + 1, DEPT-NAME = 'Y').
  DELETE C2.
  STORE EMP (EMP-NAME = 'ZED', AGE = 2.5)
    VIA DIV-EMP = FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'M')), VIA DEPT-EMP = FIND(DEPT: SYSTEM, ALL-DEPT, DEPT(DEPT-NAME = 'SALES')).
END PROGRAM.
`},
	{"dli", `PROGRAM DLI-GOLD DIALECT DLI.
  ISRT EMP (E# = 'E1', ENAME = 'X', AGE = 1) UNDER DEPT(D# = 'D1').
  GU DEPT(D# = 'D1'), EMP(AGE >= 30).
  GN EMP.
  GNP EMP(ENAME <> 'X').
  REPL (AGE = AGE IN EMP + 1).
  DLET.
END PROGRAM.
`},
}

// TestHashGolden pins the cache-key bytes: fingerprints key the
// conversion cache and appear in cache events, so a change to any
// canonical rendering or to sum's layout shows here first.
func TestHashGolden(t *testing.T) {
	h := schema.EmpDeptHierarchy()
	hierPlan := &xform.HierPlan{Steps: []xform.HierReorder{{Promote: "EMP"}}}
	hierDst, err := hierPlan.ApplySchema(h)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := xform.Classify(schema.CompanyV1(), schema.CompanyV2())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Hash{
		"schema":        Schema(schema.CompanyV1()),
		"plan":          Plan(plan),
		"pair":          PairKey(schema.CompanyV1(), schema.CompanyV2(), nil),
		"hierarchy":     Hierarchy(h),
		"hierpair":      HierPairKey(h, hierDst, nil),
		"hierpair/plan": HierPairKey(h, nil, hierPlan),
	}
	for _, gp := range goldenPrograms {
		p, err := dbprog.Parse(gp.src)
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		got["program/"+gp.name] = Program(p)
	}
	want := map[string]Hash{
		"schema":           "4c6ed3cd196d35510e0534d6f49b6c1bcee4f0d34c4257b12a1c91bfad4279f5",
		"plan":             "aecc8d9cccf68edd6efe0c9f6ce3f37349a84e32787fb97e7bf64c4f67b0051a",
		"pair":             "9f32e07f07ac900ae9c827cf20ed6de9b37baa05678c7a8d39a54aec01025a9d",
		"hierarchy":        "60e0d2e91c1cda7d51457678a67c48e318538c076634cbf2120ff589256af5c1",
		"hierpair":         "e71ae8be19ce986962c62fb7759a50e35a5191613324205f60d7e91cf2158c2f",
		"hierpair/plan":    "56585a0690825f158e16e0c8e1a66f8446d4a30cabed10ae64d8c17070508943",
		"program/network":  "64f019b6110f8ec9dd7e045e1c7b03dae375974b4839c04c2725caa54723aee3",
		"program/maryland": "e0aefc933c7dc8ad17ffe4e2582fcaec6ac87bf5b56f58eb5fb97ea6aae26e7b",
		"program/dli":      "3634e73639e4efe3d0fabb706121b1a9ef02542b1a010e7572f815d683078007",
	}
	if len(got) != len(want) {
		t.Fatalf("computed %d hashes, pinned %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: got %s, want %s", k, got[k], w)
		}
	}
}

// domains lists every domain tag hashed in the repository: the ones
// this package's constructors use and the dispatch coordinator's
// rendezvous score, which goes through Sum.
var domains = []string{"schema", "plan", "program", "hierschema", "hierplan", "pair", "hierpair", "rendezvous"}

// TestDomainsArePrefixFree: sum writes the domain tag raw, not behind a
// length, so what keeps two kinds of hash apart is that no tag is a
// prefix of another — otherwise the longer tag's tail could be read as
// the start of the shorter one's first length prefix.
func TestDomainsArePrefixFree(t *testing.T) {
	src, err := os.ReadFile("fingerprint.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`(?:sum|begin)\("([a-z]+)"`).FindAllStringSubmatch(string(src), -1) {
		if !slices.Contains(domains, m[1]) {
			t.Errorf("domain %q is hashed in fingerprint.go but missing from the list", m[1])
		}
	}
	for _, a := range domains {
		for _, b := range domains {
			if a != b && strings.HasPrefix(b, a) {
				t.Errorf("domain %q is a prefix of %q", a, b)
			}
		}
	}
}

// corpusPrograms returns corpus seeds 1–3 at 200 programs each and the
// IMS study.
func corpusPrograms(t *testing.T) []*dbprog.Program {
	t.Helper()
	var progs []*dbprog.Program
	for seed := int64(1); seed <= 3; seed++ {
		prof := corpus.PeriodProfile(seed)
		prof.Programs = 200
		members, err := corpus.Programs(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			progs = append(progs, m.Program)
		}
	}
	entry, err := corpus.IMSReorder()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range entry.Members {
		progs = append(progs, m.Program)
	}
	return progs
}

// TestProgramHashIsSumOverFormat: Program, which renders into the
// hashed buffer and patches the length prefix in afterwards, hashes the
// same bytes as the general layout over Format's text.
func TestProgramHashIsSumOverFormat(t *testing.T) {
	for _, p := range corpusPrograms(t) {
		if got, want := Program(p), sum("program", dbprog.Format(p)); got != want {
			t.Fatalf("%s: Program = %s, sum over Format = %s", p.Name, got, want)
		}
	}
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops a quarter of the buffers put back at random.
var raceEnabled bool

// TestProgramFingerprintAllocs: fingerprinting a program allocates only
// its Hash string. Rendering through fmt and hashing through a heap
// digest took 45 allocations per program.
func TestProgramFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	progs := corpusPrograms(t)
	for _, p := range progs {
		Program(p) // warm the buffer pool
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, p := range progs {
			Program(p)
		}
	})
	perProg := allocs / float64(len(progs))
	t.Logf("%.2f allocations per program over %d programs", perProg, len(progs))
	if perProg > 1 {
		t.Errorf("Program allocated %.2f times per program, want at most 1", perProg)
	}
}

// TestPooledBuffersConcurrent: Program, Schema and Format share pooled
// buffers across goroutines, as the supervisor's workers do, and give
// every caller the hash and text a serial run gives; no returned string
// aliases a buffer that goes back to a pool.
func TestPooledBuffersConcurrent(t *testing.T) {
	progs := corpusPrograms(t)[:200]
	texts := make([]string, len(progs))
	hashes := make([]Hash, len(progs))
	for i, p := range progs {
		texts[i], hashes[i] = dbprog.Format(p), Program(p)
	}
	frozen := strings.Join(texts, "")
	schemaHash := Schema(schema.CompanyV1())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range progs {
				if Program(p) != hashes[i] || dbprog.Format(p) != texts[i] || Schema(schema.CompanyV1()) != schemaHash {
					t.Errorf("%s: concurrent fingerprint or rendering differs", p.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	if strings.Join(texts, "") != frozen {
		t.Error("a rendering returned earlier changed after its buffer was reused")
	}
}
