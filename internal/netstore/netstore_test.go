package netstore

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// seedCompany loads the Figure 4.2 database used across these tests:
// two divisions, four employees.
func seedCompany(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := NewDB(schema.CompanyV1())
	s := NewSession(db)
	divs := []*value.Record{
		value.FromPairs("DIV-NAME", "MACHINERY", "DIV-LOC", "DETROIT"),
		value.FromPairs("DIV-NAME", "TEXTILES", "DIV-LOC", "ATLANTA"),
	}
	for _, d := range divs {
		if _, st, err := s.Store("DIV", d); err != nil || st != OK {
			t.Fatalf("store DIV: %v %v", st, err)
		}
	}
	emps := []struct {
		div  string
		name string
		dept string
		age  int
	}{
		{"MACHINERY", "ADAMS", "SALES", 45},
		{"MACHINERY", "BAKER", "SALES", 28},
		{"MACHINERY", "CLARK", "WELDING", 33},
		{"TEXTILES", "DAVIS", "SALES", 51},
	}
	for _, e := range emps {
		// Position set currency on the right division first.
		if st, err := s.FindAny("DIV", value.FromPairs("DIV-NAME", e.div)); err != nil || st != OK {
			t.Fatalf("find DIV %s: %v %v", e.div, st, err)
		}
		if _, st, err := s.Store("EMP", value.FromPairs(
			"EMP-NAME", e.name, "DEPT-NAME", e.dept, "AGE", e.age)); err != nil || st != OK {
			t.Fatalf("store EMP %s: %v %v", e.name, st, err)
		}
	}
	return db, s
}

func TestStoreAndFindAny(t *testing.T) {
	db, s := seedCompany(t)
	if db.Count("DIV") != 2 || db.Count("EMP") != 4 {
		t.Fatalf("counts: DIV=%d EMP=%d", db.Count("DIV"), db.Count("EMP"))
	}
	st, err := s.FindAny("EMP", value.FromPairs("EMP-NAME", "CLARK"))
	if err != nil || st != OK {
		t.Fatalf("FindAny: %v %v", st, err)
	}
	rec, st, err := s.Get("EMP")
	if err != nil || st != OK {
		t.Fatalf("Get: %v %v", st, err)
	}
	if rec.MustGet("AGE").AsInt() != 33 {
		t.Error("wrong record")
	}
	if rec.MustGet("DIV-NAME").AsString() != "MACHINERY" {
		t.Errorf("virtual DIV-NAME = %v", rec.MustGet("DIV-NAME"))
	}
}

func TestFindAnyNotFound(t *testing.T) {
	_, s := seedCompany(t)
	st, err := s.FindAny("EMP", value.FromPairs("EMP-NAME", "NOBODY"))
	if err != nil || st != NotFound {
		t.Errorf("st=%v err=%v", st, err)
	}
	if s.Status() != NotFound {
		t.Error("DB-STATUS register not set")
	}
}

func TestFindDuplicate(t *testing.T) {
	_, s := seedCompany(t)
	match := value.FromPairs("DEPT-NAME", "SALES")
	var names []string
	st, _ := s.FindAny("EMP", match)
	for st == OK {
		rec, _, _ := s.Get("EMP")
		names = append(names, rec.MustGet("EMP-NAME").AsString())
		st, _ = s.FindDuplicate("EMP", match)
	}
	if st != NotFound {
		t.Errorf("final status %v", st)
	}
	// Insertion order: ADAMS, BAKER, DAVIS.
	if strings.Join(names, ",") != "ADAMS,BAKER,DAVIS" {
		t.Errorf("SALES employees = %v", names)
	}
}

func TestFindDuplicateWithoutCurrency(t *testing.T) {
	db := NewDB(schema.CompanyV1())
	s := NewSession(db)
	st, err := s.FindDuplicate("EMP", nil)
	if err != nil || st != NoCurrency {
		t.Errorf("st=%v err=%v", st, err)
	}
}

func TestSetOrderingByKeys(t *testing.T) {
	_, s := seedCompany(t)
	// DIV-EMP is keyed on EMP-NAME: members come back alphabetically.
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	var names []string
	st, _ := s.FindInSet("DIV-EMP", First, nil)
	for st == OK {
		rec, _, _ := s.Get("EMP")
		names = append(names, rec.MustGet("EMP-NAME").AsString())
		st, _ = s.FindInSet("DIV-EMP", Next, nil)
	}
	if st != EndOfSet {
		t.Errorf("final status %v", st)
	}
	if strings.Join(names, ",") != "ADAMS,BAKER,CLARK" {
		t.Errorf("set order = %v", names)
	}
}

func TestFindInSetPriorAndLast(t *testing.T) {
	_, s := seedCompany(t)
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	st, _ := s.FindInSet("DIV-EMP", Last, nil)
	if st != OK {
		t.Fatal(st)
	}
	rec, _, _ := s.Get("EMP")
	if rec.MustGet("EMP-NAME").AsString() != "CLARK" {
		t.Error("LAST should be CLARK")
	}
	st, _ = s.FindInSet("DIV-EMP", Prior, nil)
	rec, _, _ = s.Get("EMP")
	if st != OK || rec.MustGet("EMP-NAME").AsString() != "BAKER" {
		t.Errorf("PRIOR: %v %v", st, rec)
	}
	// PRIOR from the owner position = last member.
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	st, _ = s.FindInSet("DIV-EMP", Prior, nil)
	rec, _, _ = s.Get("EMP")
	if st != OK || rec.MustGet("EMP-NAME").AsString() != "CLARK" {
		t.Errorf("PRIOR from owner: %v %v", st, rec)
	}
}

func TestFindInSetUsingMatch(t *testing.T) {
	_, s := seedCompany(t)
	// The paper's template (B) pattern: FIND NEXT ... WITHIN set USING field.
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	match := value.FromPairs("DEPT-NAME", "WELDING")
	st, err := s.FindInSet("DIV-EMP", Next, match)
	if err != nil || st != OK {
		t.Fatalf("%v %v", st, err)
	}
	rec, _, _ := s.Get("EMP")
	if rec.MustGet("EMP-NAME").AsString() != "CLARK" {
		t.Error("USING match found wrong record")
	}
	st, _ = s.FindInSet("DIV-EMP", Next, match)
	if st != EndOfSet {
		t.Errorf("no more WELDING: %v", st)
	}
}

func TestSystemSetIteration(t *testing.T) {
	_, s := seedCompany(t)
	var names []string
	st, _ := s.FindInSet("ALL-DIV", First, nil)
	for st == OK {
		rec, _, _ := s.Get("DIV")
		names = append(names, rec.MustGet("DIV-NAME").AsString())
		st, _ = s.FindInSet("ALL-DIV", Next, nil)
	}
	// ALL-DIV is keyed on DIV-NAME.
	if strings.Join(names, ",") != "MACHINERY,TEXTILES" {
		t.Errorf("system set order = %v", names)
	}
}

func TestFindOwner(t *testing.T) {
	_, s := seedCompany(t)
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "DAVIS"))
	st, err := s.FindOwner("DIV-EMP")
	if err != nil || st != OK {
		t.Fatalf("%v %v", st, err)
	}
	rec, _, _ := s.Get("DIV")
	if rec.MustGet("DIV-NAME").AsString() != "TEXTILES" {
		t.Error("owner should be TEXTILES")
	}
	// FIND OWNER when already on the owner is a no-op success.
	st, _ = s.FindOwner("DIV-EMP")
	if st != OK {
		t.Error("owner-on-owner")
	}
	// FIND OWNER within a SYSTEM set has no owner record.
	st, _ = s.FindOwner("ALL-DIV")
	if st != NotMember {
		t.Errorf("system set owner: %v", st)
	}
}

func TestStoreWithoutOwnerCurrency(t *testing.T) {
	db := NewDB(schema.CompanyV1())
	s := NewSession(db)
	// EMP is an AUTOMATIC member of DIV-EMP; with no DIV current the store
	// must fail and store nothing.
	_, st, err := s.Store("EMP", value.FromPairs("EMP-NAME", "X", "DEPT-NAME", "Y", "AGE", 1))
	if err != nil || st != NoCurrentOwner {
		t.Fatalf("%v %v", st, err)
	}
	if db.Count("EMP") != 0 {
		t.Error("failed store must not leave a record behind")
	}
}

func TestStoreDuplicateInSet(t *testing.T) {
	_, s := seedCompany(t)
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	_, st, err := s.Store("EMP", value.FromPairs("EMP-NAME", "ADAMS", "DEPT-NAME", "Z", "AGE", 1))
	if err != nil || st != DuplicateInSet {
		t.Fatalf("%v %v", st, err)
	}
	if s.DB().Count("EMP") != 4 {
		t.Error("duplicate store must not persist")
	}
	// Same name under the other division is fine (uniqueness is per
	// occurrence, not global).
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "TEXTILES"))
	_, st, _ = s.Store("EMP", value.FromPairs("EMP-NAME", "ADAMS", "DEPT-NAME", "Z", "AGE", 1))
	if st != OK {
		t.Errorf("per-occurrence duplicate rule: %v", st)
	}
}

func TestStoreUsageErrors(t *testing.T) {
	db := NewDB(schema.CompanyV1())
	s := NewSession(db)
	if _, _, err := s.Store("NOPE", value.NewRecord()); err == nil {
		t.Error("unknown type")
	}
	if _, _, err := s.Store("DIV", value.FromPairs("DIV-NAME", 9, "DIV-LOC", "X")); err == nil {
		t.Error("kind mismatch")
	}
	if _, _, err := s.Store("DIV", value.FromPairs("DIV-NAME", "A", "NOPE", "X")); err == nil {
		t.Error("unknown field")
	}
	s.Store("DIV", value.FromPairs("DIV-NAME", "D", "DIV-LOC", "L"))
	if _, _, err := s.Store("EMP", value.FromPairs("EMP-NAME", "E", "DIV-NAME", "D")); err == nil {
		t.Error("storing a virtual field should be a usage error")
	}
}

func TestGetStatuses(t *testing.T) {
	db, s := seedCompany(t)
	_ = db
	if _, _, err := s.Get("NOPE"); err == nil {
		t.Error("unknown type")
	}
	s2 := NewSession(db)
	if _, st, _ := s2.Get("EMP"); st != NoCurrency {
		t.Errorf("no currency: %v", st)
	}
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	if _, st, _ := s.Get("EMP"); st != WrongType {
		t.Errorf("wrong type: %v", st)
	}
}

// GetInto follows Get's statuses and currency, and touches its buffer
// only when the status is OK.
func TestGetIntoStatuses(t *testing.T) {
	db, s := seedCompany(t)
	sentinel := value.FromPairs("X", 1)
	buf := sentinel.Clone()
	if _, err := s.GetInto("NOPE", buf); err == nil {
		t.Error("unknown type")
	}
	if st, _ := NewSession(db).GetInto("EMP", buf); st != NoCurrency {
		t.Errorf("no currency: %v", st)
	}
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	if st, _ := s.GetInto("EMP", buf); st != WrongType || s.Status() != WrongType {
		t.Errorf("wrong type: %v", st)
	}
	if !buf.Equal(sentinel) || buf.String() != sentinel.String() {
		t.Errorf("failed GetInto changed its buffer to %v", buf)
	}
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "CLARK"))
	if st, err := s.GetInto("EMP", buf); st != OK || err != nil || s.Status() != OK {
		t.Fatalf("GetInto: %v %v", st, err)
	}
	want, _, _ := s.Get("EMP")
	if buf.String() != want.String() || buf.String() != "{EMP-NAME=CLARK, DEPT-NAME=WELDING, AGE=33, DIV-NAME=MACHINERY}" {
		t.Errorf("GetInto = %v, Get = %v", buf, want)
	}
	s.Erase("EMP")
	if st, _ := s.GetInto("EMP", buf); st != NoCurrency {
		t.Errorf("after erase: %v", st)
	}
}

// Reading into a warmed record allocates nothing, virtual fields
// included: the Maryland qualification and GET paths rely on it.
func TestDataIntoAndGetIntoAllocs(t *testing.T) {
	db, s := seedCompany(t)
	id := db.AllOf("EMP")[0]
	rec := value.NewRecord()
	db.DataInto(id, rec)
	if n := testing.AllocsPerRun(100, func() { db.DataInto(id, rec) }); n != 0 {
		t.Errorf("DataInto allocated %v per run, want 0", n)
	}
	if !rec.Equal(db.Data(id)) || rec.MustGet("DIV-NAME").AsString() != "MACHINERY" {
		t.Errorf("DataInto = %v, Data = %v", rec, db.Data(id))
	}
	s.Position(id)
	if n := testing.AllocsPerRun(100, func() { s.GetInto("EMP", rec) }); n != 0 {
		t.Errorf("GetInto allocated %v per run, want 0", n)
	}
}

func TestModifyRepositionsInSet(t *testing.T) {
	_, s := seedCompany(t)
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "ADAMS"))
	st, err := s.Modify("EMP", value.FromPairs("EMP-NAME", "ZEBRA"))
	if err != nil || st != OK {
		t.Fatalf("%v %v", st, err)
	}
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	var names []string
	fst, _ := s.FindInSet("DIV-EMP", First, nil)
	for fst == OK {
		rec, _, _ := s.Get("EMP")
		names = append(names, rec.MustGet("EMP-NAME").AsString())
		fst, _ = s.FindInSet("DIV-EMP", Next, nil)
	}
	if strings.Join(names, ",") != "BAKER,CLARK,ZEBRA" {
		t.Errorf("order after modify = %v", names)
	}
}

func TestModifyDuplicateRejected(t *testing.T) {
	_, s := seedCompany(t)
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "ADAMS"))
	st, err := s.Modify("EMP", value.FromPairs("EMP-NAME", "BAKER"))
	if err != nil || st != DuplicateInSet {
		t.Fatalf("%v %v", st, err)
	}
	rec, _, _ := s.Get("EMP")
	if rec.MustGet("EMP-NAME").AsString() != "ADAMS" {
		t.Error("failed modify must not change the record")
	}
}

func TestModifyUsageAndStatusErrors(t *testing.T) {
	db, s := seedCompany(t)
	if _, err := s.Modify("NOPE", value.NewRecord()); err == nil {
		t.Error("unknown type")
	}
	s2 := NewSession(db)
	if st, _ := s2.Modify("EMP", value.NewRecord()); st != NoCurrency {
		t.Error("no currency")
	}
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	if st, _ := s.Modify("EMP", value.NewRecord()); st != WrongType {
		t.Error("wrong type")
	}
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "ADAMS"))
	if _, err := s.Modify("EMP", value.FromPairs("NOPE", 1)); err == nil {
		t.Error("unknown field")
	}
	if _, err := s.Modify("EMP", value.FromPairs("DIV-NAME", "X")); err == nil {
		t.Error("virtual field")
	}
	if _, err := s.Modify("EMP", value.FromPairs("AGE", "old")); err == nil {
		t.Error("kind mismatch")
	}
}

func TestEraseCascadesMandatory(t *testing.T) {
	db, s := seedCompany(t)
	// DIV-EMP is MANDATORY: erasing MACHINERY takes its three EMPs with it.
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	st, err := s.Erase("DIV")
	if err != nil || st != OK {
		t.Fatalf("%v %v", st, err)
	}
	if db.Count("DIV") != 1 || db.Count("EMP") != 1 {
		t.Errorf("after cascade: DIV=%d EMP=%d", db.Count("DIV"), db.Count("EMP"))
	}
	// Currency scrubbed; GET now reports no currency.
	if _, st, _ := s.Get("DIV"); st != NoCurrency {
		t.Errorf("stale currency: %v", st)
	}
}

func TestEraseDisconnectsOptional(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Retention = schema.Optional
	db := NewDB(sch)
	s := NewSession(db)
	s.Store("DIV", value.FromPairs("DIV-NAME", "M", "DIV-LOC", "D"))
	s.Store("EMP", value.FromPairs("EMP-NAME", "A", "DEPT-NAME", "S", "AGE", 1))
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "M"))
	if st, _ := s.Erase("DIV"); st != OK {
		t.Fatal(st)
	}
	if db.Count("EMP") != 1 {
		t.Error("OPTIONAL member should survive owner erase")
	}
	// The survivor is disconnected: its virtual DIV-NAME is now null.
	id := db.AllOf("EMP")[0]
	if !db.Data(id).MustGet("DIV-NAME").IsNull() {
		t.Error("virtual through a gone owner should be null")
	}
}

func TestEraseStatusesAndErrors(t *testing.T) {
	db, s := seedCompany(t)
	if _, err := s.Erase("NOPE"); err == nil {
		t.Error("unknown type")
	}
	s2 := NewSession(db)
	if st, _ := s2.Erase("EMP"); st != NoCurrency {
		t.Error("no currency")
	}
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	if st, _ := s.Erase("EMP"); st != WrongType {
		t.Error("wrong type")
	}
}

func TestConnectAndDisconnectManualOptional(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Insertion = schema.Manual
	sch.Set("DIV-EMP").Retention = schema.Optional
	db := NewDB(sch)
	s := NewSession(db)
	s.Store("DIV", value.FromPairs("DIV-NAME", "M", "DIV-LOC", "D"))
	// MANUAL: store does not connect.
	s.Store("EMP", value.FromPairs("EMP-NAME", "A", "DEPT-NAME", "S", "AGE", 1))
	empID := db.AllOf("EMP")[0]
	if _, connected := db.OwnerOf("DIV-EMP", empID); connected {
		t.Fatal("MANUAL member must not auto-connect")
	}
	// Connect needs the owner current of its type; it is (stored above).
	if st, _ := s.Connect("DIV-EMP"); st != OK {
		t.Fatalf("connect: %v", s.Status())
	}
	if owner, connected := db.OwnerOf("DIV-EMP", empID); !connected || owner == 0 {
		t.Error("connect failed to wire membership")
	}
	if st, _ := s.Connect("DIV-EMP"); st != AlreadyMember {
		t.Errorf("double connect: %v", st)
	}
	if st, _ := s.Disconnect("DIV-EMP"); st != OK {
		t.Errorf("disconnect: %v", st)
	}
	if st, _ := s.Disconnect("DIV-EMP"); st != NotMember {
		t.Errorf("double disconnect: %v", st)
	}
}

func TestDisconnectMandatoryIsRetentionViolation(t *testing.T) {
	_, s := seedCompany(t)
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "ADAMS"))
	st, err := s.Disconnect("DIV-EMP")
	if err != nil || st != Retention {
		t.Errorf("%v %v", st, err)
	}
}

func TestConnectStatusesAndErrors(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Insertion = schema.Manual
	db := NewDB(sch)
	s := NewSession(db)
	if _, err := s.Connect("NOPE"); err == nil {
		t.Error("unknown set")
	}
	if st, _ := s.Connect("DIV-EMP"); st != NoCurrency {
		t.Error("no currency")
	}
	s.Store("DIV", value.FromPairs("DIV-NAME", "M", "DIV-LOC", "D"))
	if st, _ := s.Connect("DIV-EMP"); st != WrongType {
		t.Error("DIV is not the member type")
	}
	if _, err := s.Disconnect("NOPE"); err == nil {
		t.Error("unknown set disconnect")
	}
	s2 := NewSession(db)
	if st, _ := s2.Disconnect("DIV-EMP"); st != NoCurrency {
		t.Error("disconnect no currency")
	}
	if st, _ := s.Disconnect("DIV-EMP"); st != WrongType {
		t.Error("disconnect wrong type")
	}
}

func TestConnectDuplicateInSet(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Insertion = schema.Manual
	sch.Set("DIV-EMP").Retention = schema.Optional
	db := NewDB(sch)
	s := NewSession(db)
	s.Store("DIV", value.FromPairs("DIV-NAME", "M", "DIV-LOC", "D"))
	s.Store("EMP", value.FromPairs("EMP-NAME", "A", "DEPT-NAME", "S", "AGE", 1))
	s.Connect("DIV-EMP")
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "M"))
	s.Store("EMP", value.FromPairs("EMP-NAME", "A", "DEPT-NAME", "T", "AGE", 2))
	if st, _ := s.Connect("DIV-EMP"); st != DuplicateInSet {
		t.Errorf("duplicate connect: %v", st)
	}
}

func TestFindInSetStatuses(t *testing.T) {
	db, s := seedCompany(t)
	if _, err := s.FindInSet("NOPE", First, nil); err == nil {
		t.Error("unknown set")
	}
	if _, err := s.FindInSet("DIV-EMP", First, value.FromPairs("NOPE", 1)); err == nil {
		t.Error("bad match field")
	}
	s2 := NewSession(db)
	if st, _ := s2.FindInSet("DIV-EMP", First, nil); st != NoCurrency {
		t.Error("no set currency")
	}
	if st, _ := s2.FindInSet("DIV-EMP", Next, nil); st != NoCurrency {
		t.Error("NEXT without currency")
	}
	// Empty occurrence: a fresh DIV with no EMPs.
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "TEXTILES"))
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "DAVIS"))
	s.Erase("EMP")
	s.FindAny("DIV", value.FromPairs("DIV-NAME", "TEXTILES"))
	if st, _ := s.FindInSet("DIV-EMP", First, nil); st != EndOfSet {
		t.Errorf("empty occurrence: %v", st)
	}
}

func TestFindOwnerStatuses(t *testing.T) {
	db, _ := seedCompany(t)
	s := NewSession(db)
	if _, err := s.FindOwner("NOPE"); err == nil {
		t.Error("unknown set")
	}
	if st, _ := s.FindOwner("DIV-EMP"); st != NoCurrency {
		t.Error("no currency")
	}
}

func TestFindAnyUsageErrors(t *testing.T) {
	db := NewDB(schema.CompanyV1())
	s := NewSession(db)
	if _, err := s.FindAny("NOPE", nil); err == nil {
		t.Error("unknown type")
	}
	if _, err := s.FindAny("EMP", value.FromPairs("NOPE", 1)); err == nil {
		t.Error("bad match field")
	}
}

func TestMatchOnVirtualField(t *testing.T) {
	_, s := seedCompany(t)
	// FIND ANY EMP with a virtual field condition resolves ownership.
	st, err := s.FindAny("EMP", value.FromPairs("DIV-NAME", "TEXTILES"))
	if err != nil || st != OK {
		t.Fatalf("%v %v", st, err)
	}
	rec, _, _ := s.Get("EMP")
	if rec.MustGet("EMP-NAME").AsString() != "DAVIS" {
		t.Error("virtual match found wrong record")
	}
}

func TestChainedVirtualResolution(t *testing.T) {
	// Figure 4.4: EMP.DIV-NAME resolves EMP → DEPT → DIV.
	db := NewDB(schema.CompanyV2())
	s := NewSession(db)
	s.Store("DIV", value.FromPairs("DIV-NAME", "MACHINERY", "DIV-LOC", "DETROIT"))
	s.Store("DEPT", value.FromPairs("DEPT-NAME", "SALES"))
	s.Store("EMP", value.FromPairs("EMP-NAME", "ADAMS", "AGE", 45))
	id := db.AllOf("EMP")[0]
	rec := db.Data(id)
	if rec.MustGet("DEPT-NAME").AsString() != "SALES" {
		t.Errorf("one-level virtual: %v", rec)
	}
	if rec.MustGet("DIV-NAME").AsString() != "MACHINERY" {
		t.Errorf("two-level virtual: %v", rec)
	}
}

func TestDataAndTypeOfStaleID(t *testing.T) {
	db, s := seedCompany(t)
	id := db.AllOf("EMP")[0]
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "ADAMS"))
	s.Erase("EMP")
	if db.Data(id) != nil || db.StoredData(id) != nil {
		t.Error("stale Data should be nil")
	}
	if db.TypeOf(id) != "" || db.Exists(id) {
		t.Error("stale TypeOf/Exists")
	}
	if _, connected := db.OwnerOf("DIV-EMP", id); connected {
		t.Error("stale OwnerOf")
	}
}

// TestUnassignedIDsAnswerAsStale: the occurrence table answers an ID
// it never assigned (0, negative, past the last) as it answers an
// erased one, through every read and membership check, never with an
// index panic.
func TestUnassignedIDsAnswerAsStale(t *testing.T) {
	db, s := seedCompany(t)
	stale := db.AllOf("EMP")[0]
	s.Position(stale)
	if st, err := s.Erase("EMP"); err != nil || st != OK {
		t.Fatalf("ERASE: %v %v", st, err)
	}
	answers := func(id RecordID) string {
		out := value.FromPairs("X", 1)
		into := db.StoredDataInto(id, out)
		intoLen := out.Len()
		_, connected := db.OwnerOf("DIV-EMP", id)
		_, err := db.StoreWith("EMP", value.FromPairs("EMP-NAME", "NEW", "DEPT-NAME", "D", "AGE", 1),
			map[string]RecordID{"DIV-EMP": id})
		return fmt.Sprintf("Data nil %v, StoredData nil %v, StoredDataInto %v/%d, DataInto %v, TypeOf %q, Exists %v, OwnerOf %v, Position %v, StoreWith %v",
			db.Data(id) == nil, db.StoredData(id) == nil, into, intoLen, db.DataInto(id, out), db.TypeOf(id),
			db.Exists(id), connected, NewSession(db).Position(id), strings.Replace(fmt.Sprint(err), fmt.Sprint(id), "#", 1))
	}
	want := answers(stale)
	for _, id := range []RecordID{0, -1, math.MinInt64, db.IDBound(), db.IDBound() + 100, math.MaxInt64} {
		if got := answers(id); got != want {
			t.Errorf("ID %d: %s\nstale ID %d: %s", id, got, stale, want)
		}
	}
}

// TestCloneIndependence: a clone copies the occurrence table, the link
// slices, the member lists and the indexes, so a cascading ERASE on it,
// and STORE, MODIFY, CONNECT, DISCONNECT and ERASE, leave the origin as
// it was.
func TestCloneIndependence(t *testing.T) {
	t.Run("CascadingErase", func(t *testing.T) {
		db, _ := seedCompany(t)
		before, beforeIdx := dumpState(db), db.IndexDump()
		c := db.Clone()
		cs := NewSession(c)
		cs.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
		machinery := cs.Current()
		emps := c.Members("DIV-EMP", machinery)
		if len(emps) != 3 {
			t.Fatalf("MACHINERY owns %d EMPs on the clone, want 3", len(emps))
		}
		// DIV-EMP is Automatic/Mandatory in CompanyV1, so the ERASE takes
		// MACHINERY's EMPs with it.
		if st, err := cs.Erase("DIV"); err != nil || st != OK {
			t.Fatalf("ERASE on the clone: %v %v", st, err)
		}
		if dumpState(db) != before || db.IndexDump() != beforeIdx {
			t.Errorf("clone erase leaked into the origin:\n%s\nwas\n%s", dumpState(db), before)
		}
		if db.Count("DIV") != 2 || db.Count("EMP") != 4 {
			t.Errorf("origin holds %d DIV %d EMP, want 2 and 4", db.Count("DIV"), db.Count("EMP"))
		}
		if c.Count("DIV") != 1 || c.Count("EMP") != 1 {
			t.Errorf("clone holds %d DIV %d EMP, want 1 and 1:\n%s", c.Count("DIV"), c.Count("EMP"), dumpState(c))
		}
		for _, id := range append([]RecordID{machinery}, emps...) {
			if c.Exists(id) || !db.Exists(id) {
				t.Errorf("#%d: exists on the clone %v, on the origin %v; want false and true", id, c.Exists(id), db.Exists(id))
			}
		}
		// IDs preserved across clone.
		for _, id := range db.AllOf("EMP") {
			if db.TypeOf(id) != "EMP" {
				t.Error("original IDs broken")
			}
		}
		checkInvariants(t, c)
		checkInvariants(t, db)
	})
	t.Run("Mutations", testCloneMutations)
}

func testCloneMutations(t *testing.T) {
	sch := schema.CompanyV1()
	sch.Set("DIV-EMP").Insertion = schema.Manual
	sch.Set("DIV-EMP").Retention = schema.Optional
	db := NewDB(sch)
	s := NewSession(db)
	for _, d := range []string{"MACHINERY", "TEXTILES"} {
		s.Store("DIV", value.FromPairs("DIV-NAME", d, "DIV-LOC", "X"))
		for _, e := range []string{"ADAMS", "BAKER"} {
			s.Store("EMP", value.FromPairs("EMP-NAME", d[:1]+"-"+e, "DEPT-NAME", "SALES", "AGE", 40))
			s.Connect("DIV-EMP")
		}
	}
	before, beforeIdx := dumpState(db), db.IndexDump()
	c := db.Clone()
	if dumpState(c) != before || c.IndexDump() != beforeIdx {
		t.Fatalf("clone differs from its origin:\n%s\nvs\n%s", dumpState(c), before)
	}
	cs := NewSession(c)
	mustOK := func(what string, st Status, err error) {
		t.Helper()
		if err != nil || st != OK {
			t.Fatalf("%s on the clone: %v %v", what, st, err)
		}
	}
	st, _ := cs.FindAny("DIV", value.FromPairs("DIV-NAME", "TEXTILES"))
	mustOK("FIND DIV", st, nil)
	_, st, err := cs.Store("EMP", value.FromPairs("EMP-NAME", "T-CLARK", "DEPT-NAME", "SALES", "AGE", 30))
	mustOK("STORE", st, err)
	st, err = cs.Connect("DIV-EMP")
	mustOK("CONNECT", st, err)
	cs.FindAny("EMP", value.FromPairs("EMP-NAME", "M-BAKER"))
	st, err = cs.Modify("EMP", value.FromPairs("EMP-NAME", "M-ZED", "AGE", 41))
	mustOK("MODIFY", st, err)
	st, err = cs.Disconnect("DIV-EMP")
	mustOK("DISCONNECT", st, err)
	cs.FindAny("DIV", value.FromPairs("DIV-NAME", "TEXTILES"))
	cs.FindAny("EMP", value.FromPairs("EMP-NAME", "M-ZED"))
	st, err = cs.Connect("DIV-EMP")
	mustOK("CONNECT", st, err)
	cs.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
	st, err = cs.Erase("DIV")
	mustOK("ERASE", st, err)
	if dumpState(db) != before || db.IndexDump() != beforeIdx {
		t.Errorf("clone mutations leaked into the origin:\n%s\nwas\n%s", dumpState(db), before)
	}
	if c.Count("DIV") != 1 || c.Count("EMP") != 5 || db.Count("DIV") != 2 || db.Count("EMP") != 4 {
		t.Errorf("counts: clone %d DIV %d EMP, origin %d DIV %d EMP", c.Count("DIV"), c.Count("EMP"), db.Count("DIV"), db.Count("EMP"))
	}
	checkInvariants(t, c)
	checkInvariants(t, db)
}

func TestMembersAndSystemMembers(t *testing.T) {
	db, s := seedCompany(t)
	divs := db.SystemMembers("ALL-DIV")
	if len(divs) != 2 {
		t.Fatalf("system members = %v", divs)
	}
	emps := db.Members("DIV-EMP", divs[0])
	if len(emps) != 3 {
		t.Errorf("MACHINERY emps = %d", len(emps))
	}
	if db.Members("NOPE", 1) != nil {
		t.Error("unknown set Members should be nil")
	}
	_ = s
}

func TestNewDBPanicsOnInvalidSchema(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDB(&schema.Network{Name: "BAD", Sets: []*schema.SetType{{Name: "S", Owner: "X", Member: "Y"}}})
}

func TestDirectionString(t *testing.T) {
	for d, w := range map[Direction]string{First: "FIRST", Last: "LAST", Next: "NEXT", Prior: "PRIOR", Direction(9): "?"} {
		if d.String() != w {
			t.Errorf("%d = %q", d, d.String())
		}
	}
}

func TestStatusString(t *testing.T) {
	for st, w := range map[Status]string{
		OK: "OK", EndOfSet: "END-OF-SET", NotFound: "NOT-FOUND",
		NoCurrency: "NO-CURRENCY", NoCurrentOwner: "NO-CURRENT-OWNER",
		DuplicateInSet: "DUPLICATE-IN-SET", AlreadyMember: "ALREADY-MEMBER",
		NotMember: "NOT-MEMBER", Retention: "RETENTION-VIOLATION",
		WrongType: "WRONG-TYPE", Status(42): "UNKNOWN-STATUS",
	} {
		if st.String() != w {
			t.Errorf("%d = %q", st, st.String())
		}
	}
}

func TestCurrencyAccessors(t *testing.T) {
	db, s := seedCompany(t)
	s.FindAny("EMP", value.FromPairs("EMP-NAME", "ADAMS"))
	if s.Current() == 0 || s.CurrentOfType("EMP") != s.Current() {
		t.Error("currency accessors")
	}
	if s.CurrentOfSet("DIV-EMP") != s.Current() {
		t.Error("set currency should follow the member")
	}
	if s.DB() != db {
		t.Error("DB accessor")
	}
}

// TestViewRefusesWrites: a view answers FINDs like its origin, counts
// them into the origin's IndexStats, and refuses every mutating entry
// point without changing anything.
func TestViewRefusesWrites(t *testing.T) {
	db, _ := seedCompany(t)
	before, beforeIdx := dumpState(db), db.IndexDump()
	v := db.View()
	s := NewSession(v)
	p0, _ := db.IndexStatsOf().Snapshot()
	if st, err := s.FindAny("EMP", value.FromPairs("EMP-NAME", "BAKER")); err != nil || st != OK {
		t.Fatalf("FindAny on view: %v %v", st, err)
	}
	if p1, _ := db.IndexStatsOf().Snapshot(); p1 != p0+1 {
		t.Errorf("view probe not counted on the origin's stats (%d -> %d)", p0, p1)
	}
	refused := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on a view: %v, want ErrReadOnly", name, err)
		}
	}
	_, _, err := s.Store("EMP", value.FromPairs("EMP-NAME", "NEW", "DEPT-NAME", "SALES", "AGE", 1))
	refused("STORE", err)
	_, err = s.Modify("EMP", value.FromPairs("AGE", 99))
	refused("MODIFY", err)
	_, err = s.Connect("DIV-EMP")
	refused("CONNECT", err)
	_, err = s.Disconnect("DIV-EMP")
	refused("DISCONNECT", err)
	_, err = s.Erase("EMP")
	refused("ERASE", err)
	_, err = v.StoreWith("DIV", value.FromPairs("DIV-NAME", "NEW"), map[string]RecordID{"ALL-DIV": OwnerSystem})
	refused("StoreWith", err)
	panics := func(name string, call func()) {
		t.Helper()
		defer func() {
			err, _ := recover().(error)
			refused(name, err)
		}()
		call()
	}
	panics("NewBulkLoader", func() { v.NewBulkLoader(0) })
	panics("SetIndexing", func() { v.SetIndexing(false) })
	if s.Status() != OK {
		t.Errorf("a refused write set DB-STATUS to %v", s.Status())
	}
	if dumpState(db) != before || db.IndexDump() != beforeIdx || dumpState(v) != before {
		t.Error("a refused write changed the database")
	}
	// A clone of a view is an ordinary, writable database.
	if _, st, err := NewSession(v.Clone()).Store("DIV", value.FromPairs("DIV-NAME", "NEW", "DIV-LOC", "X")); err != nil || st != OK {
		t.Errorf("STORE on a clone of a view: %v %v", st, err)
	}
}
