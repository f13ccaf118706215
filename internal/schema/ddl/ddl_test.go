package ddl

import (
	"strings"
	"testing"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// figure43 is the schema declaration of Figure 4.3, as printed in the
// paper (including the section-terminating punctuation it uses).
const figure43 = `
SCHEMA NAME IS COMPANY-NAME
RECORD SECTION;

  RECORD NAME IS DIV.
    FIELDS ARE.
      DIV-NAME PIC X(20).
      DIV-LOC PIC X(10).
  END RECORD.

  RECORD NAME IS EMP.
    FIELDS ARE.
      EMP-NAME PIC X(25).
      DEPT-NAME PIC X(5).
      AGE PIC 9(2).
      DIV-NAME VIRTUAL
        VIA DIV-EMP USING DIV-NAME.
  END RECORD.
END RECORD SECTION.
SET SECTION.

  SET NAME IS ALL-DIV.
    OWNER IS SYSTEM.
    MEMBER IS DIV.
    SET KEYS ARE (DIV-NAME).
  END SET.

  SET NAME IS DIV-EMP.
    OWNER IS DIV.
    MEMBER IS EMP.
    SET KEYS ARE (EMP-NAME).
    INSERTION IS AUTOMATIC.
    RETENTION IS MANDATORY.
  END SET.
END SET SECTION.
END SCHEMA.
`

func TestParseFigure43(t *testing.T) {
	n, err := ParseNetwork(figure43)
	if err != nil {
		t.Fatalf("ParseNetwork(figure 4.3): %v", err)
	}
	if n.Name != "COMPANY-NAME" {
		t.Errorf("schema name = %q", n.Name)
	}
	if len(n.Records) != 2 || len(n.Sets) != 2 {
		t.Fatalf("records=%d sets=%d", len(n.Records), len(n.Sets))
	}
	emp := n.Record("EMP")
	if emp == nil {
		t.Fatal("EMP missing")
	}
	if f := emp.Field("AGE"); f == nil || f.Kind != value.Int {
		t.Error("AGE should be INT via PIC 9(2)")
	}
	if f := emp.Field("EMP-NAME"); f == nil || f.Kind != value.String {
		t.Error("EMP-NAME should be STRING via PIC X(25)")
	}
	if f := emp.Field("DIV-NAME"); f == nil || f.Virtual == nil ||
		f.Virtual.ViaSet != "DIV-EMP" || f.Virtual.Using != "DIV-NAME" {
		t.Error("DIV-NAME virtual clause")
	}
	de := n.Set("DIV-EMP")
	if de == nil || de.Owner != "DIV" || de.Member != "EMP" {
		t.Fatal("DIV-EMP set")
	}
	if len(de.Keys) != 1 || de.Keys[0] != "EMP-NAME" {
		t.Errorf("DIV-EMP keys = %v", de.Keys)
	}
	if de.Insertion != schema.Automatic || de.Retention != schema.Mandatory {
		t.Error("DIV-EMP modes")
	}
	if ad := n.Set("ALL-DIV"); ad == nil || !ad.IsSystem() {
		t.Error("ALL-DIV should be SYSTEM owned")
	}
}

func TestNetworkDDLRoundTrip(t *testing.T) {
	for _, orig := range []*schema.Network{
		schema.CompanyV1(), schema.CompanyV2(), schema.SchoolNetwork(), schema.EmpDeptNetwork(),
	} {
		parsed, err := ParseNetwork(orig.DDL())
		if err != nil {
			t.Fatalf("%s: reparse: %v", orig.Name, err)
		}
		if parsed.DDL() != orig.DDL() {
			t.Errorf("%s: DDL round trip mismatch:\n%s\nvs\n%s", orig.Name, orig.DDL(), parsed.DDL())
		}
	}
}

func TestRelationalDDLRoundTrip(t *testing.T) {
	for _, orig := range []*schema.Relational{
		schema.SchoolRelational(), schema.EmpDeptRelational(),
	} {
		parsed, err := ParseRelational(orig.DDL())
		if err != nil {
			t.Fatalf("%s: reparse: %v", orig.Name, err)
		}
		if parsed.DDL() != orig.DDL() {
			t.Errorf("%s: DDL round trip mismatch:\n%s\nvs\n%s", orig.Name, orig.DDL(), parsed.DDL())
		}
	}
}

func TestHierarchyDDLRoundTrip(t *testing.T) {
	orig := schema.EmpDeptHierarchy()
	parsed, err := ParseHierarchy(orig.DDL())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if parsed.DDL() != orig.DDL() {
		t.Errorf("DDL round trip mismatch:\n%s\nvs\n%s", orig.DDL(), parsed.DDL())
	}
}

func TestParseDispatch(t *testing.T) {
	p, err := Parse(figure43)
	if err != nil || p.Kind() != "network" {
		t.Errorf("figure43 dispatch: %v %v", p, err)
	}
	p, err = Parse(schema.SchoolRelational().DDL())
	if err != nil || p.Kind() != "relational" {
		t.Errorf("relational dispatch: %v %v", p, err)
	}
	p, err = Parse(schema.EmpDeptHierarchy().DDL())
	if err != nil || p.Kind() != "hierarchical" {
		t.Errorf("hierarchy dispatch: %v %v", p, err)
	}
	if _, err = Parse("NONSENSE"); err == nil {
		t.Error("dispatch should reject unknown leading keyword")
	}
	if (&Parsed{}).Kind() != "empty" {
		t.Error("empty Parsed kind")
	}
	// Model reads the same rule from the leading keywords alone, so it
	// names the model of a source whose body does not parse.
	for src, want := range map[string]string{
		figure43:                        "network",
		schema.SchoolRelational().DDL(): "relational",
		schema.EmpDeptHierarchy().DDL(): "hierarchical",
		"SCHEMA NAME IS X. RECORD":      "network",
		"HIERARCHY NAME IS":             "hierarchical",
	} {
		if got, err := Model(src); err != nil || got != want {
			t.Errorf("Model(%.30q) = %q, %v; want %q", src, got, err, want)
		}
	}
	for _, src := range []string{"NONSENSE", "'x"} {
		if got, err := Model(src); err == nil {
			t.Errorf("Model(%q) = %q, want an error", src, got)
		}
	}
}

func TestDecimalPicture(t *testing.T) {
	src := `
SCHEMA NAME IS T
RECORD SECTION.
  RECORD NAME IS R.
    FIELDS ARE.
      AMOUNT PIC 9(5)V9(2).
      PLAIN PIC 9.
      NAME PIC X.
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-R. OWNER IS SYSTEM. MEMBER IS R. END SET.
END SET SECTION.
END SCHEMA.
`
	n, err := ParseNetwork(src)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Record("R")
	if r.Field("AMOUNT").Kind != value.Float {
		t.Error("9(5)V9(2) should be FLOAT")
	}
	if r.Field("PLAIN").Kind != value.Int {
		t.Error("PIC 9 should be INT")
	}
	if r.Field("NAME").Kind != value.String {
		t.Error("PIC X should be STRING")
	}
}

func TestNetworkParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing owner", `SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A INT. END RECORD. END RECORD SECTION. SET SECTION. SET NAME IS S. MEMBER IS R. END SET. END SET SECTION. END SCHEMA.`, "must declare OWNER"},
		{"bad picture", `SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A PIC Z(3). END RECORD. END RECORD SECTION. SET SECTION. END SET SECTION. END SCHEMA.`, "unsupported PICTURE"},
		{"bad type", `SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A BLOB. END RECORD. END RECORD SECTION. SET SECTION. END SET SECTION. END SCHEMA.`, "unknown type"},
		{"bad insertion", `SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A INT. END RECORD. END RECORD SECTION. SET SECTION. SET NAME IS S. OWNER IS SYSTEM. MEMBER IS R. INSERTION IS SOMETIMES. END SET. END SET SECTION. END SCHEMA.`, "AUTOMATIC or MANUAL"},
		{"bad retention", `SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A INT. END RECORD. END RECORD SECTION. SET SECTION. SET NAME IS S. OWNER IS SYSTEM. MEMBER IS R. RETENTION IS MAYBE. END SET. END SET SECTION. END SCHEMA.`, "MANDATORY or OPTIONAL"},
		{"trailing input", `SCHEMA NAME IS T RECORD SECTION. END RECORD SECTION. SET SECTION. END SET SECTION. END SCHEMA. EXTRA`, "trailing input"},
		{"validation runs", `SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A INT. END RECORD. END RECORD SECTION. SET SECTION. SET NAME IS S. OWNER IS NOPE. MEMBER IS R. END SET. END SET SECTION. END SCHEMA.`, "unknown owner"},
		{"unexpected in set", `SCHEMA NAME IS T RECORD SECTION. END RECORD SECTION. SET SECTION. SET NAME IS S. BANANA. END SET. END SET SECTION. END SCHEMA.`, "unexpected"},
		{"lex error", "SCHEMA NAME IS T @", "unexpected character"},
	}
	for _, tc := range cases {
		_, err := ParseNetwork(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRelationalParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"bad type", `SCHEMA NAME IS T. RELATION R (A BLOB KEY). END SCHEMA.`, "unknown type"},
		{"no key", `SCHEMA NAME IS T. RELATION R (A INT). END SCHEMA.`, "no key"},
		{"trailing", `SCHEMA NAME IS T. RELATION R (A INT KEY). END SCHEMA. MORE`, "trailing input"},
		{"fk to unknown", `SCHEMA NAME IS T. RELATION R (A INT KEY) FOREIGN KEY (A) REFERENCES NOPE (A). END SCHEMA.`, "unknown relation"},
	}
	for _, tc := range cases {
		_, err := ParseRelational(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestForeignKeyDefaultRefFields(t *testing.T) {
	src := `SCHEMA NAME IS T.
RELATION P (ID INT KEY).
RELATION C (ID INT KEY, PID INT) FOREIGN KEY (PID) REFERENCES P.
END SCHEMA.`
	rs, err := ParseRelational(src)
	if err != nil {
		t.Fatal(err)
	}
	fk := rs.Relation("C").ForeignKeys[0]
	if len(fk.RefFields) != 1 || fk.RefFields[0] != "ID" {
		t.Fatalf("defaulted RefFields should be the target's key, got %+v", fk)
	}
}

func TestHierarchyParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"two roots", `HIERARCHY NAME IS H. SEGMENT A (X INT) ROOT. SEGMENT B (Y INT) ROOT. END HIERARCHY.`, "two roots"},
		{"unknown parent", `HIERARCHY NAME IS H. SEGMENT A (X INT) ROOT. SEGMENT B (Y INT) PARENT NOPE. END HIERARCHY.`, "not yet declared"},
		{"no root/parent", `HIERARCHY NAME IS H. SEGMENT A (X INT). END HIERARCHY.`, "expected ROOT or PARENT"},
		{"bad seq", `HIERARCHY NAME IS H. SEGMENT A (X INT) ROOT SEQ NOPE. END HIERARCHY.`, "sequence field"},
		{"trailing", `HIERARCHY NAME IS H. SEGMENT A (X INT) ROOT. END HIERARCHY. JUNK`, "trailing input"},
	}
	for _, tc := range cases {
		_, err := ParseHierarchy(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParsedWrappersPropagateErrors(t *testing.T) {
	if _, err := ParseNetwork("'x"); err == nil {
		t.Error("ParseNetwork lex error")
	}
	if _, err := ParseRelational("'x"); err == nil {
		t.Error("ParseRelational lex error")
	}
	if _, err := ParseHierarchy("'x"); err == nil {
		t.Error("ParseHierarchy lex error")
	}
	if _, err := Parse("'x"); err == nil {
		t.Error("Parse lex error")
	}
}

func TestMoreParseErrorPaths(t *testing.T) {
	cases := []string{
		// Missing terminator after schema body statements.
		`SCHEMA NAME IS T RECORD SECTION RECORD NAME IS R`,
		// RECORD without NAME IS.
		`SCHEMA NAME IS T RECORD SECTION. RECORD R. END RECORD SECTION. SET SECTION. END SET SECTION. END SCHEMA.`,
		// FIELDS ARE missing.
		`SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. A INT. END RECORD. END RECORD SECTION. SET SECTION. END SET SECTION. END SCHEMA.`,
		// Virtual clause missing VIA.
		`SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A VIRTUAL USING B. END RECORD. END RECORD SECTION. SET SECTION. END SET SECTION. END SCHEMA.`,
		// Virtual clause missing USING.
		`SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A VIRTUAL VIA S. END RECORD. END RECORD SECTION. SET SECTION. END SET SECTION. END SCHEMA.`,
		// SET KEYS with unclosed parenthesis.
		`SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A INT. END RECORD. END RECORD SECTION. SET SECTION. SET NAME IS S. OWNER IS SYSTEM. MEMBER IS R. SET KEYS ARE (A. END SET. END SET SECTION. END SCHEMA.`,
		// OWNER without IS.
		`SCHEMA NAME IS T RECORD SECTION. END RECORD SECTION. SET SECTION. SET NAME IS S. OWNER SYSTEM. END SET. END SET SECTION. END SCHEMA.`,
		// PICTURE with bad length token.
		`SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A PIC X(B). END RECORD. END RECORD SECTION. SET SECTION. END SET SECTION. END SCHEMA.`,
		// END RECORD missing.
		`SCHEMA NAME IS T RECORD SECTION. RECORD NAME IS R. FIELDS ARE. A INT. END SECTION.`,
	}
	for _, src := range cases {
		if _, err := ParseNetwork(src); err == nil {
			t.Errorf("should not parse:\n%s", src)
		}
	}
}

func TestMoreRelationalErrorPaths(t *testing.T) {
	cases := []string{
		// Missing column list.
		`SCHEMA NAME IS T. RELATION R. END SCHEMA.`,
		// FOREIGN KEY with bad field list.
		`SCHEMA NAME IS T. RELATION R (A INT KEY) FOREIGN KEY A REFERENCES P. END SCHEMA.`,
		// FOREIGN KEY missing REFERENCES.
		`SCHEMA NAME IS T. RELATION R (A INT KEY) FOREIGN KEY (A) P. END SCHEMA.`,
		// REFERENCES with unclosed column list.
		`SCHEMA NAME IS T. RELATION P (A INT KEY). RELATION R (A INT KEY) FOREIGN KEY (A) REFERENCES P (A. END SCHEMA.`,
		// Missing comma handling: stray token in columns.
		`SCHEMA NAME IS T. RELATION R (A INT KEY B INT). END SCHEMA.`,
	}
	for _, src := range cases {
		if _, err := ParseRelational(src); err == nil {
			t.Errorf("should not parse:\n%s", src)
		}
	}
}

func TestSemicolonTerminatorsAccepted(t *testing.T) {
	// Figure 4.3 as printed uses ';' after RECORD SECTION; accept it
	// anywhere a '.' terminator is legal.
	src := `SCHEMA NAME IS T
RECORD SECTION;
  RECORD NAME IS R;
    FIELDS ARE;
      A INT;
  END RECORD;
END RECORD SECTION;
SET SECTION;
  SET NAME IS S; OWNER IS SYSTEM; MEMBER IS R; END SET;
END SET SECTION;
END SCHEMA;`
	if _, err := ParseNetwork(src); err != nil {
		t.Errorf("semicolon terminators: %v", err)
	}
}
