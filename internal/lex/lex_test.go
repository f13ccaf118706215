package lex

import (
	"strings"
	"testing"
	"testing/quick"
)

// scan reads a stream to its end: every token, EOF included.
func scan(src string) ([]Token, error) {
	s, err := NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	var toks []Token
	for {
		t := s.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func scanKinds(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := scan(src)
	if err != nil {
		t.Fatalf("scan(%q): %v", src, err)
	}
	return toks[:len(toks)-1] // drop EOF
}

func TestHyphenatedIdentifiers(t *testing.T) {
	toks := scanKinds(t, "YEAR-OF-SERVICE EMP-DEPT E# D$V")
	if len(toks) != 4 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	want := []string{"YEAR-OF-SERVICE", "EMP-DEPT", "E#", "D$V"}
	for i, w := range want {
		if toks[i].Kind != Ident || toks[i].Text != w {
			t.Errorf("token %d = %v, want ident %q", i, toks[i], w)
		}
	}
}

func TestTrailingHyphenSplits(t *testing.T) {
	toks := scanKinds(t, "X- 1")
	if len(toks) != 3 || toks[0].Text != "X" || toks[1].Text != "-" || toks[2].Text != "1" {
		t.Errorf("X- 1 lexed as %v", toks)
	}
}

func TestMinusInsideNameVsSpaced(t *testing.T) {
	toks := scanKinds(t, "AGE-1")
	if len(toks) != 1 || toks[0].Text != "AGE-1" {
		t.Errorf("AGE-1 should be one identifier, got %v", toks)
	}
	toks = scanKinds(t, "AGE - 1")
	if len(toks) != 3 || toks[1].Text != "-" {
		t.Errorf("AGE - 1 should be three tokens, got %v", toks)
	}
}

func TestNumbers(t *testing.T) {
	toks := scanKinds(t, "30 2.5 007")
	if toks[0].Text != "30" || toks[1].Text != "2.5" || toks[2].Text != "007" {
		t.Errorf("numbers = %v", toks)
	}
	for _, tok := range toks {
		if tok.Kind != Number {
			t.Errorf("%v should be a number", tok)
		}
	}
	// "1." is number then dot (statement terminator), not a float.
	toks = scanKinds(t, "1.")
	if len(toks) != 2 || toks[0].Text != "1" || toks[1].Text != "." {
		t.Errorf("1. = %v", toks)
	}
}

func TestStrings(t *testing.T) {
	toks := scanKinds(t, "'MACHINERY' 'O''HARA' ''")
	want := []string{"MACHINERY", "O'HARA", ""}
	for i, w := range want {
		if toks[i].Kind != Str || toks[i].Text != w {
			t.Errorf("string %d = %v, want %q", i, toks[i], w)
		}
	}
	if _, err := scan("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestComments(t *testing.T) {
	toks := scanKinds(t, "A *> this is ignored\nB")
	if len(toks) != 2 || toks[0].Text != "A" || toks[1].Text != "B" {
		t.Errorf("comment handling: %v", toks)
	}
}

func TestMultiPunct(t *testing.T) {
	toks := scanKinds(t, "<= >= <> := < > =")
	want := []string{"<=", ">=", "<>", ":=", "<", ">", "="}
	if len(toks) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i, w := range want {
		if toks[i].Kind != Punct || toks[i].Text != w {
			t.Errorf("punct %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestPositions(t *testing.T) {
	toks := scanKinds(t, "A\n  B")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("A at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("B at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestBadCharacter(t *testing.T) {
	_, err := scan("A @ B")
	if err == nil || !strings.Contains(err.Error(), "@") {
		t.Errorf("err = %v", err)
	}
	var le *Error
	if ok := strings.Contains(err.Error(), "line 1:3"); !ok {
		t.Errorf("error should carry position: %v", err)
	}
	_ = le
}

func TestStreamHelpers(t *testing.T) {
	s, err := NewStream("FIND next EMP WITHIN ED (AGE > 30).")
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsKeyword("find") || !s.TakeKeyword("FIND") {
		t.Error("keyword matching should be case-insensitive")
	}
	if !s.TakeKeyword("NEXT") {
		t.Error("next")
	}
	id, err := s.ExpectIdent()
	if err != nil || id != "EMP" {
		t.Errorf("ExpectIdent = %q, %v", id, err)
	}
	if err := s.ExpectKeywords("WITHIN"); err != nil {
		t.Error(err)
	}
	if s.PeekAt(0).Text != "ED" || s.PeekAt(1).Text != "(" {
		t.Error("PeekAt")
	}
	if s.PeekAt(99).Kind != EOF {
		t.Error("PeekAt past end should be EOF")
	}
	s.Next() // ED
	if err := s.ExpectPunct("("); err != nil {
		t.Error(err)
	}
	if err := s.ExpectPunct(")"); err == nil {
		t.Error("ExpectPunct should fail on AGE")
	}
	if err := s.ExpectKeyword("NOPE"); err == nil {
		t.Error("ExpectKeyword should fail")
	}
	if _, err := NewStream("'bad"); err == nil {
		t.Error("NewStream should propagate scan errors")
	}
}

func TestStreamEOFBehaviour(t *testing.T) {
	s, _ := NewStream("A")
	s.Next()
	if !s.AtEOF() {
		t.Error("should be at EOF")
	}
	// Next at EOF stays at EOF.
	if s.Next().Kind != EOF || s.Next().Kind != EOF {
		t.Error("Next at EOF should keep returning EOF")
	}
	if _, err := s.ExpectIdent(); err == nil {
		t.Error("ExpectIdent at EOF should fail")
	}
}

func TestTokenString(t *testing.T) {
	if (Token{Kind: EOF}).String() != "end of input" {
		t.Error("EOF string")
	}
	if got := (Token{Kind: Ident, Text: "A"}).String(); got != `"A"` {
		t.Errorf("ident string = %s", got)
	}
	for k, w := range map[Kind]string{EOF: "end of input", Ident: "identifier",
		Number: "number", Str: "string", Punct: "punctuation", Kind(9): "token"} {
		if k.String() != w {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
	}
}

// Property: any string literal round-trips through quoting and scanning.
func TestStringLiteralRoundTripProperty(t *testing.T) {
	f := func(payload string) bool {
		if strings.ContainsAny(payload, "\x00") {
			return true // skip NULs; not representable in sources
		}
		quoted := "'" + strings.ReplaceAll(payload, "'", "''") + "'"
		toks, err := scan(quoted)
		return err == nil && len(toks) == 2 && toks[0].Kind == Str && toks[0].Text == payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scanning never panics and always terminates with EOF on
// arbitrary printable input.
func TestScanTotalityProperty(t *testing.T) {
	f := func(s string) bool {
		toks, err := scan(s)
		if err != nil {
			return true // rejection is fine; crashing is not
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
