// Package lex is the shared lexer for every source language in progconv:
// the Figure 4.3 schema DDL, the Maryland FIND DML, the SEQUEL subset, the
// network DML, and the dbprog host language.
//
// The lexical conventions are the paper's own 1979 COBOL-flavoured ones:
//
//   - identifiers are letters, digits, '-', '#' and '$', so EMP-DEPT,
//     YEAR-OF-SERVICE and E# are single tokens. Consequently binary minus
//     must be written with surrounding space (AGE - 1); "AGE-1" is an
//     identifier, exactly as in COBOL.
//   - string literals use single quotes with ” as the escape: 'D2',
//     'O”HARA'.
//   - keywords are not reserved; parsers match uppercase identifiers.
//   - comments run from '*>' to end of line.
package lex

import (
	"fmt"
	"strings"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Number
	Str
	Punct
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Number:
		return "number"
	case Str:
		return "string"
	case Punct:
		return "punctuation"
	}
	return "token"
}

// Token is one lexical token. Text holds the identifier spelling, the
// number spelling, the decoded string payload, or the punctuation.
type Token struct {
	Kind Kind
	Text string
	Line int
	Col  int
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == EOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Error is a positioned lexical or syntax error.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Errorf builds a positioned error at a token.
func Errorf(t Token, format string, args ...any) error {
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func isIdentStart(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '-' || c == '#' || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// multi-character punctuation, longest first.
var multiPunct = []string{"<=", ">=", "<>", ":="}

// Scan tokenizes src. Identifier case is preserved; parsers that want
// case-insensitive keywords compare against strings.ToUpper of Text.
// Token texts are slices of src, except a string literal holding a
// doubled quote, so the token slice is usually Scan's one allocation.
func Scan(src string) ([]Token, error) {
	// The corpus programs average one token per five source bytes and
	// never reach one per three, so this capacity rarely grows.
	toks := make([]Token, 0, len(src)/3+2)
	line, col := 1, 1
	i := 0
	n := len(src)
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i+j] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += k
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '*' && i+1 < n && src[i+1] == '>':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case isIdentStart(c):
			start, sl, sc := i, line, col
			for i < n && isIdentPart(src[i]) {
				advance(1)
			}
			// A trailing hyphen belongs to punctuation, not the name:
			// "X- 1" lexes as X, -, 1.
			text := src[start:i]
			for strings.HasSuffix(text, "-") {
				text = text[:len(text)-1]
				i--
				col--
			}
			toks = append(toks, Token{Kind: Ident, Text: text, Line: sl, Col: sc})
		case isDigit(c):
			start, sl, sc := i, line, col
			for i < n && isDigit(src[i]) {
				advance(1)
			}
			if i+1 < n && src[i] == '.' && isDigit(src[i+1]) {
				advance(1)
				for i < n && isDigit(src[i]) {
					advance(1)
				}
			}
			toks = append(toks, Token{Kind: Number, Text: src[start:i], Line: sl, Col: sc})
		case c == '\'':
			sl, sc := line, col
			advance(1)
			start := i
			doubled, closed := false, false
			for i < n {
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' {
						doubled = true
						advance(2)
						continue
					}
					closed = true
					break
				}
				advance(1)
			}
			if !closed {
				return nil, &Error{Line: sl, Col: sc, Msg: "unterminated string literal"}
			}
			text := src[start:i]
			advance(1)
			if doubled {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, Token{Kind: Str, Text: text, Line: sl, Col: sc})
		default:
			sl, sc := line, col
			matched := false
			for _, mp := range multiPunct {
				if strings.HasPrefix(src[i:], mp) {
					toks = append(toks, Token{Kind: Punct, Text: mp, Line: sl, Col: sc})
					advance(len(mp))
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			if strings.ContainsRune("().,:;=<>+-*/", rune(c)) {
				toks = append(toks, Token{Kind: Punct, Text: src[i : i+1], Line: sl, Col: sc})
				advance(1)
				continue
			}
			return nil, &Error{Line: sl, Col: sc, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, Token{Kind: EOF, Line: line, Col: col})
	return toks, nil
}

// Stream is a token cursor with the lookahead and matching helpers the
// recursive-descent parsers share.
type Stream struct {
	toks []Token
	pos  int
}

// NewStream scans src and returns a cursor over its tokens.
func NewStream(src string) (*Stream, error) {
	toks, err := Scan(src)
	if err != nil {
		return nil, err
	}
	return &Stream{toks: toks}, nil
}

// Peek returns the current token without consuming it.
func (s *Stream) Peek() Token { return s.toks[s.pos] }

// PeekAt returns the token k positions ahead (0 = current).
func (s *Stream) PeekAt(k int) Token {
	if s.pos+k >= len(s.toks) {
		return s.toks[len(s.toks)-1]
	}
	return s.toks[s.pos+k]
}

// Next consumes and returns the current token.
func (s *Stream) Next() Token {
	t := s.toks[s.pos]
	if s.pos < len(s.toks)-1 {
		s.pos++
	}
	return t
}

// AtEOF reports whether the cursor is at end of input.
func (s *Stream) AtEOF() bool { return s.toks[s.pos].Kind == EOF }

// IsKeyword reports whether the current token is the given keyword,
// case-insensitively.
func (s *Stream) IsKeyword(kw string) bool {
	t := s.Peek()
	return t.Kind == Ident && strings.EqualFold(t.Text, kw)
}

// IsPunct reports whether the current token is the given punctuation.
func (s *Stream) IsPunct(p string) bool {
	t := s.Peek()
	return t.Kind == Punct && t.Text == p
}

// TakeKeyword consumes the current token if it is the given keyword.
func (s *Stream) TakeKeyword(kw string) bool {
	if s.IsKeyword(kw) {
		s.Next()
		return true
	}
	return false
}

// TakePunct consumes the current token if it is the given punctuation.
func (s *Stream) TakePunct(p string) bool {
	if s.IsPunct(p) {
		s.Next()
		return true
	}
	return false
}

// ExpectKeyword consumes the given keyword or returns a positioned error.
func (s *Stream) ExpectKeyword(kw string) error {
	if s.TakeKeyword(kw) {
		return nil
	}
	return Errorf(s.Peek(), "expected %s, found %s", kw, s.Peek())
}

// ExpectKeywords consumes a sequence of keywords.
func (s *Stream) ExpectKeywords(kws ...string) error {
	for _, kw := range kws {
		if err := s.ExpectKeyword(kw); err != nil {
			return err
		}
	}
	return nil
}

// ExpectPunct consumes the given punctuation or returns a positioned error.
func (s *Stream) ExpectPunct(p string) error {
	if s.TakePunct(p) {
		return nil
	}
	return Errorf(s.Peek(), "expected %q, found %s", p, s.Peek())
}

// ExpectIdent consumes and returns an identifier or returns an error.
func (s *Stream) ExpectIdent() (string, error) {
	t := s.Peek()
	if t.Kind != Ident {
		return "", Errorf(t, "expected identifier, found %s", t)
	}
	s.Next()
	return t.Text, nil
}
