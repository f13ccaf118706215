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
//
// A Stream keeps its tokens as pointer-free records in a buffer that is
// reused from one parse to the next, so every caller of NewStream calls
// Release when it has parsed. Token texts are substrings of the source
// (or decoded string literals), never views of that buffer.
package lex

import (
	"fmt"
	"strings"
	"sync"
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

// tok is one token as a Stream keeps it. It holds no pointer, so the
// collector never scans a buffer of them and writes into one need no
// write barrier. Its text is src[off:end], except for a string literal
// holding a doubled quote, whose decoded text is decoded[off] and whose
// end is -1.
type tok struct {
	off, end  int32
	line, col int32
	kind      Kind
}

// maxSrc is the longest source a tok's int32 offsets can address.
const maxSrc = 1<<31 - 1

// maxPooledToks bounds the token buffers Release returns to the pool,
// so one huge source does not pin its buffer for later parses.
const maxPooledToks = 1 << 16

var streams = sync.Pool{New: func() any { return new(Stream) }}

// Stream is a token cursor with the lookahead and matching helpers the
// recursive-descent parsers share. The caller of NewStream calls
// Release once it has parsed and does not use the stream afterwards;
// the tokens it took from the stream stay valid.
type Stream struct {
	src     string
	toks    []tok
	decoded []string
	pos     int
}

// NewStream scans all of src and returns a cursor over its tokens.
// Identifier case is preserved; parsers that want case-insensitive
// keywords compare against strings.ToUpper of Text. Scanning the whole
// source first means a lexical error is reported before any syntax
// error, wherever the two lie.
func NewStream(src string) (*Stream, error) {
	s := streams.Get().(*Stream)
	if err := s.scan(src); err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// Release hands the stream and its token buffer back for reuse.
func (s *Stream) Release() {
	s.src = ""
	clear(s.decoded)
	s.decoded = s.decoded[:0]
	s.toks = s.toks[:0]
	s.pos = 0
	if cap(s.toks) <= maxPooledToks {
		streams.Put(s)
	}
}

// scan tokenizes src into the stream's buffer.
func (s *Stream) scan(src string) error {
	if len(src) > maxSrc {
		return &Error{Line: 1, Col: 1, Msg: "source longer than 2 GiB"}
	}
	s.src = src
	if s.toks == nil {
		// The corpus programs average one token per five source bytes
		// and never reach one per three, so this capacity rarely grows.
		s.toks = make([]tok, 0, len(src)/3+2)
	}
	toks := s.toks[:0]
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
			for src[i-1] == '-' {
				i--
				col--
			}
			toks = append(toks, newTok(Ident, start, i, sl, sc))
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
			toks = append(toks, newTok(Number, start, i, sl, sc))
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
				return &Error{Line: sl, Col: sc, Msg: "unterminated string literal"}
			}
			if doubled {
				s.decoded = append(s.decoded, strings.ReplaceAll(src[start:i], "''", "'"))
				toks = append(toks, newTok(Str, len(s.decoded)-1, -1, sl, sc))
			} else {
				toks = append(toks, newTok(Str, start, i, sl, sc))
			}
			advance(1)
		default:
			sl, sc := line, col
			if k := punctLen(src[i:]); k > 0 {
				toks = append(toks, newTok(Punct, i, i+k, sl, sc))
				advance(k)
				continue
			}
			return &Error{Line: sl, Col: sc, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, newTok(EOF, n, n, line, col))
	s.toks = toks
	return nil
}

// newTok builds a tok from scan's int positions.
func newTok(kind Kind, off, end, line, col int) tok {
	return tok{off: int32(off), end: int32(end), line: int32(line), col: int32(col), kind: kind}
}

// punctLen returns the length of the punctuation src starts with, a
// two-character form (<=, >=, <>, :=) before a single character, or 0
// when it starts with none.
func punctLen(src string) int {
	switch src[0] {
	case '<':
		if len(src) > 1 && (src[1] == '=' || src[1] == '>') {
			return 2
		}
		return 1
	case '>', ':':
		if len(src) > 1 && src[1] == '=' {
			return 2
		}
		return 1
	case '(', ')', '.', ',', ';', '=', '+', '-', '*', '/':
		return 1
	}
	return 0
}

// text returns a token's text.
func (s *Stream) text(t *tok) string {
	if t.end < 0 {
		return s.decoded[t.off]
	}
	return s.src[t.off:t.end]
}

// token builds the Token at index i of the buffer.
func (s *Stream) token(i int) Token {
	t := &s.toks[i]
	return Token{Kind: t.kind, Text: s.text(t), Line: int(t.line), Col: int(t.col)}
}

// Peek returns the current token without consuming it.
func (s *Stream) Peek() Token { return s.token(s.pos) }

// PeekAt returns the token k positions ahead (0 = current).
func (s *Stream) PeekAt(k int) Token {
	if s.pos+k >= len(s.toks) {
		return s.token(len(s.toks) - 1)
	}
	return s.token(s.pos + k)
}

// Next consumes and returns the current token.
func (s *Stream) Next() Token {
	t := s.token(s.pos)
	if s.pos < len(s.toks)-1 {
		s.pos++
	}
	return t
}

// AtEOF reports whether the cursor is at end of input.
func (s *Stream) AtEOF() bool { return s.toks[s.pos].kind == EOF }

// IsKeyword reports whether the current token is the given keyword,
// case-insensitively.
func (s *Stream) IsKeyword(kw string) bool {
	t := &s.toks[s.pos]
	return t.kind == Ident && strings.EqualFold(s.text(t), kw)
}

// IsPunct reports whether the current token is the given punctuation.
func (s *Stream) IsPunct(p string) bool {
	t := &s.toks[s.pos]
	return t.kind == Punct && s.text(t) == p
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
