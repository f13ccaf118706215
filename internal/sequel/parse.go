package sequel

import (
	"fmt"
	"strconv"
	"strings"

	"progconv/internal/lex"
	"progconv/internal/value"
)

// ParseQuery parses a complete SELECT block.
func ParseQuery(src string) (*Select, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	q, err := parseSelect(s)
	if err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "trailing input after query: %s", s.Peek())
	}
	return q, nil
}

// ParseStatement parses one SEQUEL statement: SELECT, INSERT, DELETE or
// UPDATE. The result is one of *Select, *Insert, *Delete, *Update.
func ParseStatement(src string) (any, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	stmt, err := ParseStatementFrom(s)
	if err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "trailing input after statement: %s", s.Peek())
	}
	return stmt, nil
}

// ParseStatementFrom parses one statement from an existing token stream,
// leaving the stream positioned after it. This is how the dbprog host
// language embeds SEQUEL.
func ParseStatementFrom(s *lex.Stream) (any, error) {
	switch {
	case s.IsKeyword("SELECT"):
		return parseSelect(s)
	case s.IsKeyword("INSERT"):
		return parseInsert(s)
	case s.IsKeyword("DELETE"):
		return parseDelete(s)
	case s.IsKeyword("UPDATE"):
		return parseUpdate(s)
	}
	return nil, lex.Errorf(s.Peek(), "expected SELECT, INSERT, DELETE or UPDATE, found %s", s.Peek())
}

func parseSelect(s *lex.Stream) (*Select, error) {
	if err := s.ExpectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Select{}
	if s.TakePunct("*") {
		q.Fields = nil
	} else {
		for {
			f, err := s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			q.Fields = append(q.Fields, f)
			if !s.TakePunct(",") {
				break
			}
		}
	}
	if err := s.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	q.From = from
	if s.TakeKeyword("WHERE") {
		cond, err := parseOr(s)
		if err != nil {
			return nil, err
		}
		q.Where = cond
	}
	return q, nil
}

func parseOr(s *lex.Stream) (Cond, error) {
	l, err := parseAnd(s)
	if err != nil {
		return nil, err
	}
	for s.TakeKeyword("OR") {
		r, err := parseAnd(s)
		if err != nil {
			return nil, err
		}
		l = Or{l, r}
	}
	return l, nil
}

func parseAnd(s *lex.Stream) (Cond, error) {
	l, err := parseUnary(s)
	if err != nil {
		return nil, err
	}
	for s.TakeKeyword("AND") {
		r, err := parseUnary(s)
		if err != nil {
			return nil, err
		}
		l = And{l, r}
	}
	return l, nil
}

func parseUnary(s *lex.Stream) (Cond, error) {
	if s.TakeKeyword("NOT") {
		c, err := parseUnary(s)
		if err != nil {
			return nil, err
		}
		return Not{c}, nil
	}
	if s.TakePunct("(") {
		c, err := parseOr(s)
		if err != nil {
			return nil, err
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return c, nil
	}
	return parsePredicate(s)
}

func parsePredicate(s *lex.Stream) (Cond, error) {
	col, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if s.TakeKeyword("IN") {
		// Parenthesis around the sub-select is optional, as in the paper's
		// template (A), which nests the block bare.
		paren := s.TakePunct("(")
		sub, err := parseSelect(s)
		if err != nil {
			return nil, err
		}
		if paren {
			if err := s.ExpectPunct(")"); err != nil {
				return nil, err
			}
		}
		return In{Col: col, Sub: sub}, nil
	}
	op := s.Peek()
	if op.Kind != lex.Punct || !isCmpOp(op.Text) {
		return nil, lex.Errorf(op, "expected comparison operator, found %s", op)
	}
	s.Next()
	rhs, err := parseOperand(s)
	if err != nil {
		return nil, err
	}
	return Cmp{Col: col, Op: op.Text, Rhs: rhs}, nil
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func parseOperand(s *lex.Stream) (Operand, error) {
	t := s.Peek()
	switch {
	case t.Kind == lex.Str:
		s.Next()
		return Lit(value.Str(t.Text)), nil
	case t.Kind == lex.Number:
		s.Next()
		return numberOperand(t)
	case t.Kind == lex.Punct && t.Text == "-" && s.PeekAt(1).Kind == lex.Number:
		s.Next()
		n := s.Next()
		op, err := numberOperand(n)
		if err != nil {
			return Operand{}, err
		}
		if op.Lit.Kind() == value.Float {
			return Lit(value.F(-op.Lit.AsFloat())), nil
		}
		return Lit(value.Of(-op.Lit.AsInt())), nil
	case t.Kind == lex.Punct && t.Text == ":":
		s.Next()
		name, err := s.ExpectIdent()
		if err != nil {
			return Operand{}, err
		}
		return Param(name), nil
	case t.Kind == lex.Ident:
		s.Next()
		return Col(t.Text), nil
	}
	return Operand{}, lex.Errorf(t, "expected literal, :parameter or column, found %s", t)
}

func numberOperand(t lex.Token) (Operand, error) {
	if strings.Contains(t.Text, ".") {
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return Operand{}, lex.Errorf(t, "bad number %q", t.Text)
		}
		return Lit(value.F(f)), nil
	}
	i, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return Operand{}, lex.Errorf(t, "bad number %q", t.Text)
	}
	return Lit(value.Of(i)), nil
}

func parseInsert(s *lex.Stream) (*Insert, error) {
	if err := s.ExpectKeywords("INSERT", "INTO"); err != nil {
		return nil, err
	}
	into, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Into: into}
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	for {
		c, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		ins.Cols = append(ins.Cols, c)
		if !s.TakePunct(",") {
			break
		}
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	if err := s.ExpectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	for {
		v, err := parseOperand(s)
		if err != nil {
			return nil, err
		}
		ins.Values = append(ins.Values, v)
		if !s.TakePunct(",") {
			break
		}
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	if len(ins.Cols) != len(ins.Values) {
		return nil, fmt.Errorf("sequel: INSERT into %s: %d columns, %d values",
			ins.Into, len(ins.Cols), len(ins.Values))
	}
	return ins, nil
}

func parseDelete(s *lex.Stream) (*Delete, error) {
	if err := s.ExpectKeywords("DELETE", "FROM"); err != nil {
		return nil, err
	}
	from, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	d := &Delete{From: from}
	if s.TakeKeyword("WHERE") {
		if d.Where, err = parseOr(s); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func parseUpdate(s *lex.Stream) (*Update, error) {
	if err := s.ExpectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	rel, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	u := &Update{Rel: rel}
	if err := s.ExpectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if err := s.ExpectPunct("="); err != nil {
			return nil, err
		}
		rhs, err := parseOperand(s)
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assign{Col: col, Rhs: rhs})
		if !s.TakePunct(",") {
			break
		}
	}
	if s.TakeKeyword("WHERE") {
		if u.Where, err = parseOr(s); err != nil {
			return nil, err
		}
	}
	return u, nil
}
