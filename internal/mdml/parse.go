package mdml

import (
	"strconv"
	"strings"

	"progconv/internal/lex"
	"progconv/internal/value"
)

// ParseFind parses a FIND expression in the paper's syntax:
//
//	FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP)
//
// A leading @NAME step starts the path from a previously retrieved
// collection instead of SYSTEM.
func ParseFind(src string) (*Find, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	f, err := ParseFindFrom(s)
	if err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "trailing input after FIND: %s", s.Peek())
	}
	return f, nil
}

// ParseSortOrFind parses either a bare FIND or a SORT(FIND(...)) ON (...)
// wrapper; the result is *Find or *Sort.
func ParseSortOrFind(src string) (any, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	var out any
	if s.IsKeyword("SORT") {
		out, err = ParseSortFrom(s)
	} else {
		out, err = ParseFindFrom(s)
	}
	if err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "trailing input: %s", s.Peek())
	}
	return out, nil
}

// ParseSortFrom parses SORT(FIND(...)) ON (fields) from a token stream.
func ParseSortFrom(s *lex.Stream) (*Sort, error) {
	if err := s.ExpectKeyword("SORT"); err != nil {
		return nil, err
	}
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	inner, err := ParseFindFrom(s)
	if err != nil {
		return nil, err
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	if err := s.ExpectKeyword("ON"); err != nil {
		return nil, err
	}
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	srt := &Sort{Inner: inner}
	for {
		f, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		srt.On = append(srt.On, f)
		if !s.TakePunct(",") {
			break
		}
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	return srt, nil
}

// ParseFindFrom parses a FIND from a token stream, leaving the stream
// after the closing parenthesis. This is how dbprog embeds the dialect.
func ParseFindFrom(s *lex.Stream) (*Find, error) {
	if err := s.ExpectKeyword("FIND"); err != nil {
		return nil, err
	}
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	target, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := s.ExpectPunct(":"); err != nil {
		return nil, err
	}
	f := &Find{Target: target}
	// Steps alternate between sets and records starting from SYSTEM or a
	// collection; the parser does not know the schema, so it records names
	// and lets the evaluator classify them.
	first := true
	for {
		var step Step
		switch {
		case first && s.TakeKeyword("SYSTEM"):
			step = Step{Kind: SystemStep}
		case first && s.IsPunct("@"):
			return nil, lex.Errorf(s.Peek(), "collection reference must be an identifier")
		default:
			name, err := s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			step = Step{Kind: SetStep, Name: name} // classified later
			if s.TakePunct("(") {
				q, err := parseQualOr(s)
				if err != nil {
					return nil, err
				}
				if err := s.ExpectPunct(")"); err != nil {
					return nil, err
				}
				step.Qual = q
				step.Kind = RecordStep
			}
		}
		f.Steps = append(f.Steps, step)
		first = false
		if !s.TakePunct(",") {
			break
		}
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	return f, nil
}

// Classify resolves the parser's provisional step kinds against a schema
// vocabulary: names that are set types become SetStep, record types
// RecordStep; a leading unknown name is a collection reference. It is
// separated from parsing so that programs can be parsed without their
// schema at hand and classified later by the analyzer.
func (f *Find) Classify(isSet func(string) bool, isRecord func(string) bool) error {
	for i := range f.Steps {
		st := &f.Steps[i]
		if st.Kind == SystemStep {
			continue
		}
		switch {
		case st.Qual != nil:
			if !isRecord(st.Name) {
				return &ClassifyError{Name: st.Name, Reason: "qualified step is not a record type"}
			}
			st.Kind = RecordStep
		case isSet(st.Name):
			st.Kind = SetStep
		case isRecord(st.Name):
			st.Kind = RecordStep
		case i == 0:
			st.Kind = CollectionStep
		default:
			return &ClassifyError{Name: st.Name, Reason: "not a set, record type, or leading collection"}
		}
	}
	return nil
}

// Classified returns a copy of the path with step kinds resolved by
// Classify, leaving the receiver untouched. Evaluation and optimization
// classify through this copy because a parsed program may be shared —
// the conversion cache hands one parse tree to many concurrent runs —
// so resolved kinds must never be written back into the shared tree.
func (f *Find) Classified(isSet func(string) bool, isRecord func(string) bool) (*Find, error) {
	c := &Find{Target: f.Target, Steps: append([]Step(nil), f.Steps...)}
	if err := c.Classify(isSet, isRecord); err != nil {
		return nil, err
	}
	return c, nil
}

// ClassifyError reports a path name that fits no schema vocabulary.
type ClassifyError struct {
	Name   string
	Reason string
}

func (e *ClassifyError) Error() string {
	return "mdml: cannot classify path step " + e.Name + ": " + e.Reason
}

func parseQualOr(s *lex.Stream) (Qual, error) {
	l, err := parseQualAnd(s)
	if err != nil {
		return nil, err
	}
	for s.TakeKeyword("OR") {
		r, err := parseQualAnd(s)
		if err != nil {
			return nil, err
		}
		l = Or{l, r}
	}
	return l, nil
}

func parseQualAnd(s *lex.Stream) (Qual, error) {
	l, err := parseQualUnary(s)
	if err != nil {
		return nil, err
	}
	for s.TakeKeyword("AND") {
		r, err := parseQualUnary(s)
		if err != nil {
			return nil, err
		}
		l = And{l, r}
	}
	return l, nil
}

func parseQualUnary(s *lex.Stream) (Qual, error) {
	if s.TakeKeyword("NOT") {
		q, err := parseQualUnary(s)
		if err != nil {
			return nil, err
		}
		return Not{q}, nil
	}
	if s.TakePunct("(") {
		q, err := parseQualOr(s)
		if err != nil {
			return nil, err
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	field, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	op := s.Peek()
	if op.Kind != lex.Punct || !isCmpOp(op.Text) {
		return nil, lex.Errorf(op, "expected comparison operator, found %s", op)
	}
	s.Next()
	t := s.Peek()
	switch {
	case t.Kind == lex.Str:
		s.Next()
		return Cmp{Field: field, Op: op.Text, Lit: value.Str(t.Text)}, nil
	case t.Kind == lex.Number:
		s.Next()
		return Cmp{Field: field, Op: op.Text, Lit: numberLit(t.Text)}, nil
	case t.Kind == lex.Punct && t.Text == "-" && s.PeekAt(1).Kind == lex.Number:
		s.Next()
		n := s.Next()
		v := numberLit(n.Text)
		if v.Kind() == value.Float {
			v = value.F(-v.AsFloat())
		} else {
			v = value.Of(-v.AsInt())
		}
		return Cmp{Field: field, Op: op.Text, Lit: v}, nil
	case t.Kind == lex.Punct && t.Text == ":":
		s.Next()
		name, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		return Cmp{Field: field, Op: op.Text, Param: name}, nil
	}
	return nil, lex.Errorf(t, "expected literal or :parameter, found %s", t)
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func numberLit(text string) value.Value {
	if strings.Contains(text, ".") {
		f, _ := strconv.ParseFloat(text, 64)
		return value.F(f)
	}
	i, _ := strconv.ParseInt(text, 10, 64)
	return value.Of(i)
}
