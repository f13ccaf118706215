// Package ddl parses the schema definition languages: the Figure 4.3
// network schema language (RECORD SECTION / SET SECTION, with PIC clauses
// and VIRTUAL ... VIA ... USING fields), a relational DDL, and a
// hierarchical DDL. Each parser produces the corresponding object from
// package schema and validates it.
//
// The network grammar accepts Figure 4.3 verbatim, including its
// statement-terminating periods and the optional INSERTION/RETENTION
// clauses this reproduction adds for the §3.1 discussion.
package ddl

import (
	"fmt"
	"strings"

	"progconv/internal/lex"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// Parsed carries whichever schema kind the source declared.
type Parsed struct {
	Network    *schema.Network
	Relational *schema.Relational
	Hierarchy  *schema.Hierarchy
}

// Kind returns "network", "relational" or "hierarchical".
func (p *Parsed) Kind() string {
	switch {
	case p.Network != nil:
		return "network"
	case p.Relational != nil:
		return "relational"
	case p.Hierarchy != nil:
		return "hierarchical"
	}
	return "empty"
}

// Parse parses a schema in the data model its leading keywords name
// (see Model).
func Parse(src string) (*Parsed, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	kind, err := model(s)
	if err != nil {
		return nil, err
	}
	var p Parsed
	switch kind {
	case "hierarchical":
		p.Hierarchy, err = parseHierarchy(s)
	case "relational":
		p.Relational, err = parseRelational(s)
	default:
		p.Network, err = parseNetwork(s)
	}
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// Model returns the data model a schema source declares, as Parsed.Kind
// names it, from its leading keywords alone: HIERARCHY introduces a
// hierarchical schema; SCHEMA introduces a relational one (RELATION
// bodies) or a network one (RECORD SECTION bodies). It parses no
// further, so a source it names may still fail to parse.
func Model(src string) (string, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return "", err
	}
	defer s.Release()
	return model(s)
}

func model(s *lex.Stream) (string, error) {
	switch {
	case s.IsKeyword("HIERARCHY"):
		return "hierarchical", nil
	case s.IsKeyword("SCHEMA"):
		// Peek past "SCHEMA NAME IS <name> ." for the body keyword.
		if s.PeekAt(4).Kind == lex.Ident && strings.EqualFold(s.PeekAt(4).Text, "RELATION") ||
			s.PeekAt(5).Kind == lex.Ident && strings.EqualFold(s.PeekAt(5).Text, "RELATION") {
			return "relational", nil
		}
		return "network", nil
	}
	return "", lex.Errorf(s.Peek(), "expected SCHEMA or HIERARCHY, found %s", s.Peek())
}

// ParseNetwork parses a Figure 4.3 network schema.
func ParseNetwork(src string) (*schema.Network, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return parseNetwork(s)
}

// ParseRelational parses a relational schema.
func ParseRelational(src string) (*schema.Relational, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return parseRelational(s)
}

// ParseHierarchy parses a hierarchical schema.
func ParseHierarchy(src string) (*schema.Hierarchy, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return parseHierarchy(s)
}

// terminator consumes a statement terminator: '.' or ';' (Figure 4.3 as
// printed uses both).
func terminator(s *lex.Stream) error {
	if s.TakePunct(".") || s.TakePunct(";") {
		return nil
	}
	return lex.Errorf(s.Peek(), "expected '.' to end statement, found %s", s.Peek())
}

func parseSchemaHeader(s *lex.Stream, kw string) (string, error) {
	if err := s.ExpectKeywords(kw, "NAME", "IS"); err != nil {
		return "", err
	}
	name, err := s.ExpectIdent()
	if err != nil {
		return "", err
	}
	// Figure 4.3 has no period after the schema name; accept either.
	s.TakePunct(".")
	return name, nil
}

// ---- network ----

func parseNetwork(s *lex.Stream) (*schema.Network, error) {
	name, err := parseSchemaHeader(s, "SCHEMA")
	if err != nil {
		return nil, err
	}
	n := &schema.Network{Name: name}

	if err := s.ExpectKeywords("RECORD", "SECTION"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	for s.IsKeyword("RECORD") {
		r, err := parseRecordType(s)
		if err != nil {
			return nil, err
		}
		n.Records = append(n.Records, r)
	}
	if err := s.ExpectKeywords("END", "RECORD", "SECTION"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}

	if err := s.ExpectKeywords("SET", "SECTION"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	for s.IsKeyword("SET") {
		t, err := parseSetType(s)
		if err != nil {
			return nil, err
		}
		n.Sets = append(n.Sets, t)
	}
	if err := s.ExpectKeywords("END", "SET", "SECTION"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}

	if err := s.ExpectKeywords("END", "SCHEMA"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "trailing input after END SCHEMA: %s", s.Peek())
	}
	return n, n.Validate()
}

func parseRecordType(s *lex.Stream) (*schema.RecordType, error) {
	if err := s.ExpectKeywords("RECORD", "NAME", "IS"); err != nil {
		return nil, err
	}
	name, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	if err := s.ExpectKeywords("FIELDS", "ARE"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	r := &schema.RecordType{Name: name}
	for !s.IsKeyword("END") {
		f, err := parseField(s)
		if err != nil {
			return nil, err
		}
		r.Fields = append(r.Fields, f)
	}
	if err := s.ExpectKeywords("END", "RECORD"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	return r, nil
}

// parseField parses one field declaration:
//
//	DIV-NAME PIC X(20).
//	AGE PIC 9(2).             — numeric picture, INT
//	AGE INT.                  — direct type name
//	DIV-NAME VIRTUAL VIA DIV-EMP USING DIV-NAME.
func parseField(s *lex.Stream) (schema.Field, error) {
	var f schema.Field
	name, err := s.ExpectIdent()
	if err != nil {
		return f, err
	}
	f.Name = name
	switch {
	case s.TakeKeyword("VIRTUAL"):
		if err := s.ExpectKeyword("VIA"); err != nil {
			return f, err
		}
		via, err := s.ExpectIdent()
		if err != nil {
			return f, err
		}
		if err := s.ExpectKeyword("USING"); err != nil {
			return f, err
		}
		using, err := s.ExpectIdent()
		if err != nil {
			return f, err
		}
		f.Virtual = &schema.Virtual{ViaSet: via, Using: using}
	case s.TakeKeyword("PIC"):
		kind, err := parsePicture(s)
		if err != nil {
			return f, err
		}
		f.Kind = kind
	default:
		tname, err := s.ExpectIdent()
		if err != nil {
			return f, lex.Errorf(s.Peek(), "field %s: expected PIC, VIRTUAL or a type name", name)
		}
		kind, err := value.ParseKind(tname)
		if err != nil {
			return f, lex.Errorf(s.Peek(), "field %s: %v", name, err)
		}
		f.Kind = kind
	}
	if err := terminator(s); err != nil {
		return f, err
	}
	return f, nil
}

// parsePicture parses the clause after PIC: X(20) → STRING, 9(5) → INT,
// 9(5)V9(2) style decimals → FLOAT.
func parsePicture(s *lex.Stream) (value.Kind, error) {
	t := s.Next()
	var kind value.Kind
	switch {
	case t.Kind == lex.Ident && strings.EqualFold(t.Text, "X"):
		kind = value.String
	case t.Kind == lex.Number && t.Text == "9":
		kind = value.Int
	default:
		return value.Null, lex.Errorf(t, "unsupported PICTURE %s", t)
	}
	if s.TakePunct("(") {
		if s.Peek().Kind != lex.Number {
			return value.Null, lex.Errorf(s.Peek(), "expected length in PICTURE")
		}
		s.Next()
		if err := s.ExpectPunct(")"); err != nil {
			return value.Null, err
		}
	}
	// Decimal tail: V9(n) promotes to FLOAT.
	if kind == value.Int && s.Peek().Kind == lex.Ident && strings.HasPrefix(strings.ToUpper(s.Peek().Text), "V9") {
		s.Next()
		if s.TakePunct("(") {
			s.Next()
			if err := s.ExpectPunct(")"); err != nil {
				return value.Null, err
			}
		}
		kind = value.Float
	}
	return kind, nil
}

func parseSetType(s *lex.Stream) (*schema.SetType, error) {
	if err := s.ExpectKeywords("SET", "NAME", "IS"); err != nil {
		return nil, err
	}
	name, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	t := &schema.SetType{Name: name}
	for {
		switch {
		case s.TakeKeyword("OWNER"):
			if err := s.ExpectKeyword("IS"); err != nil {
				return nil, err
			}
			if t.Owner, err = s.ExpectIdent(); err != nil {
				return nil, err
			}
		case s.TakeKeyword("MEMBER"):
			if err := s.ExpectKeyword("IS"); err != nil {
				return nil, err
			}
			if t.Member, err = s.ExpectIdent(); err != nil {
				return nil, err
			}
		case s.IsKeyword("SET") && strings.EqualFold(s.PeekAt(1).Text, "KEYS"):
			s.Next()
			s.Next()
			if err := s.ExpectKeyword("ARE"); err != nil {
				return nil, err
			}
			if err := s.ExpectPunct("("); err != nil {
				return nil, err
			}
			for {
				k, err := s.ExpectIdent()
				if err != nil {
					return nil, err
				}
				t.Keys = append(t.Keys, k)
				if !s.TakePunct(",") {
					break
				}
			}
			if err := s.ExpectPunct(")"); err != nil {
				return nil, err
			}
		case s.TakeKeyword("INSERTION"):
			if err := s.ExpectKeyword("IS"); err != nil {
				return nil, err
			}
			switch {
			case s.TakeKeyword("AUTOMATIC"):
				t.Insertion = schema.Automatic
			case s.TakeKeyword("MANUAL"):
				t.Insertion = schema.Manual
			default:
				return nil, lex.Errorf(s.Peek(), "expected AUTOMATIC or MANUAL")
			}
		case s.TakeKeyword("RETENTION"):
			if err := s.ExpectKeyword("IS"); err != nil {
				return nil, err
			}
			switch {
			case s.TakeKeyword("MANDATORY"):
				t.Retention = schema.Mandatory
			case s.TakeKeyword("OPTIONAL"):
				t.Retention = schema.Optional
			default:
				return nil, lex.Errorf(s.Peek(), "expected MANDATORY or OPTIONAL")
			}
		case s.IsKeyword("END"):
			if err := s.ExpectKeywords("END", "SET"); err != nil {
				return nil, err
			}
			if err := terminator(s); err != nil {
				return nil, err
			}
			if t.Owner == "" || t.Member == "" {
				return nil, fmt.Errorf("ddl: set %s must declare OWNER and MEMBER", t.Name)
			}
			return t, nil
		default:
			return nil, lex.Errorf(s.Peek(), "unexpected %s in SET declaration", s.Peek())
		}
		if err := terminator(s); err != nil {
			return nil, err
		}
	}
}

// ---- relational ----

func parseRelational(s *lex.Stream) (*schema.Relational, error) {
	name, err := parseSchemaHeader(s, "SCHEMA")
	if err != nil {
		return nil, err
	}
	rs := &schema.Relational{Name: name}
	for s.IsKeyword("RELATION") {
		r, err := parseRelation(s)
		if err != nil {
			return nil, err
		}
		rs.Relations = append(rs.Relations, r)
	}
	if err := s.ExpectKeywords("END", "SCHEMA"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "trailing input after END SCHEMA: %s", s.Peek())
	}
	// Resolve defaulted foreign-key targets to the referenced relation's key.
	for _, r := range rs.Relations {
		for i := range r.ForeignKeys {
			fk := &r.ForeignKeys[i]
			if len(fk.RefFields) == 0 {
				if ref := rs.Relation(fk.RefRel); ref != nil {
					fk.RefFields = append([]string(nil), ref.Key...)
				}
			}
		}
	}
	return rs, rs.Validate()
}

func parseRelation(s *lex.Stream) (*schema.Relation, error) {
	if err := s.ExpectKeyword("RELATION"); err != nil {
		return nil, err
	}
	name, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	r := &schema.Relation{Name: name}
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	for {
		cname, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		tname, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := value.ParseKind(tname)
		if err != nil {
			return nil, lex.Errorf(s.Peek(), "column %s: %v", cname, err)
		}
		r.Columns = append(r.Columns, schema.Column{Name: cname, Kind: kind})
		if s.TakeKeyword("KEY") {
			r.Key = append(r.Key, cname)
		}
		if !s.TakePunct(",") {
			break
		}
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	for s.IsKeyword("FOREIGN") {
		fk, err := parseForeignKey(s)
		if err != nil {
			return nil, err
		}
		r.ForeignKeys = append(r.ForeignKeys, fk)
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	return r, nil
}

func parseForeignKey(s *lex.Stream) (schema.ForeignKey, error) {
	var fk schema.ForeignKey
	if err := s.ExpectKeywords("FOREIGN", "KEY"); err != nil {
		return fk, err
	}
	fields, err := parseIdentList(s)
	if err != nil {
		return fk, err
	}
	fk.Fields = fields
	if err := s.ExpectKeyword("REFERENCES"); err != nil {
		return fk, err
	}
	if fk.RefRel, err = s.ExpectIdent(); err != nil {
		return fk, err
	}
	if s.IsPunct("(") {
		if fk.RefFields, err = parseIdentList(s); err != nil {
			return fk, err
		}
	}
	// With no explicit column list the reference defaults to the target's
	// key; that is resolved after all relations are parsed.
	return fk, nil
}

func parseIdentList(s *lex.Stream) ([]string, error) {
	if err := s.ExpectPunct("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !s.TakePunct(",") {
			break
		}
	}
	if err := s.ExpectPunct(")"); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- hierarchical ----

func parseHierarchy(s *lex.Stream) (*schema.Hierarchy, error) {
	name, err := parseSchemaHeader(s, "HIERARCHY")
	if err != nil {
		return nil, err
	}
	h := &schema.Hierarchy{Name: name}
	parents := map[string]*schema.Segment{}
	for s.IsKeyword("SEGMENT") {
		s.Next()
		segName, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		seg := &schema.Segment{Name: segName}
		if err := s.ExpectPunct("("); err != nil {
			return nil, err
		}
		for {
			fname, err := s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			tname, err := s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			kind, err := value.ParseKind(tname)
			if err != nil {
				return nil, lex.Errorf(s.Peek(), "field %s: %v", fname, err)
			}
			seg.Fields = append(seg.Fields, schema.Field{Name: fname, Kind: kind})
			if !s.TakePunct(",") {
				break
			}
		}
		if err := s.ExpectPunct(")"); err != nil {
			return nil, err
		}
		switch {
		case s.TakeKeyword("ROOT"):
			if h.Root != nil {
				return nil, fmt.Errorf("ddl: hierarchy %s declares two roots", name)
			}
			h.Root = seg
		case s.TakeKeyword("PARENT"):
			pname, err := s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			p, ok := parents[pname]
			if !ok {
				return nil, fmt.Errorf("ddl: segment %s: parent %s not yet declared", segName, pname)
			}
			p.Children = append(p.Children, seg)
		default:
			return nil, lex.Errorf(s.Peek(), "segment %s: expected ROOT or PARENT", segName)
		}
		if s.TakeKeyword("SEQ") {
			if seg.Seq, err = s.ExpectIdent(); err != nil {
				return nil, err
			}
		}
		if err := terminator(s); err != nil {
			return nil, err
		}
		parents[segName] = seg
	}
	if err := s.ExpectKeywords("END", "HIERARCHY"); err != nil {
		return nil, err
	}
	if err := terminator(s); err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "trailing input after END HIERARCHY: %s", s.Peek())
	}
	return h, h.Validate()
}
