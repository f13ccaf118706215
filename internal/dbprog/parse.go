package dbprog

import (
	"strconv"
	"strings"
	"sync"

	"progconv/internal/lex"
	"progconv/internal/mdml"
	"progconv/internal/sequel"
	"progconv/internal/value"
)

// Parse parses a complete program:
//
//	PROGRAM <name> DIALECT <NETWORK|MARYLAND|SEQUEL|DLI>.
//	  <statements>
//	END PROGRAM.
func Parse(src string) (*Program, error) {
	s, err := lex.NewStream(src)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	p := parsers.Get().(*parser)
	defer p.release()
	p.s = s
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "trailing input after END PROGRAM: %s", s.Peek())
	}
	return prog, nil
}

// parser is one parse's state. Its stacks are where block and exprList
// gather items before copying each list out at its exact size; a pool
// keeps parsers, and so their grown stacks, from one parse to the next.
type parser struct {
	s       *lex.Stream
	dialect Dialect
	stmts   []Stmt
	exprs   []Expr
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

// release empties the parser, dropping what a failed parse left on its
// stacks, and returns it to the pool.
func (p *parser) release() {
	clear(p.stmts)
	clear(p.exprs)
	*p = parser{stmts: p.stmts[:0], exprs: p.exprs[:0]}
	parsers.Put(p)
}

func (p *parser) program() (*Program, error) {
	if err := p.s.ExpectKeyword("PROGRAM"); err != nil {
		return nil, err
	}
	name, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectKeyword("DIALECT"); err != nil {
		return nil, err
	}
	dname, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	d, err := ParseDialect(dname)
	if err != nil {
		return nil, err
	}
	p.dialect = d
	if err := p.s.ExpectPunct("."); err != nil {
		return nil, err
	}
	prog := &Program{Name: name, Dialect: d}
	stmts, err := p.block("END")
	if err != nil {
		return nil, err
	}
	prog.Stmts = stmts
	if err := p.s.ExpectKeywords("END", "PROGRAM"); err != nil {
		return nil, err
	}
	if err := p.s.ExpectPunct("."); err != nil {
		return nil, err
	}
	return prog, nil
}

// block parses statements until one of the stop keywords appears. A
// nested block pushes above this one's base and pops before it
// returns, so the statements from base up are this block's.
func (p *parser) block(stops ...string) ([]Stmt, error) {
	base := len(p.stmts)
	for {
		if p.s.AtEOF() {
			return nil, lex.Errorf(p.s.Peek(), "unexpected end of program")
		}
		for _, stop := range stops {
			if p.s.IsKeyword(stop) {
				return pop(&p.stmts, base), nil
			}
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, st)
	}
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.s.IsKeyword("LET"):
		return p.letStmt()
	case p.s.IsKeyword("PRINT"):
		return p.printStmt()
	case p.s.IsKeyword("ACCEPT"):
		return p.acceptStmt()
	case p.s.IsKeyword("READ"):
		return p.readStmt()
	case p.s.IsKeyword("WRITE"):
		return p.writeStmt()
	case p.s.IsKeyword("IF"):
		return p.ifStmt()
	case p.s.IsKeyword("PERFORM"):
		return p.performStmt()
	case p.s.IsKeyword("STOP"):
		p.s.Next()
		return Stop{}, p.s.ExpectPunct(".")
	case p.s.IsKeyword("FOR"):
		return p.forEachStmt()
	case p.s.IsKeyword("MOVE"):
		return p.moveStmt()
	case p.s.IsKeyword("FIND"):
		return p.findStmt()
	case p.s.IsKeyword("GET"):
		return p.getStmt()
	case p.s.IsKeyword("STORE"):
		return p.storeStmt()
	case p.s.IsKeyword("MODIFY"):
		return p.modifyStmt()
	case p.s.IsKeyword("ERASE"):
		return p.eraseStmt()
	case p.s.IsKeyword("CONNECT"):
		return p.connectStmt()
	case p.s.IsKeyword("DISCONNECT"):
		return p.disconnectStmt()
	case p.s.IsKeyword("DELETE") && p.dialect == Maryland:
		return p.mDeleteStmt()
	case p.s.IsKeyword("SORT") && p.dialect == Maryland:
		return p.mFindStmt()
	case p.dialect == Sequel && (p.s.IsKeyword("INSERT") || p.s.IsKeyword("DELETE") || p.s.IsKeyword("UPDATE")):
		stmt, err := sequel.ParseStatementFrom(p.s)
		if err != nil {
			return nil, err
		}
		return SqlExec{Stmt: stmt}, p.s.ExpectPunct(".")
	case p.dialect == DLI && (p.s.IsKeyword("GU") || p.s.IsKeyword("GN") || p.s.IsKeyword("GNP")):
		return p.dliGetStmt()
	case p.dialect == DLI && p.s.IsKeyword("ISRT"):
		return p.dliInsertStmt()
	case p.dialect == DLI && p.s.IsKeyword("DLET"):
		p.s.Next()
		return DLIDelete{}, p.s.ExpectPunct(".")
	case p.dialect == DLI && p.s.IsKeyword("REPL"):
		return p.dliReplStmt()
	}
	return nil, lex.Errorf(p.s.Peek(), "unexpected statement start %s", p.s.Peek())
}

func (p *parser) letStmt() (Stmt, error) {
	p.s.Next()
	name, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectPunct("="); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return Let{Var: name, E: e}, p.s.ExpectPunct(".")
}

func (p *parser) printStmt() (Stmt, error) {
	p.s.Next()
	args, err := p.exprList()
	if err != nil {
		return nil, err
	}
	return Print{Args: args}, p.s.ExpectPunct(".")
}

func (p *parser) acceptStmt() (Stmt, error) {
	p.s.Next()
	name, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	return Accept{Var: name}, p.s.ExpectPunct(".")
}

func (p *parser) readStmt() (Stmt, error) {
	p.s.Next()
	t := p.s.Peek()
	if t.Kind != lex.Str {
		return nil, lex.Errorf(t, "READ expects a file name string, found %s", t)
	}
	p.s.Next()
	if err := p.s.ExpectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	return ReadFile{File: t.Text, Var: name}, p.s.ExpectPunct(".")
}

func (p *parser) writeStmt() (Stmt, error) {
	p.s.Next()
	t := p.s.Peek()
	if t.Kind != lex.Str {
		return nil, lex.Errorf(t, "WRITE expects a file name string, found %s", t)
	}
	p.s.Next()
	args, err := p.exprList()
	if err != nil {
		return nil, err
	}
	return WriteFile{File: t.Text, Args: args}, p.s.ExpectPunct(".")
}

func (p *parser) ifStmt() (Stmt, error) {
	p.s.Next()
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	then, err := p.block("ELSE", "END-IF")
	if err != nil {
		return nil, err
	}
	st := If{Cond: cond, Then: then}
	if p.s.TakeKeyword("ELSE") {
		els, err := p.block("END-IF")
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	if err := p.s.ExpectKeyword("END-IF"); err != nil {
		return nil, err
	}
	return st, p.s.ExpectPunct(".")
}

func (p *parser) performStmt() (Stmt, error) {
	p.s.Next()
	if err := p.s.ExpectKeyword("UNTIL"); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block("END-PERFORM")
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectKeyword("END-PERFORM"); err != nil {
		return nil, err
	}
	return PerformUntil{Cond: cond, Body: body}, p.s.ExpectPunct(".")
}

func (p *parser) forEachStmt() (Stmt, error) {
	p.s.Next()
	if err := p.s.ExpectKeyword("EACH"); err != nil {
		return nil, err
	}
	v, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectKeyword("IN"); err != nil {
		return nil, err
	}
	// SEQUEL dialect: FOR EACH R IN (SELECT ...); Maryland: FOR EACH R IN COLL.
	if p.dialect == Sequel {
		if err := p.s.ExpectPunct("("); err != nil {
			return nil, err
		}
		stmt, err := sequel.ParseStatementFrom(p.s)
		if err != nil {
			return nil, err
		}
		q, ok := stmt.(*sequel.Select)
		if !ok {
			return nil, lex.Errorf(p.s.Peek(), "FOR EACH requires a SELECT")
		}
		if err := p.s.ExpectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.block("END-FOR")
		if err != nil {
			return nil, err
		}
		if err := p.s.ExpectKeyword("END-FOR"); err != nil {
			return nil, err
		}
		return SqlForEach{Var: v, Query: q, Body: body}, p.s.ExpectPunct(".")
	}
	coll, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	body, err := p.block("END-FOR")
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectKeyword("END-FOR"); err != nil {
		return nil, err
	}
	return ForEach{Var: v, Coll: coll, Body: body}, p.s.ExpectPunct(".")
}

func (p *parser) moveStmt() (Stmt, error) {
	p.s.Next()
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectKeyword("TO"); err != nil {
		return nil, err
	}
	f, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectKeyword("IN"); err != nil {
		return nil, err
	}
	r, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	return Move{E: e, Field: f, Record: r}, p.s.ExpectPunct(".")
}

// findStmt dispatches the FIND forms of the network and Maryland dialects.
func (p *parser) findStmt() (Stmt, error) {
	if p.dialect == Maryland {
		return p.mFindStmt()
	}
	p.s.Next()
	switch {
	case p.s.TakeKeyword("ANY"):
		rec, using, err := p.recUsing()
		if err != nil {
			return nil, err
		}
		return FindAny{Record: rec, Using: using}, p.s.ExpectPunct(".")
	case p.s.TakeKeyword("DUPLICATE"):
		rec, using, err := p.recUsing()
		if err != nil {
			return nil, err
		}
		return FindDup{Record: rec, Using: using}, p.s.ExpectPunct(".")
	case p.s.TakeKeyword("OWNER"):
		if err := p.s.ExpectKeyword("WITHIN"); err != nil {
			return nil, err
		}
		set, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		return FindOwner{Set: set}, p.s.ExpectPunct(".")
	case p.s.IsKeyword("FIRST") || p.s.IsKeyword("NEXT") || p.s.IsKeyword("PRIOR") || p.s.IsKeyword("LAST"):
		dir := strings.ToUpper(p.s.Next().Text)
		rec, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.s.ExpectKeyword("WITHIN"); err != nil {
			return nil, err
		}
		set, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		using, err := p.usingClause()
		if err != nil {
			return nil, err
		}
		return FindInSet{Dir: dir, Record: rec, Set: set, Using: using}, p.s.ExpectPunct(".")
	}
	return nil, lex.Errorf(p.s.Peek(), "expected ANY, DUPLICATE, OWNER, FIRST, NEXT, PRIOR or LAST after FIND")
}

func (p *parser) recUsing() (string, []string, error) {
	rec, err := p.s.ExpectIdent()
	if err != nil {
		return "", nil, err
	}
	using, err := p.usingClause()
	return rec, using, err
}

func (p *parser) usingClause() ([]string, error) {
	if !p.s.TakeKeyword("USING") {
		return nil, nil
	}
	var out []string
	for {
		f, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
		if !p.s.TakePunct(",") {
			break
		}
	}
	return out, nil
}

// mFindStmt parses FIND(...) INTO COLL. or SORT(FIND(...)) ON (...) INTO COLL.
func (p *parser) mFindStmt() (Stmt, error) {
	st := MFind{}
	if p.s.IsKeyword("SORT") {
		srt, err := mdml.ParseSortFrom(p.s)
		if err != nil {
			return nil, err
		}
		st.Sort = srt
	} else {
		f, err := mdml.ParseFindFrom(p.s)
		if err != nil {
			return nil, err
		}
		st.Find = f
	}
	if err := p.s.ExpectKeyword("INTO"); err != nil {
		return nil, err
	}
	coll, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	st.Coll = coll
	return st, p.s.ExpectPunct(".")
}

func (p *parser) getStmt() (Stmt, error) {
	p.s.Next()
	rec, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	return GetRec{Record: rec}, p.s.ExpectPunct(".")
}

// storeStmt parses the network STORE REC. and the Maryland
// STORE REC (F = e, ...) [VIA SET = FIND(...), [VIA] SET = FIND(...) ...].
// VIA may repeat before each owner; Format writes it once.
func (p *parser) storeStmt() (Stmt, error) {
	p.s.Next()
	rec, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if p.dialect != Maryland {
		return StoreRec{Record: rec}, p.s.ExpectPunct(".")
	}
	assigns, err := p.assignList()
	if err != nil {
		return nil, err
	}
	st := MStore{Record: rec, Assigns: assigns, Owners: map[string]*mdml.Find{}}
	if !p.s.TakeKeyword("VIA") {
		return st, p.s.ExpectPunct(".")
	}
	for {
		set, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.s.ExpectPunct("="); err != nil {
			return nil, err
		}
		f, err := mdml.ParseFindFrom(p.s)
		if err != nil {
			return nil, err
		}
		st.Owners[set] = f
		if !p.s.TakePunct(",") {
			return st, p.s.ExpectPunct(".")
		}
		p.s.TakeKeyword("VIA")
	}
}

// assignList parses (F = expr, ...).
func (p *parser) assignList() ([]FieldAssign, error) {
	if err := p.s.ExpectPunct("("); err != nil {
		return nil, err
	}
	var out []FieldAssign
	for {
		f, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.s.ExpectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, FieldAssign{Field: f, E: e})
		if !p.s.TakePunct(",") {
			break
		}
	}
	return out, p.s.ExpectPunct(")")
}

// modifyStmt parses the network MODIFY REC [USING ...]. and the Maryland
// MODIFY COLL SET (F = e, ...).
func (p *parser) modifyStmt() (Stmt, error) {
	p.s.Next()
	name, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if p.dialect == Maryland {
		if err := p.s.ExpectKeyword("SET"); err != nil {
			return nil, err
		}
		assigns, err := p.assignList()
		if err != nil {
			return nil, err
		}
		return MModify{Coll: name, Assigns: assigns}, p.s.ExpectPunct(".")
	}
	using, err := p.usingClause()
	if err != nil {
		return nil, err
	}
	return ModifyRec{Record: name, Using: using}, p.s.ExpectPunct(".")
}

func (p *parser) eraseStmt() (Stmt, error) {
	p.s.Next()
	rec, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	return EraseRec{Record: rec}, p.s.ExpectPunct(".")
}

func (p *parser) connectStmt() (Stmt, error) {
	p.s.Next()
	rec, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectKeyword("TO"); err != nil {
		return nil, err
	}
	set, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	return ConnectRec{Record: rec, Set: set}, p.s.ExpectPunct(".")
}

func (p *parser) disconnectStmt() (Stmt, error) {
	p.s.Next()
	rec, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.s.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	set, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	return DisconnectRec{Record: rec, Set: set}, p.s.ExpectPunct(".")
}

func (p *parser) mDeleteStmt() (Stmt, error) {
	p.s.Next()
	coll, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	return MDelete{Coll: coll}, p.s.ExpectPunct(".")
}

// dliGetStmt parses GU/GN/GNP [SSA [, SSA ...]].
func (p *parser) dliGetStmt() (Stmt, error) {
	fn := strings.ToUpper(p.s.Next().Text)
	st := DLIGet{Func: fn}
	for p.s.Peek().Kind == lex.Ident {
		ssa, err := p.ssaSpec()
		if err != nil {
			return nil, err
		}
		st.SSAs = append(st.SSAs, ssa)
		if !p.s.TakePunct(",") {
			break
		}
	}
	return st, p.s.ExpectPunct(".")
}

func (p *parser) ssaSpec() (SSASpec, error) {
	var ssa SSASpec
	seg, err := p.s.ExpectIdent()
	if err != nil {
		return ssa, err
	}
	ssa.Segment = seg
	if p.s.TakePunct("(") {
		f, err := p.s.ExpectIdent()
		if err != nil {
			return ssa, err
		}
		op := p.s.Peek()
		if op.Kind != lex.Punct || !isCmpOp(op.Text) {
			return ssa, lex.Errorf(op, "expected comparison operator in SSA")
		}
		p.s.Next()
		e, err := p.expr()
		if err != nil {
			return ssa, err
		}
		ssa.Field, ssa.Op, ssa.E = f, op.Text, e
		if err := p.s.ExpectPunct(")"); err != nil {
			return ssa, err
		}
	}
	return ssa, nil
}

func (p *parser) dliInsertStmt() (Stmt, error) {
	p.s.Next()
	rec, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	assigns, err := p.assignList()
	if err != nil {
		return nil, err
	}
	st := DLIInsert{Record: rec, Assigns: assigns}
	if p.s.TakeKeyword("UNDER") {
		for {
			ssa, err := p.ssaSpec()
			if err != nil {
				return nil, err
			}
			st.Under = append(st.Under, ssa)
			if !p.s.TakePunct(",") {
				break
			}
		}
	}
	return st, p.s.ExpectPunct(".")
}

func (p *parser) dliReplStmt() (Stmt, error) {
	p.s.Next()
	assigns, err := p.assignList()
	if err != nil {
		return nil, err
	}
	return DLIRepl{Assigns: assigns}, p.s.ExpectPunct(".")
}

// ---- expressions ----

// exprList parses e, e, ... on the parser's stack, as block does.
func (p *parser) exprList() ([]Expr, error) {
	base := len(p.exprs)
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, e)
		if !p.s.TakePunct(",") {
			break
		}
	}
	return pop(&p.exprs, base), nil
}

// pop copies a stack's items from base up into a list of their exact
// length (nil when there are none) and truncates the stack to base,
// clearing what it drops so the pooled stack holds no AST.
func pop[T any](stack *[]T, base int) []T {
	items := (*stack)[base:]
	if len(items) == 0 {
		return nil
	}
	out := make([]T, len(items))
	copy(out, items)
	clear(items)
	*stack = (*stack)[:base]
	return out
}

// expr parses with precedence OR < AND < NOT < comparison < additive <
// multiplicative < unary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.s.TakeKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.s.TakeKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.s.TakeKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return Un{Op: "NOT", E: e}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.s.Peek()
	if t.Kind == lex.Punct && isCmpOp(t.Text) {
		p.s.Next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return Bin{Op: t.Text, L: l, R: r}, nil
	}
	return l, nil
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.s.IsPunct("+") || p.s.IsPunct("-") {
		op := p.s.Next().Text
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.s.IsPunct("*") || p.s.IsPunct("/") {
		op := p.s.Next().Text
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.s.TakePunct("-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return Un{Op: "-", E: e}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.s.Peek()
	switch {
	case t.Kind == lex.Str:
		p.s.Next()
		return Lit{V: value.Str(t.Text)}, nil
	case t.Kind == lex.Number:
		p.s.Next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, lex.Errorf(t, "bad number %q", t.Text)
			}
			return Lit{V: value.F(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, lex.Errorf(t, "bad number %q", t.Text)
		}
		return Lit{V: value.Of(i)}, nil
	case t.Kind == lex.Punct && t.Text == "(":
		p.s.Next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return e, p.s.ExpectPunct(")")
	case t.Kind == lex.Ident && strings.EqualFold(t.Text, "DB-STATUS"):
		p.s.Next()
		return StatusRef{}, nil
	case t.Kind == lex.Ident && strings.EqualFold(t.Text, "RECORD"):
		p.s.Next()
		rec, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		return RecordRef{Record: rec}, nil
	case t.Kind == lex.Ident:
		p.s.Next()
		// FIELD IN REC, or a bare variable.
		if p.s.TakeKeyword("IN") {
			rec, err := p.s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			return Field{Record: rec, Field: t.Text}, nil
		}
		return Var{Name: t.Text}, nil
	}
	return nil, lex.Errorf(t, "expected expression, found %s", t)
}
