// Package dbprog defines database programs as the paper defines them
// (§1.1): "a program written in a conventional programming language, with
// embedded data manipulation statements which interact with a database
// system". The host language is a small deterministic COBOL-flavoured
// language (LET, IF, PERFORM UNTIL, PRINT, ACCEPT, READ/WRITE of
// non-database files), and the embedded DML comes in four dialects:
// CODASYL network DML, the Maryland FIND-path DML, the SEQUEL subset, and
// DL/I. The interpreter captures all non-database input/output — the
// paper's operational definition of program behaviour, which conversion
// must preserve.
package dbprog

import (
	"fmt"
	"strings"

	"progconv/internal/mdml"
	"progconv/internal/sequel"

	"progconv/internal/value"
)

// Dialect identifies which DML a program embeds.
type Dialect uint8

// The DML dialects.
const (
	Network Dialect = iota
	Maryland
	Sequel
	DLI
)

// String returns the dialect keyword used in program headers.
func (d Dialect) String() string {
	switch d {
	case Network:
		return "NETWORK"
	case Maryland:
		return "MARYLAND"
	case Sequel:
		return "SEQUEL"
	case DLI:
		return "DLI"
	}
	return "?"
}

// ParseDialect parses a dialect keyword.
func ParseDialect(s string) (Dialect, error) {
	switch strings.ToUpper(s) {
	case "NETWORK":
		return Network, nil
	case "MARYLAND":
		return Maryland, nil
	case "SEQUEL":
		return Sequel, nil
	case "DLI":
		return DLI, nil
	}
	return 0, fmt.Errorf("dbprog: unknown dialect %q", s)
}

// Program is one database program.
type Program struct {
	Name    string
	Dialect Dialect
	Stmts   []Stmt
}

// ---- expressions ----

// Expr is a host-language expression.
type Expr interface{ expr() }

// Lit is a literal value.
type Lit struct{ V value.Value }

// Var references a scalar host variable.
type Var struct{ Name string }

// Field references a field of a record buffer (a record type's UWA buffer
// after GET/MOVE, or a loop variable): ENAME IN EMP.
type Field struct {
	Record string
	Field  string
}

// StatusRef reads the DB-STATUS register as a string ("OK",
// "END-OF-SET", "GE", ...), the §3.2 status-code dependence surface.
type StatusRef struct{}

// RecordRef renders a whole record buffer as a string, for PRINT RECORD.
type RecordRef struct{ Record string }

// Bin is a binary operation: arithmetic (+ - * /), comparison
// (= <> < <= > >=), or boolean (AND OR).
type Bin struct {
	Op   string
	L, R Expr
}

// Un is unary NOT or numeric negation ("-").
type Un struct {
	Op string
	E  Expr
}

func (Lit) expr()       {}
func (Var) expr()       {}
func (Field) expr()     {}
func (StatusRef) expr() {}
func (RecordRef) expr() {}
func (Bin) expr()       {}
func (Un) expr()        {}

// ---- host statements ----

// Stmt is one program statement.
type Stmt interface{ stmt() }

// Let assigns an expression to a scalar variable.
type Let struct {
	Var string
	E   Expr
}

// Print writes to the terminal: one line, arguments joined by a space.
type Print struct{ Args []Expr }

// Accept reads one line from the terminal into a variable.
type Accept struct{ Var string }

// ReadFile reads the next line of a non-database file into a variable
// (null once the file is exhausted).
type ReadFile struct {
	File string
	Var  string
}

// WriteFile appends one line to a non-database file.
type WriteFile struct {
	File string
	Args []Expr
}

// If branches on a condition.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// PerformUntil loops until the condition holds, testing before each pass
// (COBOL PERFORM UNTIL).
type PerformUntil struct {
	Cond Expr
	Body []Stmt
}

// Stop ends the program.
type Stop struct{}

func (Let) stmt()          {}
func (Print) stmt()        {}
func (Accept) stmt()       {}
func (ReadFile) stmt()     {}
func (WriteFile) stmt()    {}
func (If) stmt()           {}
func (PerformUntil) stmt() {}
func (Stop) stmt()         {}

// ---- network DML statements ----

// Move sets one field of a record type's UWA buffer: MOVE e TO F IN REC.
type Move struct {
	E      Expr
	Field  string
	Record string
}

// FindAny is FIND ANY REC [USING F1, F2]: locate by the listed buffer
// fields (all non-null buffer fields when USING is absent).
type FindAny struct {
	Record string
	Using  []string
}

// FindDup is FIND DUPLICATE REC [USING ...].
type FindDup struct {
	Record string
	Using  []string
}

// FindInSet is FIND FIRST/NEXT/PRIOR/LAST REC WITHIN SET [USING ...].
type FindInSet struct {
	Dir    string // FIRST, NEXT, PRIOR, LAST
	Record string
	Set    string
	Using  []string
}

// FindOwner is FIND OWNER WITHIN SET.
type FindOwner struct{ Set string }

// GetRec is GET REC: load the record buffer from the current of run-unit.
type GetRec struct{ Record string }

// StoreRec is STORE REC: store from the record buffer.
type StoreRec struct{ Record string }

// ModifyRec is MODIFY REC [USING F1...]: update the current record from
// the buffer (the listed fields, or every stored field).
type ModifyRec struct {
	Record string
	Using  []string
}

// EraseRec is ERASE REC.
type EraseRec struct{ Record string }

// ConnectRec is CONNECT REC TO SET.
type ConnectRec struct {
	Record string
	Set    string
}

// DisconnectRec is DISCONNECT REC FROM SET.
type DisconnectRec struct {
	Record string
	Set    string
}

func (Move) stmt()          {}
func (FindAny) stmt()       {}
func (FindDup) stmt()       {}
func (FindInSet) stmt()     {}
func (FindOwner) stmt()     {}
func (GetRec) stmt()        {}
func (StoreRec) stmt()      {}
func (ModifyRec) stmt()     {}
func (EraseRec) stmt()      {}
func (ConnectRec) stmt()    {}
func (DisconnectRec) stmt() {}

// ---- Maryland DML statements ----

// FieldAssign is F = expr inside Maryland/DLI assignment lists.
type FieldAssign struct {
	Field string
	E     Expr
}

// MFind evaluates a FIND or SORT(FIND) into a named collection:
// FIND(...) INTO COLL. / SORT(FIND(...)) ON (...) INTO COLL.
type MFind struct {
	Coll string
	Find *mdml.Find
	Sort *mdml.Sort // non-nil when wrapped in SORT
}

// ForEach iterates a collection, binding each record to a buffer name:
// FOR EACH E IN COLL ... END-FOR.
type ForEach struct {
	Var  string
	Coll string
	Body []Stmt
}

// MDelete deletes every record in a collection: DELETE COLL.
type MDelete struct{ Coll string }

// MModify applies assignments to every record in a collection:
// MODIFY COLL SET (F = e, ...).
type MModify struct {
	Coll    string
	Assigns []FieldAssign
}

// MStore stores a new record: STORE REC (F = e, ...) VIA SET = FIND(...).
type MStore struct {
	Record  string
	Assigns []FieldAssign
	Owners  map[string]*mdml.Find
}

func (MFind) stmt()   {}
func (ForEach) stmt() {}
func (MDelete) stmt() {}
func (MModify) stmt() {}
func (MStore) stmt()  {}

// ---- SEQUEL statements ----

// SqlForEach iterates a query's result: FOR EACH R IN (SELECT...) ... END-FOR.
type SqlForEach struct {
	Var   string
	Query *sequel.Select
	Body  []Stmt
}

// SqlExec runs an INSERT, DELETE or UPDATE (one of *sequel.Insert,
// *sequel.Delete, *sequel.Update).
type SqlExec struct{ Stmt any }

func (SqlForEach) stmt() {}
func (SqlExec) stmt()    {}

// ---- DL/I statements ----

// SSASpec is a dbprog-level segment search argument whose comparison
// value is a host expression, evaluated at call time (the §3.2 run-time
// variability surface).
type SSASpec struct {
	Segment string
	Field   string // empty = unqualified
	Op      string
	E       Expr
}

// DLIGet is GU/GN/GNP with SSAs; the retrieved segment lands in the
// buffer named by its segment type.
type DLIGet struct {
	Func string // GU, GN, GNP
	SSAs []SSASpec
}

// DLIInsert is ISRT REC (assigns) [UNDER ssa-path].
type DLIInsert struct {
	Record  string
	Assigns []FieldAssign
	Under   []SSASpec
}

// DLIDelete is DLET (current position).
type DLIDelete struct{}

// DLIRepl is REPL (assigns) on the current position.
type DLIRepl struct{ Assigns []FieldAssign }

func (DLIGet) stmt()    {}
func (DLIInsert) stmt() {}
func (DLIDelete) stmt() {}
func (DLIRepl) stmt()   {}

// Writes reports whether a program contains database-writing DML in any
// dialect. It is the static check behind two decisions: whether the
// bridge must retranslate a program's changes (pure retrievals never
// invalidate its reconstruction) and whether verification can run a
// program on a read-only view instead of a database copy.
func Writes(p *Program) bool {
	return blockWrites(p.Stmts)
}

func blockWrites(stmts []Stmt) bool {
	for _, st := range stmts {
		switch s := st.(type) {
		case StoreRec, ModifyRec, EraseRec, ConnectRec, DisconnectRec,
			MDelete, MModify, MStore,
			SqlExec, DLIInsert, DLIDelete, DLIRepl:
			return true
		case If:
			if blockWrites(s.Then) || blockWrites(s.Else) {
				return true
			}
		case PerformUntil:
			if blockWrites(s.Body) {
				return true
			}
		case ForEach:
			if blockWrites(s.Body) {
				return true
			}
		case SqlForEach:
			if blockWrites(s.Body) {
				return true
			}
		}
	}
	return false
}
