package dbprog

import (
	"fmt"
	"slices"
	"sync"
)

// Format renders a program back to source text. The Program Generator of
// Figure 4.1 is a printer over the converted AST; Parse(Format(p)) yields
// a program that formats identically, which the tests rely on. Format
// renders through AppendFormat into a pooled buffer, so once the pool is
// warm the returned string is its one allocation.
func Format(p *Program) string {
	bp := formatPool.Get().(*[]byte)
	b := AppendFormat((*bp)[:0], p)
	s := string(b)
	if cap(b) <= maxPooled {
		*bp = b
		formatPool.Put(bp)
	}
	return s
}

// maxPooled bounds the buffers Format returns to its pool, so one huge
// program does not pin its buffer for the life of the process.
const maxPooled = 64 << 10

var formatPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// AppendFormat appends Format's rendering of p to dst and returns the
// extended buffer. It is the one program renderer: Format, the program
// fingerprint and the codegen memo all reach it, and the network,
// Maryland and DL/I statements render without fmt, so a warm buffer
// takes no allocation.
func AppendFormat(dst []byte, p *Program) []byte {
	dst = appendStrings(dst, "PROGRAM ", p.Name, " DIALECT ", p.Dialect.String(), ".\n")
	dst = appendBlock(dst, p.Stmts, 1)
	return append(dst, "END PROGRAM.\n"...)
}

// appendStrings appends each string in turn.
func appendStrings(dst []byte, ss ...string) []byte {
	for _, s := range ss {
		dst = append(dst, s...)
	}
	return dst
}

func appendIndent(dst []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		dst = append(dst, "  "...)
	}
	return dst
}

func appendBlock(dst []byte, stmts []Stmt, depth int) []byte {
	for _, s := range stmts {
		dst = appendStmt(dst, s, depth)
	}
	return dst
}

// appendLine renders an indented line of fixed text.
func appendLine(dst []byte, depth int, text string) []byte {
	return append(appendIndent(dst, depth), text...)
}

// appendBody renders a nested block and its indented closing line.
func appendBody(dst []byte, body []Stmt, depth int, end string) []byte {
	return appendLine(appendBlock(dst, body, depth+1), depth, end)
}

// appendStmt renders one statement line, or a block statement and its
// body, at depth. Single-line statements leave the switch to share the
// ".\n" terminator; block statements return after their closing line.
func appendStmt(dst []byte, st Stmt, depth int) []byte {
	dst = appendIndent(dst, depth)
	switch s := st.(type) {
	case Let:
		dst = AppendExpr(appendStrings(dst, "LET ", s.Var, " = "), s.E)
	case Print:
		dst = appendExprList(append(dst, "PRINT "...), s.Args)
	case Accept:
		dst = appendStrings(dst, "ACCEPT ", s.Var)
	case ReadFile:
		dst = appendStrings(dst, "READ '", s.File, "' INTO ", s.Var)
	case WriteFile:
		dst = appendExprList(appendStrings(dst, "WRITE '", s.File, "' "), s.Args)
	case If:
		dst = AppendExpr(append(dst, "IF "...), s.Cond)
		dst = appendBlock(append(dst, '\n'), s.Then, depth+1)
		if len(s.Else) > 0 {
			dst = appendLine(dst, depth, "ELSE\n")
			dst = appendBlock(dst, s.Else, depth+1)
		}
		return appendLine(dst, depth, "END-IF.\n")
	case PerformUntil:
		dst = AppendExpr(append(dst, "PERFORM UNTIL "...), s.Cond)
		return appendBody(append(dst, '\n'), s.Body, depth, "END-PERFORM.\n")
	case Stop:
		dst = append(dst, "STOP"...)
	case Move:
		dst = AppendExpr(append(dst, "MOVE "...), s.E)
		dst = appendStrings(dst, " TO ", s.Field, " IN ", s.Record)
	case FindAny:
		dst = appendUsing(appendStrings(dst, "FIND ANY ", s.Record), s.Using)
	case FindDup:
		dst = appendUsing(appendStrings(dst, "FIND DUPLICATE ", s.Record), s.Using)
	case FindInSet:
		dst = appendStrings(dst, "FIND ", s.Dir, " ", s.Record, " WITHIN ", s.Set)
		dst = appendUsing(dst, s.Using)
	case FindOwner:
		dst = appendStrings(dst, "FIND OWNER WITHIN ", s.Set)
	case GetRec:
		dst = appendStrings(dst, "GET ", s.Record)
	case StoreRec:
		dst = appendStrings(dst, "STORE ", s.Record)
	case ModifyRec:
		dst = appendUsing(appendStrings(dst, "MODIFY ", s.Record), s.Using)
	case EraseRec:
		dst = appendStrings(dst, "ERASE ", s.Record)
	case ConnectRec:
		dst = appendStrings(dst, "CONNECT ", s.Record, " TO ", s.Set)
	case DisconnectRec:
		dst = appendStrings(dst, "DISCONNECT ", s.Record, " FROM ", s.Set)
	case MFind:
		if s.Sort != nil {
			dst = s.Sort.AppendTo(dst)
		} else {
			dst = s.Find.AppendTo(dst)
		}
		dst = appendStrings(dst, " INTO ", s.Coll)
	case ForEach:
		dst = appendStrings(dst, "FOR EACH ", s.Var, " IN ", s.Coll, "\n")
		return appendBody(dst, s.Body, depth, "END-FOR.\n")
	case MDelete:
		dst = appendStrings(dst, "DELETE ", s.Coll)
	case MModify:
		dst = appendAssigns(appendStrings(dst, "MODIFY ", s.Coll, " SET ("), s.Assigns)
		dst = append(dst, ')')
	case MStore:
		dst = appendAssigns(appendStrings(dst, "STORE ", s.Record, " ("), s.Assigns)
		dst = append(dst, ')')
		// Owners render in set-name order; the names sort in a stack
		// array for the usual one or two owners.
		var arr [4]string
		sets := arr[:0]
		for set := range s.Owners {
			sets = append(sets, set)
		}
		slices.Sort(sets)
		for i, set := range sets {
			if i == 0 {
				dst = appendLine(append(dst, '\n'), depth+1, "VIA ")
			} else {
				dst = append(dst, ", "...)
			}
			dst = s.Owners[set].AppendTo(appendStrings(dst, set, " = "))
		}
	case SqlForEach:
		// SEQUEL statements render through their own fmt.Stringers.
		dst = fmt.Appendf(dst, "FOR EACH %s IN (%s)\n", s.Var, s.Query)
		return appendBody(dst, s.Body, depth, "END-FOR.\n")
	case SqlExec:
		dst = fmt.Appendf(dst, "%s", s.Stmt)
	case DLIGet:
		dst = appendSSAs(append(dst, s.Func...), s.SSAs)
	case DLIInsert:
		dst = appendAssigns(appendStrings(dst, "ISRT ", s.Record, " ("), s.Assigns)
		dst = append(dst, ')')
		if len(s.Under) > 0 {
			dst = appendSSAs(append(dst, " UNDER"...), s.Under)
		}
	case DLIDelete:
		dst = append(dst, "DLET"...)
	case DLIRepl:
		dst = appendAssigns(append(dst, "REPL ("...), s.Assigns)
		dst = append(dst, ')')
	default:
		return fmt.Appendf(dst, "*> unformattable statement %T\n", st)
	}
	return append(dst, ".\n"...)
}

func appendExprList(dst []byte, args []Expr) []byte {
	for i, a := range args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = AppendExpr(dst, a)
	}
	return dst
}

// appendUsing renders a network FIND or MODIFY's " USING F1, F2", or
// nothing when the list is empty.
func appendUsing(dst []byte, using []string) []byte {
	for i, f := range using {
		if i == 0 {
			dst = append(dst, " USING "...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = append(dst, f...)
	}
	return dst
}

func appendAssigns(dst []byte, assigns []FieldAssign) []byte {
	for i, a := range assigns {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = AppendExpr(appendStrings(dst, a.Field, " = "), a.E)
	}
	return dst
}

// appendSSAs renders a DL/I call's " SEG, SEG(F op e)" list, or nothing
// when it is empty.
func appendSSAs(dst []byte, ssas []SSASpec) []byte {
	for i, s := range ssas {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		dst = append(dst, s.Segment...)
		if s.Field != "" {
			dst = AppendExpr(appendStrings(dst, "(", s.Field, " ", s.Op, " "), s.E)
			dst = append(dst, ')')
		}
	}
	return dst
}

// FormatExpr renders an expression, parenthesizing nested binaries so the
// output re-parses with identical structure.
func FormatExpr(e Expr) string {
	return string(AppendExpr(make([]byte, 0, 64), e))
}

// AppendExpr appends FormatExpr's rendering of e to dst.
func AppendExpr(dst []byte, e Expr) []byte {
	switch x := e.(type) {
	case Lit:
		return x.V.AppendLiteral(dst)
	case Var:
		return append(dst, x.Name...)
	case Field:
		return appendStrings(dst, x.Field, " IN ", x.Record)
	case StatusRef:
		return append(dst, "DB-STATUS"...)
	case RecordRef:
		return appendStrings(dst, "RECORD ", x.Record)
	case Bin:
		dst = appendOperand(dst, x.L)
		dst = appendStrings(dst, " ", x.Op, " ")
		return appendOperand(dst, x.R)
	case Un:
		if x.Op == "NOT" {
			dst = append(dst, "NOT "...)
		} else {
			dst = append(dst, "- "...)
		}
		return appendOperand(dst, x.E)
	}
	return fmt.Appendf(dst, "<%T>", e)
}

// appendOperand renders an operand of a unary or binary operator,
// parenthesizing nested operators.
func appendOperand(dst []byte, e Expr) []byte {
	switch e.(type) {
	case Bin, Un:
		dst = AppendExpr(append(dst, '('), e)
		return append(dst, ')')
	}
	return AppendExpr(dst, e)
}
