package dbprog

import (
	"fmt"
	"sort"
	"strings"

	"progconv/internal/mdml"
	"progconv/internal/value"
)

// OracleFormat is the fmt-based Program Generator that AppendFormat
// replaced, kept as test code so the appending writer is checked against
// a reference written separately from it. The statement and expression
// printers are the old ones with their names prefixed; the Maryland
// FIND/SORT and literal renderings, which the old code reached through
// mdml's and value's String methods, are the old method bodies below,
// because those methods now wrap the new append forms. The external
// tests (FuzzFormatOracle, TestFormatMatchesOracle) call it by this
// exported name.
func OracleFormat(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM %s DIALECT %s.\n", p.Name, p.Dialect)
	oracleFormatBlock(&b, p.Stmts, 1)
	b.WriteString("END PROGRAM.\n")
	return b.String()
}

func oracleIndent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func oracleFormatBlock(b *strings.Builder, stmts []Stmt, depth int) {
	for _, s := range stmts {
		oracleFormatStmt(b, s, depth)
	}
}

func oracleFormatStmt(b *strings.Builder, st Stmt, depth int) {
	oracleIndent(b, depth)
	switch s := st.(type) {
	case Let:
		fmt.Fprintf(b, "LET %s = %s.\n", s.Var, oracleFormatExpr(s.E))
	case Print:
		fmt.Fprintf(b, "PRINT %s.\n", oracleFormatExprList(s.Args))
	case Accept:
		fmt.Fprintf(b, "ACCEPT %s.\n", s.Var)
	case ReadFile:
		fmt.Fprintf(b, "READ '%s' INTO %s.\n", s.File, s.Var)
	case WriteFile:
		fmt.Fprintf(b, "WRITE '%s' %s.\n", s.File, oracleFormatExprList(s.Args))
	case If:
		fmt.Fprintf(b, "IF %s\n", oracleFormatExpr(s.Cond))
		oracleFormatBlock(b, s.Then, depth+1)
		if len(s.Else) > 0 {
			oracleIndent(b, depth)
			b.WriteString("ELSE\n")
			oracleFormatBlock(b, s.Else, depth+1)
		}
		oracleIndent(b, depth)
		b.WriteString("END-IF.\n")
	case PerformUntil:
		fmt.Fprintf(b, "PERFORM UNTIL %s\n", oracleFormatExpr(s.Cond))
		oracleFormatBlock(b, s.Body, depth+1)
		oracleIndent(b, depth)
		b.WriteString("END-PERFORM.\n")
	case Stop:
		b.WriteString("STOP.\n")
	case Move:
		fmt.Fprintf(b, "MOVE %s TO %s IN %s.\n", oracleFormatExpr(s.E), s.Field, s.Record)
	case FindAny:
		fmt.Fprintf(b, "FIND ANY %s%s.\n", s.Record, oracleUsingSuffix(s.Using))
	case FindDup:
		fmt.Fprintf(b, "FIND DUPLICATE %s%s.\n", s.Record, oracleUsingSuffix(s.Using))
	case FindInSet:
		fmt.Fprintf(b, "FIND %s %s WITHIN %s%s.\n", s.Dir, s.Record, s.Set, oracleUsingSuffix(s.Using))
	case FindOwner:
		fmt.Fprintf(b, "FIND OWNER WITHIN %s.\n", s.Set)
	case GetRec:
		fmt.Fprintf(b, "GET %s.\n", s.Record)
	case StoreRec:
		fmt.Fprintf(b, "STORE %s.\n", s.Record)
	case ModifyRec:
		fmt.Fprintf(b, "MODIFY %s%s.\n", s.Record, oracleUsingSuffix(s.Using))
	case EraseRec:
		fmt.Fprintf(b, "ERASE %s.\n", s.Record)
	case ConnectRec:
		fmt.Fprintf(b, "CONNECT %s TO %s.\n", s.Record, s.Set)
	case DisconnectRec:
		fmt.Fprintf(b, "DISCONNECT %s FROM %s.\n", s.Record, s.Set)
	case MFind:
		if s.Sort != nil {
			fmt.Fprintf(b, "%s INTO %s.\n", oracleSort(s.Sort), s.Coll)
		} else {
			fmt.Fprintf(b, "%s INTO %s.\n", oracleFind(s.Find), s.Coll)
		}
	case ForEach:
		fmt.Fprintf(b, "FOR EACH %s IN %s\n", s.Var, s.Coll)
		oracleFormatBlock(b, s.Body, depth+1)
		oracleIndent(b, depth)
		b.WriteString("END-FOR.\n")
	case MDelete:
		fmt.Fprintf(b, "DELETE %s.\n", s.Coll)
	case MModify:
		fmt.Fprintf(b, "MODIFY %s SET (%s).\n", s.Coll, oracleFormatAssigns(s.Assigns))
	case MStore:
		fmt.Fprintf(b, "STORE %s (%s)", s.Record, oracleFormatAssigns(s.Assigns))
		sets := make([]string, 0, len(s.Owners))
		for set := range s.Owners {
			sets = append(sets, set)
		}
		sort.Strings(sets)
		for i, set := range sets {
			if i == 0 {
				b.WriteString("\n")
				oracleIndent(b, depth+1)
				b.WriteString("VIA ")
			} else {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s = %s", set, oracleFind(s.Owners[set]))
		}
		b.WriteString(".\n")
	case SqlForEach:
		fmt.Fprintf(b, "FOR EACH %s IN (%s)\n", s.Var, s.Query)
		oracleFormatBlock(b, s.Body, depth+1)
		oracleIndent(b, depth)
		b.WriteString("END-FOR.\n")
	case SqlExec:
		fmt.Fprintf(b, "%s.\n", s.Stmt)
	case DLIGet:
		fmt.Fprintf(b, "%s%s.\n", s.Func, oracleSSASuffix(s.SSAs))
	case DLIInsert:
		fmt.Fprintf(b, "ISRT %s (%s)", s.Record, oracleFormatAssigns(s.Assigns))
		if len(s.Under) > 0 {
			fmt.Fprintf(b, " UNDER%s", oracleSSASuffix(s.Under))
		}
		b.WriteString(".\n")
	case DLIDelete:
		b.WriteString("DLET.\n")
	case DLIRepl:
		fmt.Fprintf(b, "REPL (%s).\n", oracleFormatAssigns(s.Assigns))
	default:
		fmt.Fprintf(b, "*> unformattable statement %T\n", st)
	}
}

func oracleFormatExprList(args []Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = oracleFormatExpr(a)
	}
	return strings.Join(parts, ", ")
}

func oracleUsingSuffix(using []string) string {
	if len(using) == 0 {
		return ""
	}
	return " USING " + strings.Join(using, ", ")
}

func oracleFormatAssigns(assigns []FieldAssign) string {
	parts := make([]string, len(assigns))
	for i, a := range assigns {
		parts[i] = fmt.Sprintf("%s = %s", a.Field, oracleFormatExpr(a.E))
	}
	return strings.Join(parts, ", ")
}

func oracleSSASuffix(ssas []SSASpec) string {
	if len(ssas) == 0 {
		return ""
	}
	parts := make([]string, len(ssas))
	for i, s := range ssas {
		if s.Field == "" {
			parts[i] = s.Segment
		} else {
			parts[i] = fmt.Sprintf("%s(%s %s %s)", s.Segment, s.Field, s.Op, oracleFormatExpr(s.E))
		}
	}
	return " " + strings.Join(parts, ", ")
}

func oracleFormatExpr(e Expr) string {
	switch x := e.(type) {
	case Lit:
		return oracleLiteral(x.V)
	case Var:
		return x.Name
	case Field:
		return fmt.Sprintf("%s IN %s", x.Field, x.Record)
	case StatusRef:
		return "DB-STATUS"
	case RecordRef:
		return "RECORD " + x.Record
	case Bin:
		l, r := oracleFormatExpr(x.L), oracleFormatExpr(x.R)
		if oracleNeedsParens(x.L) {
			l = "(" + l + ")"
		}
		if oracleNeedsParens(x.R) {
			r = "(" + r + ")"
		}
		return fmt.Sprintf("%s %s %s", l, x.Op, r)
	case Un:
		inner := oracleFormatExpr(x.E)
		if oracleNeedsParens(x.E) {
			inner = "(" + inner + ")"
		}
		if x.Op == "NOT" {
			return "NOT " + inner
		}
		return "- " + inner
	}
	return fmt.Sprintf("<%T>", e)
}

func oracleNeedsParens(e Expr) bool {
	switch e.(type) {
	case Bin, Un:
		return true
	}
	return false
}

// oracleLiteral is the old value.Value.Literal.
func oracleLiteral(v value.Value) string {
	if v.Kind() == value.String {
		return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
	}
	return v.String()
}

// oracleQual is the old String of mdml's Cmp, And, Or and Not.
func oracleQual(q mdml.Qual) string {
	switch c := q.(type) {
	case mdml.Cmp:
		if c.Param != "" {
			return fmt.Sprintf("%s %s :%s", c.Field, c.Op, c.Param)
		}
		return fmt.Sprintf("%s %s %s", c.Field, c.Op, oracleLiteral(c.Lit))
	case mdml.And:
		return fmt.Sprintf("(%s AND %s)", oracleQual(c.L), oracleQual(c.R))
	case mdml.Or:
		return fmt.Sprintf("(%s OR %s)", oracleQual(c.L), oracleQual(c.R))
	case mdml.Not:
		return fmt.Sprintf("(NOT %s)", oracleQual(c.Q))
	}
	return fmt.Sprintf("%s", q)
}

// oracleStep is the old mdml.Step.String.
func oracleStep(s mdml.Step) string {
	switch s.Kind {
	case mdml.SystemStep:
		return "SYSTEM"
	case mdml.CollectionStep:
		return "@" + s.Name
	case mdml.SetStep:
		return s.Name
	default:
		if s.Qual != nil {
			return fmt.Sprintf("%s(%s)", s.Name, oracleQual(s.Qual))
		}
		return s.Name
	}
}

// oracleFind is the old (*mdml.Find).String, with fmt's rendering of a
// nil pointer.
func oracleFind(f *mdml.Find) string {
	if f == nil {
		return "<nil>"
	}
	parts := make([]string, len(f.Steps))
	for i, s := range f.Steps {
		parts[i] = oracleStep(s)
	}
	return fmt.Sprintf("FIND(%s: %s)", f.Target, strings.Join(parts, ", "))
}

// oracleSort is the old (*mdml.Sort).String.
func oracleSort(s *mdml.Sort) string {
	return fmt.Sprintf("SORT(%s) ON (%s)", oracleFind(s.Inner), strings.Join(s.On, ", "))
}
