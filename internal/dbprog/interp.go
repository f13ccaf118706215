package dbprog

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"progconv/internal/hierstore"
	"progconv/internal/mdml"
	"progconv/internal/netstore"
	"progconv/internal/relstore"
	"progconv/internal/sequel"
	"progconv/internal/value"
)

// EventKind classifies a trace event.
type EventKind uint8

// Trace event kinds. The trace records exactly the behaviour the paper's
// §1.1 equivalence definition fixes: terminal messages and the series of
// reads and writes to non-database files.
const (
	Terminal EventKind = iota
	FileRead
	FileWrite
)

func (k EventKind) String() string {
	switch k {
	case Terminal:
		return "TERMINAL"
	case FileRead:
		return "READ"
	case FileWrite:
		return "WRITE"
	}
	return "?"
}

// Event is one observable input/output action.
type Event struct {
	Kind EventKind
	File string // empty for Terminal
	Text string
}

func (e Event) String() string {
	if e.Kind == Terminal {
		return "TERMINAL| " + e.Text
	}
	return fmt.Sprintf("%s %s| %s", e.Kind, e.File, e.Text)
}

// Trace is the observable behaviour of one program run.
type Trace struct {
	Events []Event
}

// String renders the trace one event per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Equal reports whether two traces are identical — the paper's
// operational test of a successful conversion.
func (t *Trace) Equal(o *Trace) bool {
	if len(t.Events) != len(o.Events) {
		return false
	}
	for i := range t.Events {
		if t.Events[i] != o.Events[i] {
			return false
		}
	}
	return true
}

// Config supplies a program run's database and non-database environment.
type Config struct {
	Net  *netstore.DB  // for Network and Maryland dialects
	Rel  *relstore.DB  // for the Sequel dialect
	Hier *hierstore.DB // for the DLI dialect

	TerminalInput []string            // lines consumed by ACCEPT
	Files         map[string][]string // initial contents of non-database files

	// MaxSteps bounds statement executions (0 = 1,000,000); programs with
	// runaway loops — hazardous corpus members — terminate with ErrSteps.
	MaxSteps int

	// Ctx, when non-nil, is polled periodically by the interpreter so a
	// canceled context aborts the run with ctx.Err(). The verifier uses
	// this to cancel the concurrent source/target runs together.
	Ctx context.Context
}

// ErrSteps reports that a run exceeded its statement budget.
var ErrSteps = errors.New("dbprog: statement budget exceeded")

// errStop unwinds the interpreter on STOP.
var errStop = errors.New("stop")

// Run executes the program and returns its observable trace. A non-nil
// error means the run aborted (usage error, step budget); the trace holds
// everything observed up to that point.
func Run(p *Program, cfg Config) (*Trace, error) {
	in := &interp{
		cfg:   cfg,
		trace: &Trace{},
		vars:  make(map[string]value.Value),
		bufs:  make(map[string]*value.Record),
	}
	in.maxSteps = cfg.MaxSteps
	if in.maxSteps == 0 {
		in.maxSteps = 1_000_000
	}
	switch p.Dialect {
	case Network:
		if cfg.Net == nil {
			return in.trace, fmt.Errorf("dbprog: %s: NETWORK dialect requires a network database", p.Name)
		}
		in.netSess = netstore.NewSession(cfg.Net)
	case Maryland:
		if cfg.Net == nil {
			return in.trace, fmt.Errorf("dbprog: %s: MARYLAND dialect requires a network database", p.Name)
		}
		in.mEval = mdml.NewEvaluator(cfg.Net)
	case Sequel:
		if cfg.Rel == nil {
			return in.trace, fmt.Errorf("dbprog: %s: SEQUEL dialect requires a relational database", p.Name)
		}
	case DLI:
		if cfg.Hier == nil {
			return in.trace, fmt.Errorf("dbprog: %s: DLI dialect requires a hierarchical database", p.Name)
		}
		in.hierSess = hierstore.NewSession(cfg.Hier)
	}
	in.files = make(map[string][]string, len(cfg.Files))
	for f, lines := range cfg.Files {
		in.files[f] = append([]string(nil), lines...)
	}
	in.fileCursor = make(map[string]int)
	err := in.execBlock(p.Stmts)
	if errors.Is(err, errStop) {
		err = nil
	}
	return in.trace, err
}

type interp struct {
	cfg   Config
	trace *Trace

	vars  map[string]value.Value
	bufs  map[string]*value.Record
	mColl map[string][]netstore.RecordID

	netSess  *netstore.Session
	hierSess *hierstore.Session
	mEval    *mdml.Evaluator

	termIn     int
	files      map[string][]string
	fileCursor map[string]int

	steps    int
	maxSteps int

	// matchBuf is the pooled FIND match record: one allocation per run
	// instead of one per FIND. Safe because netstore only reads a match
	// during the call.
	matchBuf *value.Record
}

func (in *interp) emit(e Event) { in.trace.Events = append(in.trace.Events, e) }

func (in *interp) execBlock(stmts []Stmt) error {
	for _, st := range stmts {
		if err := in.exec(st); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) exec(st Stmt) error {
	in.steps++
	if in.steps > in.maxSteps {
		return ErrSteps
	}
	if in.cfg.Ctx != nil && in.steps&255 == 0 {
		if err := in.cfg.Ctx.Err(); err != nil {
			return err
		}
	}
	switch s := st.(type) {
	case Let:
		v, err := in.eval(s.E)
		if err != nil {
			return err
		}
		in.vars[s.Var] = v
		return nil
	case Print:
		line, err := in.renderArgs(s.Args)
		if err != nil {
			return err
		}
		in.emit(Event{Kind: Terminal, Text: line})
		return nil
	case Accept:
		if in.termIn < len(in.cfg.TerminalInput) {
			in.vars[s.Var] = value.Str(in.cfg.TerminalInput[in.termIn])
			in.termIn++
		} else {
			in.vars[s.Var] = value.NullValue()
		}
		return nil
	case ReadFile:
		cur := in.fileCursor[s.File]
		lines := in.files[s.File]
		if cur < len(lines) {
			in.vars[s.Var] = value.Str(lines[cur])
			in.fileCursor[s.File] = cur + 1
			in.emit(Event{Kind: FileRead, File: s.File, Text: lines[cur]})
		} else {
			in.vars[s.Var] = value.NullValue()
			in.emit(Event{Kind: FileRead, File: s.File, Text: "<eof>"})
		}
		return nil
	case WriteFile:
		line, err := in.renderArgs(s.Args)
		if err != nil {
			return err
		}
		in.files[s.File] = append(in.files[s.File], line)
		in.emit(Event{Kind: FileWrite, File: s.File, Text: line})
		return nil
	case If:
		c, err := in.evalBool(s.Cond)
		if err != nil {
			return err
		}
		if c {
			return in.execBlock(s.Then)
		}
		return in.execBlock(s.Else)
	case PerformUntil:
		for {
			c, err := in.evalBool(s.Cond)
			if err != nil {
				return err
			}
			if c {
				return nil
			}
			if err := in.execBlock(s.Body); err != nil {
				return err
			}
			in.steps++
			if in.steps > in.maxSteps {
				return ErrSteps
			}
		}
	case Stop:
		return errStop
	case Move:
		return in.execMove(s)
	case FindAny:
		match, err := in.matchFromBuffer(s.Record, s.Using)
		if err != nil {
			return err
		}
		_, err = in.netSession().FindAny(s.Record, match)
		return err
	case FindDup:
		match, err := in.matchFromBuffer(s.Record, s.Using)
		if err != nil {
			return err
		}
		_, err = in.netSession().FindDuplicate(s.Record, match)
		return err
	case FindInSet:
		return in.execFindInSet(s)
	case FindOwner:
		_, err := in.netSession().FindOwner(s.Set)
		return err
	case GetRec:
		// GET refills the buffer in place; a failed GET leaves it as it
		// was, and makes none where there was none. Nothing holds the
		// buffer across statements: STORE and MODIFY copy it through
		// storedOnly, and FIND copies it into matchBuf.
		buf, ok := in.bufs[s.Record]
		if !ok {
			buf = value.NewRecord()
		}
		st, err := in.netSession().GetInto(s.Record, buf)
		if st == netstore.OK && err == nil {
			in.bufs[s.Record] = buf
		}
		return err
	case StoreRec:
		buf := in.buffer(s.Record)
		stored := in.storedOnly(s.Record, buf)
		_, _, err := in.netSession().Store(s.Record, stored)
		return err
	case ModifyRec:
		return in.execModifyRec(s)
	case EraseRec:
		_, err := in.netSession().Erase(s.Record)
		return err
	case ConnectRec:
		_, err := in.netSession().Connect(s.Set)
		return err
	case DisconnectRec:
		_, err := in.netSession().Disconnect(s.Set)
		return err
	case MFind:
		return in.execMFind(s)
	case ForEach:
		ids, ok := in.mColls()[s.Coll]
		if !ok {
			return fmt.Errorf("dbprog: unknown collection %s", s.Coll)
		}
		// One pooled record per loop execution (not per iteration): each
		// iteration overwrote the binding anyway, so refilling in place
		// is observationally identical. Nested loops get their own.
		rec := value.NewRecord()
		for _, id := range ids {
			if !in.cfg.Net.DataInto(id, rec) {
				continue
			}
			in.bufs[s.Var] = rec
			if err := in.execBlock(s.Body); err != nil {
				return err
			}
		}
		return nil
	case MDelete:
		ids, ok := in.mColls()[s.Coll]
		if !ok {
			return fmt.Errorf("dbprog: unknown collection %s", s.Coll)
		}
		_, err := in.mEvaluator().Delete(ids)
		return err
	case MModify:
		return in.execMModify(s)
	case MStore:
		return in.execMStore(s)
	case SqlForEach:
		return in.execSqlForEach(s)
	case SqlExec:
		return in.execSqlExec(s)
	case DLIGet:
		return in.execDLIGet(s)
	case DLIInsert:
		return in.execDLIInsert(s)
	case DLIDelete:
		in.hierSess.DLET()
		return nil
	case DLIRepl:
		rec, err := in.assignsToRecord(s.Assigns)
		if err != nil {
			return err
		}
		in.hierSess.REPL(rec)
		return nil
	}
	return fmt.Errorf("dbprog: unhandled statement %T", st)
}

func (in *interp) netSession() *netstore.Session { return in.netSess }

func (in *interp) mEvaluator() *mdml.Evaluator { return in.mEval }

func (in *interp) mColls() map[string][]netstore.RecordID {
	if in.mColl == nil {
		in.mColl = make(map[string][]netstore.RecordID)
	}
	return in.mColl
}

// buffer returns (creating if needed) the UWA buffer for a record type.
func (in *interp) buffer(rec string) *value.Record {
	b, ok := in.bufs[rec]
	if !ok {
		b = value.NewRecord()
		in.bufs[rec] = b
	}
	return b
}

// storedOnly projects a buffer down to the record type's stored fields,
// so a buffer filled by GET (including virtuals) can be fed back to STORE.
func (in *interp) storedOnly(recType string, buf *value.Record) *value.Record {
	if in.cfg.Net == nil {
		return buf
	}
	rt := in.cfg.Net.Schema().Record(recType)
	if rt == nil {
		return buf
	}
	out := value.NewRecordSize(len(rt.Fields))
	for _, f := range rt.Fields {
		if f.Virtual != nil {
			continue
		}
		if v, ok := buf.Get(f.Name); ok {
			out.Set(f.Name, v)
		}
	}
	return out
}

func (in *interp) execMove(s Move) error {
	v, err := in.eval(s.E)
	if err != nil {
		return err
	}
	in.buffer(s.Record).Set(s.Field, v)
	return nil
}

// matchFromBuffer builds the FIND match record: the USING fields of the
// buffer, or every non-null buffer field when USING is absent.
func (in *interp) matchFromBuffer(rec string, using []string) (*value.Record, error) {
	buf := in.buffer(rec)
	if in.matchBuf == nil {
		in.matchBuf = value.NewRecord()
	}
	match := in.matchBuf
	match.Reset()
	if len(using) == 0 {
		for _, n := range buf.Names() {
			if v := buf.MustGet(n); !v.IsNull() {
				match.Set(n, v)
			}
		}
		return match, nil
	}
	for _, f := range using {
		v, ok := buf.Get(f)
		if !ok {
			return nil, fmt.Errorf("dbprog: USING field %s not set in %s buffer", f, rec)
		}
		match.Set(f, v)
	}
	return match, nil
}

func (in *interp) execFindInSet(s FindInSet) error {
	match, err := in.matchFromBuffer(s.Record, s.Using)
	if err != nil {
		return err
	}
	if len(s.Using) == 0 {
		match = nil // positional FIND NEXT has no qualification
	}
	var dir netstore.Direction
	switch s.Dir {
	case "FIRST":
		dir = netstore.First
	case "LAST":
		dir = netstore.Last
	case "NEXT":
		dir = netstore.Next
	case "PRIOR":
		dir = netstore.Prior
	default:
		return fmt.Errorf("dbprog: bad FIND direction %s", s.Dir)
	}
	_, err = in.netSession().FindInSet(s.Set, dir, match)
	return err
}

func (in *interp) execModifyRec(s ModifyRec) error {
	buf := in.buffer(s.Record)
	var rec *value.Record
	if len(s.Using) == 0 {
		rec = in.storedOnly(s.Record, buf)
	} else {
		rec = value.NewRecord()
		for _, f := range s.Using {
			v, ok := buf.Get(f)
			if !ok {
				return fmt.Errorf("dbprog: USING field %s not set in %s buffer", f, s.Record)
			}
			rec.Set(f, v)
		}
	}
	_, err := in.netSession().Modify(s.Record, rec)
	return err
}

func (in *interp) execMFind(s MFind) error {
	ev := in.mEvaluator()
	ev.Params = in.scalarParams()
	var ids []netstore.RecordID
	var err error
	if s.Sort != nil {
		ids, err = ev.EvalSort(s.Sort)
	} else {
		ids, err = ev.Eval(s.Find)
	}
	if err != nil {
		return err
	}
	in.mColls()[s.Coll] = ids
	ev.Collections[s.Coll] = ids
	return nil
}

func (in *interp) execMModify(s MModify) error {
	ids, ok := in.mColls()[s.Coll]
	if !ok {
		return fmt.Errorf("dbprog: unknown collection %s", s.Coll)
	}
	rec, err := in.assignsToRecord(s.Assigns)
	if err != nil {
		return err
	}
	_, err = in.mEvaluator().Modify(ids, rec)
	return err
}

func (in *interp) execMStore(s MStore) error {
	rec, err := in.assignsToRecord(s.Assigns)
	if err != nil {
		return err
	}
	ev := in.mEvaluator()
	ev.Params = in.scalarParams()
	_, err = ev.Store(s.Record, rec, s.Owners)
	return err
}

func (in *interp) assignsToRecord(assigns []FieldAssign) (*value.Record, error) {
	rec := value.NewRecordSize(len(assigns))
	for _, a := range assigns {
		v, err := in.eval(a.E)
		if err != nil {
			return nil, err
		}
		rec.Set(a.Field, v)
	}
	return rec, nil
}

// scalarParams snapshots the host variables for :NAME parameter binding.
func (in *interp) scalarParams() map[string]value.Value {
	out := make(map[string]value.Value, len(in.vars))
	for k, v := range in.vars {
		out[k] = v
	}
	return out
}

func (in *interp) execSqlForEach(s SqlForEach) error {
	rows, err := sequel.Exec(in.cfg.Rel, s.Query, sequel.Params(in.scalarParams()))
	if err != nil {
		return err
	}
	for _, row := range rows {
		in.bufs[s.Var] = row
		if err := in.execBlock(s.Body); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) execSqlExec(s SqlExec) error {
	params := sequel.Params(in.scalarParams())
	switch stmt := s.Stmt.(type) {
	case *sequel.Insert:
		return sequel.ExecInsert(in.cfg.Rel, stmt, params)
	case *sequel.Delete:
		_, err := sequel.ExecDelete(in.cfg.Rel, stmt, params)
		return err
	case *sequel.Update:
		_, err := sequel.ExecUpdate(in.cfg.Rel, stmt, params)
		return err
	}
	return fmt.Errorf("dbprog: unsupported SQL statement %T", s.Stmt)
}

func (in *interp) ssas(specs []SSASpec) ([]hierstore.SSA, error) {
	out := make([]hierstore.SSA, len(specs))
	for i, sp := range specs {
		if sp.Field == "" {
			out[i] = hierstore.U(sp.Segment)
			continue
		}
		v, err := in.eval(sp.E)
		if err != nil {
			return nil, err
		}
		var op hierstore.CompareOp
		switch sp.Op {
		case "=":
			op = hierstore.EQ
		case "<>":
			op = hierstore.NE
		case "<":
			op = hierstore.LT
		case "<=":
			op = hierstore.LE
		case ">":
			op = hierstore.GT
		case ">=":
			op = hierstore.GE_
		default:
			return nil, fmt.Errorf("dbprog: bad SSA operator %q", sp.Op)
		}
		out[i] = hierstore.Q(sp.Segment, sp.Field, op, v)
	}
	return out, nil
}

func (in *interp) execDLIGet(s DLIGet) error {
	ssas, err := in.ssas(s.SSAs)
	if err != nil {
		return err
	}
	var rec *value.Record
	var st hierstore.Status
	switch s.Func {
	case "GU":
		rec, st = in.hierSess.GU(ssas...)
	case "GN":
		rec, st = in.hierSess.GN(ssas...)
	case "GNP":
		rec, st = in.hierSess.GNP(ssas...)
	default:
		return fmt.Errorf("dbprog: bad DL/I function %s", s.Func)
	}
	if st == hierstore.OK {
		segType := in.cfg.Hier.TypeOf(in.hierSess.Position())
		in.bufs[segType] = rec
	}
	return nil
}

func (in *interp) execDLIInsert(s DLIInsert) error {
	rec, err := in.assignsToRecord(s.Assigns)
	if err != nil {
		return err
	}
	path, err := in.ssas(s.Under)
	if err != nil {
		return err
	}
	path = append(path, hierstore.U(s.Record))
	in.hierSess.ISRT(rec, path...)
	return nil
}

func (in *interp) renderArgs(args []Expr) (string, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		v, err := in.eval(a)
		if err != nil {
			return "", err
		}
		parts[i] = v.String()
	}
	return strings.Join(parts, " "), nil
}

// ---- expression evaluation ----

func (in *interp) eval(e Expr) (value.Value, error) {
	switch x := e.(type) {
	case Lit:
		return x.V, nil
	case Var:
		v, ok := in.vars[x.Name]
		if !ok {
			return value.Value{}, fmt.Errorf("dbprog: unknown variable %s", x.Name)
		}
		return v, nil
	case Field:
		buf, ok := in.bufs[x.Record]
		if !ok {
			return value.Value{}, fmt.Errorf("dbprog: no record buffer %s", x.Record)
		}
		v, ok := buf.Get(x.Field)
		if !ok {
			return value.Value{}, fmt.Errorf("dbprog: buffer %s has no field %s", x.Record, x.Field)
		}
		return v, nil
	case StatusRef:
		return value.Str(in.statusString()), nil
	case RecordRef:
		buf, ok := in.bufs[x.Record]
		if !ok {
			return value.Value{}, fmt.Errorf("dbprog: no record buffer %s", x.Record)
		}
		return value.Str(buf.String()), nil
	case Bin:
		return in.evalBin(x)
	case Un:
		v, err := in.eval(x.E)
		if err != nil {
			return value.Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.Kind() != value.Bool {
				return value.Value{}, fmt.Errorf("dbprog: NOT requires a boolean")
			}
			return value.B(!v.AsBool()), nil
		case "-":
			switch v.Kind() {
			case value.Int:
				return value.Of(-v.AsInt()), nil
			case value.Float:
				return value.F(-v.AsFloat()), nil
			}
			return value.Value{}, fmt.Errorf("dbprog: negation requires a number")
		}
		return value.Value{}, fmt.Errorf("dbprog: bad unary operator %q", x.Op)
	}
	return value.Value{}, fmt.Errorf("dbprog: unhandled expression %T", e)
}

func (in *interp) statusString() string {
	switch {
	case in.netSess != nil:
		return in.netSess.Status().String()
	case in.hierSess != nil:
		return in.hierSess.Status().String()
	default:
		return "OK"
	}
}

func (in *interp) evalBin(x Bin) (value.Value, error) {
	switch x.Op {
	case "AND", "OR":
		l, err := in.eval(x.L)
		if err != nil {
			return value.Value{}, err
		}
		if l.Kind() != value.Bool {
			return value.Value{}, fmt.Errorf("dbprog: %s requires booleans", x.Op)
		}
		// Short-circuit.
		if x.Op == "AND" && !l.AsBool() {
			return value.B(false), nil
		}
		if x.Op == "OR" && l.AsBool() {
			return value.B(true), nil
		}
		r, err := in.eval(x.R)
		if err != nil {
			return value.Value{}, err
		}
		if r.Kind() != value.Bool {
			return value.Value{}, fmt.Errorf("dbprog: %s requires booleans", x.Op)
		}
		return r, nil
	}
	l, err := in.eval(x.L)
	if err != nil {
		return value.Value{}, err
	}
	r, err := in.eval(x.R)
	if err != nil {
		return value.Value{}, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, ok := l.Compare(r)
		if !ok {
			return value.Value{}, fmt.Errorf("dbprog: cannot compare %v and %v", l.Kind(), r.Kind())
		}
		var res bool
		switch x.Op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return value.B(res), nil
	case "+":
		if l.Kind() == value.String && r.Kind() == value.String {
			return value.Str(l.AsString() + r.AsString()), nil
		}
		fallthrough
	case "-", "*", "/":
		if !isNumeric(l) || !isNumeric(r) {
			return value.Value{}, fmt.Errorf("dbprog: %q requires numbers", x.Op)
		}
		if l.Kind() == value.Float || r.Kind() == value.Float {
			a, b := l.AsFloat(), r.AsFloat()
			switch x.Op {
			case "+":
				return value.F(a + b), nil
			case "-":
				return value.F(a - b), nil
			case "*":
				return value.F(a * b), nil
			case "/":
				if b == 0 {
					return value.Value{}, fmt.Errorf("dbprog: division by zero")
				}
				return value.F(a / b), nil
			}
		}
		a, b := l.AsInt(), r.AsInt()
		switch x.Op {
		case "+":
			return value.Of(a + b), nil
		case "-":
			return value.Of(a - b), nil
		case "*":
			return value.Of(a * b), nil
		case "/":
			if b == 0 {
				return value.Value{}, fmt.Errorf("dbprog: division by zero")
			}
			return value.Of(a / b), nil
		}
	}
	return value.Value{}, fmt.Errorf("dbprog: bad operator %q", x.Op)
}

func isNumeric(v value.Value) bool {
	return v.Kind() == value.Int || v.Kind() == value.Float
}

func (in *interp) evalBool(e Expr) (bool, error) {
	v, err := in.eval(e)
	if err != nil {
		return false, err
	}
	if v.Kind() != value.Bool {
		return false, fmt.Errorf("dbprog: condition is not a boolean")
	}
	return v.AsBool(), nil
}
