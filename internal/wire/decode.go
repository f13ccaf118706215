package wire

import (
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeJobSpec decodes a job submission body in one pass, without
// reflection. It accepts exactly the bodies that
// json.NewDecoder(bytes.NewReader(body)).Decode(&spec) accepts and
// yields the same spec for them (the oracle tests and FuzzJobSpec hold
// it to that):
//
//   - one top-level value after JSON whitespace, an object or null
//     (the zero spec); the bytes after it are not read;
//   - a key matches a field's name exactly, else under Unicode simple
//     folding ("SOURCE_DDL"); an unknown key's value is skipped but
//     still syntax-checked, to encoding/json's nesting limit;
//   - null leaves a field as it is, except programs, which it sets to
//     nil;
//   - a repeated key overwrites a scalar, and decodes programs and
//     options into the value already there: an element or member the
//     repeat leaves out keeps its earlier value, and an array shorter
//     than the one before truncates it;
//   - integers reject fractions, exponents and overflow;
//   - in strings, invalid UTF-8 and unpaired surrogate escapes become
//     U+FFFD, pairs combine, and raw control bytes are rejected.
//
// Only the error text differs from encoding/json's.
func DecodeJobSpec(body []byte) (JobSpec, error) {
	d := decoder{buf: body}
	var spec JobSpec
	var err error
	switch d.peek() {
	case 0:
		if d.pos == len(d.buf) {
			return JobSpec{}, io.EOF
		}
		err = d.syntax("looking for beginning of value")
	case '{':
		err = d.object(specFields, func(name string) error { return d.specField(&spec, name) })
	case 'n':
		err = d.literal("null")
	default:
		err = d.mismatch("job", "object")
	}
	if err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// The field names of each decoded type.
var (
	specFields    = []string{"v", "model", "source_ddl", "target_ddl", "programs", "options"}
	programFields = []string{"source"}
	optionFields  = []string{"parallelism", "migrate_parallel", "accept_order", "timeout",
		"stage_timeout", "analyst_timeout", "retries", "on_failure", "fail_on", "verify_init",
		"deadline", "inject"}
)

func (d *decoder) specField(spec *JobSpec, name string) error {
	switch name {
	case "v":
		return d.intField(&spec.V, "v")
	case "model":
		return d.stringField(&spec.Model, "model")
	case "source_ddl":
		return d.stringField(&spec.SourceDDL, "source_ddl")
	case "target_ddl":
		return d.stringField(&spec.TargetDDL, "target_ddl")
	case "programs":
		return d.programs(&spec.Programs)
	}
	switch d.cur() {
	case 'n':
		return d.literal("null")
	case '{':
		o := &spec.Options
		return d.object(optionFields, func(name string) error { return d.optionField(o, name) })
	}
	return d.mismatch("options", "object")
}

// programs decodes into the slice already there, as encoding/json
// does: element i decodes into the existing element while there is
// one, the slice then grows (reusing its spare capacity, stale
// elements included), and it ends truncated to the array's length. An
// empty array leaves a fresh empty slice.
func (d *decoder) programs(dst *[]ProgramSpec) error {
	switch d.cur() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.mismatch("programs", "array")
	}
	progs, n := *dst, 0
	err := d.array(func() error {
		if n == len(progs) {
			if n < cap(progs) {
				progs = progs[:n+1]
			} else {
				progs = append(progs, ProgramSpec{})
			}
		}
		n++
		p := &progs[n-1]
		switch d.cur() {
		case 'n':
			return d.literal("null")
		case '{':
			return d.object(programFields, func(string) error { return d.stringField(&p.Source, "programs[].source") })
		}
		return d.mismatch("programs[]", "object")
	})
	if err != nil {
		return err
	}
	if n == 0 {
		progs = []ProgramSpec{}
	}
	*dst = progs[:n]
	return nil
}

func (d *decoder) optionField(o *JobOptions, name string) error {
	switch name {
	case "parallelism":
		return d.intField(&o.Parallelism, "options.parallelism")
	case "migrate_parallel":
		return d.intField(&o.MigrateParallel, "options.migrate_parallel")
	case "accept_order":
		return d.boolField(&o.AcceptOrder, "options.accept_order")
	case "timeout":
		return d.stringField(&o.Timeout, "options.timeout")
	case "stage_timeout":
		return d.stringField(&o.StageTimeout, "options.stage_timeout")
	case "analyst_timeout":
		return d.stringField(&o.AnalystTimeout, "options.analyst_timeout")
	case "retries":
		return d.intField(&o.Retries, "options.retries")
	case "on_failure":
		return d.stringField(&o.OnFailure, "options.on_failure")
	case "fail_on":
		return d.stringField(&o.FailOn, "options.fail_on")
	case "verify_init":
		return d.stringField(&o.VerifyInit, "options.verify_init")
	case "deadline":
		return d.stringField(&o.Deadline, "options.deadline")
	}
	return d.stringField(&o.Inject, "options.inject")
}

// maxDepth is encoding/json's nesting limit: the top-level object is
// depth 1, and an object or array 10,001 deep is a syntax error.
const maxDepth = 10000

// decoder walks one body. Every value method starts with pos at the
// value's first byte, whitespace already skipped, and leaves pos just
// past the value.
type decoder struct {
	buf   []byte
	pos   int
	depth int
	// scratch holds the decoded bytes of the last string that needed
	// decoding, reused from string to string.
	scratch []byte
}

// cur returns the byte at pos, or 0 at the end of the body.
func (d *decoder) cur() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// peek skips JSON whitespace and returns cur.
func (d *decoder) peek() byte {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return d.buf[d.pos]
		}
	}
	return 0
}

// syntax reports the byte at pos as a syntax error, or the body's end
// as an unexpected one.
func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", rune(d.buf[d.pos]), context, d.pos)
}

// mismatch reports the value at pos as the wrong type for the field
// named name, when a value starts there at all.
func (d *decoder) mismatch(name, want string) error {
	var found string
	switch c := d.cur(); {
	case c == '{':
		found = "object"
	case c == '[':
		found = "array"
	case c == '"':
		found = "string"
	case c == 't' || c == 'f':
		found = "bool"
	case c == '-' || '0' <= c && c <= '9':
		found = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s, which takes %s (offset %d)", found, name, want, d.pos)
}

func (d *decoder) push() error {
	d.depth++
	if d.depth > maxDepth {
		return fmt.Errorf("exceeded max depth (offset %d)", d.pos)
	}
	return nil
}

// object decodes the object at pos. For each member whose key matches
// one of names it calls field with that name, pos at the value; a key
// no name matches has its value skipped.
func (d *decoder) object(names []string, field func(string) error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.pos++
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.lit()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		d.peek()
		if name := match(key, names); name != "" {
			err = field(name)
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// match returns the name key selects: an exact match, else the name
// equal to it under Unicode simple folding (the names are pairwise
// distinct under folding), else "".
func match(key []byte, names []string) string {
	for _, name := range names {
		if string(key) == name {
			return name
		}
	}
	for _, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return name
		}
	}
	return ""
}

// array decodes the array at pos, calling elem with pos at each
// element.
func (d *decoder) array(elem func() error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.pos++
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
			d.peek()
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// skip checks the syntax of the value at pos and steps over it.
func (d *decoder) skip() error {
	switch c := d.cur(); {
	case c == '{':
		return d.object(nil, nil)
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.lit()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}

// literal steps over word (true, false or null), which must be next.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.cur() != word[i] {
			return d.syntax("in literal " + word)
		}
		d.pos++
	}
	return nil
}

func (d *decoder) stringField(dst *string, name string) error {
	switch d.cur() {
	case '"':
		b, err := d.lit()
		if err != nil {
			return err
		}
		*dst = string(b)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(name, "string")
}

func (d *decoder) boolField(dst *bool, name string) error {
	switch d.cur() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(name, "bool")
}

// intField decodes an integer: a number with no fraction or exponent
// within int's range (strconv.ParseInt's, then reflect's OverflowInt),
// or null.
func (d *decoder) intField(dst *int, name string) error {
	switch c := d.cur(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
	default:
		return d.mismatch(name, "int")
	}
	start := d.pos
	text, integer, err := d.number()
	if err != nil {
		return err
	}
	if integer {
		neg := text[0] == '-'
		if neg {
			text = text[1:]
		}
		// The magnitude may reach 1<<63 (math.MinInt64) and is
		// checked before it can overflow uint64.
		const limit = uint64(1) << 63
		var n uint64
		for _, c := range text {
			if n > limit/10 {
				n = limit + 1
				break
			}
			n = n*10 + uint64(c-'0')
		}
		if neg && n <= limit || !neg && n < limit {
			v := int64(n)
			if neg {
				v = int64(-n)
			}
			if int64(int(v)) == v {
				*dst = int(v)
				return nil
			}
		}
	}
	return fmt.Errorf("cannot decode number %s into %s, which takes int (offset %d)", d.buf[start:d.pos], name, start)
}

// number steps over a JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text
// and whether it has neither fraction nor exponent.
func (d *decoder) number() (text []byte, integer bool, err error) {
	start := d.pos
	if d.cur() == '-' {
		d.pos++
	}
	switch c := d.cur(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, false, d.syntax("in numeric literal")
	}
	integer = true
	if d.cur() == '.' {
		integer = false
		d.pos++
		if c := d.cur(); c < '0' || c > '9' {
			return nil, false, d.syntax("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.cur(); c == 'e' || c == 'E' {
		integer = false
		d.pos++
		if c := d.cur(); c == '+' || c == '-' {
			d.pos++
		}
		if c := d.cur(); c < '0' || c > '9' {
			return nil, false, d.syntax("in exponent of numeric literal")
		}
		d.digits()
	}
	return d.buf[start:d.pos], integer, nil
}

func (d *decoder) digits() {
	for c := d.cur(); '0' <= c && c <= '9'; c = d.cur() {
		d.pos++
	}
}

// plain marks the bytes a string literal carries through unchanged:
// printable ASCII other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// lit steps over the string literal at pos and returns its decoded
// bytes: a slice of the body when the literal needs no decoding, else
// scratch, valid until the next call.
func (d *decoder) lit() ([]byte, error) {
	start := d.pos + 1
	for i := start; i < len(d.buf); {
		c := d.buf[i]
		if plain[c] {
			i++
			continue
		}
		if c == '"' {
			d.pos = i + 1
			return d.buf[start:i], nil
		}
		if c >= utf8.RuneSelf {
			if r, size := utf8.DecodeRune(d.buf[i:]); r != utf8.RuneError || size > 1 {
				i += size
				continue
			}
		}
		// An escape, a control byte or invalid UTF-8: decode the
		// rest into scratch.
		return d.decodeLit(start, i)
	}
	d.pos = len(d.buf)
	return nil, io.ErrUnexpectedEOF
}

// decodeLit finishes lit for a literal whose bytes from start to i
// were carried through unchanged, the way encoding/json unquotes one.
func (d *decoder) decodeLit(start, i int) ([]byte, error) {
	b := append(d.scratch[:0], d.buf[start:i]...)
	for i < len(d.buf) {
		c := d.buf[i]
		switch {
		case plain[c]:
			j := i + 1
			for j < len(d.buf) && plain[d.buf[j]] {
				j++
			}
			b = append(b, d.buf[i:j]...)
			i = j
		case c == '"':
			d.pos = i + 1
			d.scratch = b
			return b, nil
		case c == '\\':
			if i+1 == len(d.buf) {
				d.pos = i + 1
				return nil, io.ErrUnexpectedEOF
			}
			switch e := d.buf[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.buf[i+2:])
				if r < 0 {
					d.pos = i + 2
					for k := 0; k < 4 && isHex(d.cur()); k++ {
						d.pos++
					}
					return nil, d.syntax("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(d.buf) && d.buf[i] == '\\' && d.buf[i+1] == 'u' {
						r2 = hex4(d.buf[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						b = utf8.AppendRune(b, pair)
						i += 6
						continue
					}
					// A lone surrogate; the escape after it, if any,
					// decodes on its own.
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.syntax("in string escape code")
			}
			i += 2
		case c < ' ':
			d.pos = i
			return nil, d.syntax("in string literal")
		default:
			r, size := utf8.DecodeRune(d.buf[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.pos = len(d.buf)
	return nil, io.ErrUnexpectedEOF
}

// hex4 decodes the four hex digits that open b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
