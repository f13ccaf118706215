package wire

import (
	"strconv"
	"sync"
	"unicode/utf8"
)

// The append-only JSON primitives behind AppendEvent and the report
// writer. They reproduce what encoding/json emits for the wire types —
// its string escaping, and the layout of an Encoder with
// SetIndent("", "  ") — without reflection or a second indent pass.

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it with HTML escaping on: '"' and '\\' take a
// backslash, \b \f \n \r \t their short forms, other control bytes and
// '<', '>', '&' a \u00XX form, U+2028 and U+2029 become \u2028 and \u2029,
// and each byte of invalid UTF-8 becomes \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// indentWriter appends a JSON document laid out as encoding/json's
// Encoder with SetIndent("", "  ") lays it out: each member of an
// object or array on its own line two spaces deeper than its parent,
// "key": value with one space, and an empty object or array as {} or
// []. Keys are written verbatim, so they must need no escaping.
type indentWriter struct {
	b     []byte
	depth int
	// empty is whether the innermost open object or array has no
	// member yet.
	empty bool
}

func (w *indentWriter) newline() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, "  "...)
	}
}

// next starts the next member of the innermost open object or array.
func (w *indentWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// open starts an object ('{') or array ('[') at the current position.
func (w *indentWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost open object ('}') or array (']').
func (w *indentWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.empty = false
	w.b = append(w.b, c)
}

// key starts an object member named k.
func (w *indentWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, `": `...)
}

func (w *indentWriter) str(k, v string) {
	w.key(k)
	w.b = appendString(w.b, v)
}

// strOmit writes a string member tagged omitempty: nothing when v is
// empty.
func (w *indentWriter) strOmit(k, v string) {
	if v != "" {
		w.str(k, v)
	}
}

func (w *indentWriter) int(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *indentWriter) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

// strings writes a []string member tagged omitempty.
func (w *indentWriter) strings(k string, vs []string) {
	if len(vs) == 0 {
		return
	}
	w.key(k)
	w.open('[')
	for _, v := range vs {
		w.next()
		w.b = appendString(w.b, v)
	}
	w.close(']')
}

// maxPooled bounds the buffers returned to bufPool. A report document
// runs to a few hundred KB, so the bound is larger than the program
// writer's, yet one huge document still does not pin its buffer for
// the life of the process.
const maxPooled = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// getBuf takes an empty buffer from the pool.
func getBuf() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// putBuf returns b, the grown form of the buffer bp held, to the pool.
func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooled {
		*bp = b
		bufPool.Put(bp)
	}
}
