package value

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Record is a flat, mutable collection of named fields. Field names are
// case-sensitive and follow the paper's hyphenated 1979 convention
// (EMP-NAME, DIV-LOC). Lookup is by name; the declared order is preserved
// for rendering and for positional operations in the engines.
//
// The fields live in two parallel slices, names and vals, and a lookup
// scans names. The engines' record types have a handful of fields (the
// widest built-in one, COMPANY V1 EMP, has four), where a scan beats a
// hash and a record costs two slices instead of a map.
type Record struct {
	names []string
	vals  []Value // vals[i] is the value of names[i]
}

// NewRecord returns an empty record.
func NewRecord() *Record {
	return &Record{}
}

// NewRecordSize returns an empty record pre-sized for n fields, so hot
// paths that know the destination field count allocate exactly once.
func NewRecordSize(n int) *Record {
	return &Record{names: make([]string, 0, n), vals: make([]Value, 0, n)}
}

// FromPairs builds a record from alternating name, value arguments,
// which keeps test fixtures compact.
func FromPairs(pairs ...any) *Record {
	if len(pairs)%2 != 0 {
		panic("value.FromPairs: odd argument count")
	}
	r := NewRecordSize(len(pairs) / 2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("value.FromPairs: name %v is not a string", pairs[i]))
		}
		switch v := pairs[i+1].(type) {
		case Value:
			r.Set(name, v)
		case string:
			r.Set(name, Str(v))
		case int:
			r.Set(name, Of(int64(v)))
		case int64:
			r.Set(name, Of(v))
		case float64:
			r.Set(name, F(v))
		case bool:
			r.Set(name, B(v))
		case nil:
			r.Set(name, NullValue())
		default:
			panic(fmt.Sprintf("value.FromPairs: unsupported value %T", pairs[i+1]))
		}
	}
	return r
}

// index returns the position of the named field, or -1.
func (r *Record) index(name string) int {
	for i, n := range r.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Set stores a field, appending it to the declared order if new.
func (r *Record) Set(name string, v Value) {
	if i := r.index(name); i >= 0 {
		r.vals[i] = v
		return
	}
	r.names = append(r.names, name)
	r.vals = append(r.vals, v)
}

// Get returns the named field's value and whether the field exists.
func (r *Record) Get(name string) (Value, bool) {
	if i := r.index(name); i >= 0 {
		return r.vals[i], true
	}
	return Value{}, false
}

// MustGet returns the named field's value, or null if absent.
func (r *Record) MustGet(name string) Value {
	v, _ := r.Get(name)
	return v
}

// Has reports whether the field exists.
func (r *Record) Has(name string) bool { return r.index(name) >= 0 }

// Delete removes a field if present.
func (r *Record) Delete(name string) {
	if i := r.index(name); i >= 0 {
		r.deleteAt(i)
	}
}

// deleteAt removes the i'th field, keeping the order of the rest.
func (r *Record) deleteAt(i int) {
	last := len(r.names) - 1
	copy(r.names[i:], r.names[i+1:])
	copy(r.vals[i:], r.vals[i+1:])
	// Clear the tail: no aliasing, no pinned string.
	r.names[last] = ""
	r.vals[last] = Value{}
	r.names = r.names[:last]
	r.vals = r.vals[:last]
}

// Rename changes a field's name in place, preserving its position. If
// another field already has the new name, it is dropped: exactly one
// field named to remains, at from's position, holding from's value.
func (r *Record) Rename(from, to string) {
	i := r.index(from)
	if i < 0 || from == to {
		return
	}
	if j := r.index(to); j >= 0 {
		r.deleteAt(j)
		if j < i {
			i--
		}
	}
	r.names[i] = to
}

// Names returns the field names in declared order. The slice is shared;
// callers must not mutate it.
func (r *Record) Names() []string { return r.names }

// Len returns the number of fields.
func (r *Record) Len() int { return len(r.names) }

// Reset removes every field while keeping the allocated capacity, so
// hot paths can refill one record per call instead of allocating.
func (r *Record) Reset() {
	clear(r.names)
	clear(r.vals)
	r.names = r.names[:0]
	r.vals = r.vals[:0]
}

// CopyFrom resets r and refills it with o's fields in declared order,
// reusing r's allocated capacity — the pooled-buffer counterpart of
// Clone for loops that stage one record per iteration.
func (r *Record) CopyFrom(o *Record) {
	r.Reset()
	r.names = append(r.names, o.names...)
	r.vals = append(r.vals, o.vals...)
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	return &Record{
		names: append([]string(nil), r.names...),
		vals:  append([]Value(nil), r.vals...),
	}
}

// Project returns a new record holding only the given fields, in the
// given order. Missing fields project to null, matching how the engines
// surface absent virtual fields.
func (r *Record) Project(names []string) *Record {
	p := NewRecordSize(len(names))
	for _, n := range names {
		p.Set(n, r.MustGet(n))
	}
	return p
}

// Equal reports whether two records have the same fields (by name) with
// equal values. Declared order is not significant for equality.
func (r *Record) Equal(o *Record) bool {
	if len(r.names) != len(o.names) {
		return false
	}
	for i, n := range r.names {
		j := i // records of one type share the declared order
		if o.names[j] != n {
			if j = o.index(n); j < 0 {
				return false
			}
		}
		if !r.vals[i].Equal(o.vals[j]) {
			return false
		}
	}
	return true
}

// KeyOf returns the composite index key of the named fields: each
// field's Key form behind its byte length as a uvarint, so the lengths
// keep the parts apart, as in a fingerprint's layout. Records whose
// field values differ never share a key, whatever bytes their strings
// hold.
func (r *Record) KeyOf(names []string) string {
	var buf [64]byte
	b := buf[:0]
	for _, n := range names {
		k := r.MustGet(n).Key()
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
	}
	return string(b)
}

// String renders the record as NAME=value pairs in declared order,
// the form used in terminal output and conversion reports.
func (r *Record) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range r.names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", n, r.vals[i].String())
	}
	b.WriteByte('}')
	return b.String()
}

// CompareBy orders two records by the named fields, for set-key and SORT
// orderings, one field at a time by Value.Order.
func CompareBy(a, b *Record, fields []string) int {
	for _, f := range fields {
		if c := a.MustGet(f).Order(b.MustGet(f)); c != 0 {
			return c
		}
	}
	return 0
}

// SortRecords sorts records in place by the given fields ascending.
// The sort is stable so that engine insertion order breaks ties, which
// the CODASYL "order is significant" semantics (§3.2) depend on.
func SortRecords(recs []*Record, fields []string) {
	sort.SliceStable(recs, func(i, j int) bool {
		return CompareBy(recs[i], recs[j], fields) < 0
	})
}
