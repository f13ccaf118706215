package value

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mapRecord is the map-backed Record the flat layout replaced, kept as
// test code: a names slice for the declared order beside a map from
// name to value. TestRecordMatchesMapOracle drives both with the same
// operations, so the flat record is checked against a reference written
// separately from it.
type mapRecord struct {
	names  []string
	fields map[string]Value
}

func newMapRecord() *mapRecord { return &mapRecord{fields: make(map[string]Value)} }

func (r *mapRecord) Set(name string, v Value) {
	if _, ok := r.fields[name]; !ok {
		r.names = append(r.names, name)
	}
	r.fields[name] = v
}

func (r *mapRecord) Get(name string) (Value, bool) {
	v, ok := r.fields[name]
	return v, ok
}

func (r *mapRecord) Delete(name string) {
	if _, ok := r.fields[name]; !ok {
		return
	}
	delete(r.fields, name)
	r.names = slices.DeleteFunc(r.names, func(n string) bool { return n == name })
}

// Rename is only driven with a new name that is absent or equal to the
// old one; TestRecordRename defines renaming onto an existing field.
func (r *mapRecord) Rename(from, to string) {
	v, ok := r.fields[from]
	if !ok {
		return
	}
	delete(r.fields, from)
	r.fields[to] = v
	for i, n := range r.names {
		if n == from {
			r.names[i] = to
			break
		}
	}
}

func (r *mapRecord) Reset() {
	r.names = r.names[:0]
	clear(r.fields)
}

func (r *mapRecord) CopyFrom(o *mapRecord) {
	r.Reset()
	for _, n := range o.names {
		r.names = append(r.names, n)
		r.fields[n] = o.fields[n]
	}
}

func (r *mapRecord) Clone() *mapRecord {
	c := &mapRecord{names: append([]string(nil), r.names...), fields: make(map[string]Value, len(r.fields))}
	for k, v := range r.fields {
		c.fields[k] = v
	}
	return c
}

func (r *mapRecord) Project(names []string) *mapRecord {
	p := newMapRecord()
	for _, n := range names {
		p.Set(n, r.fields[n])
	}
	return p
}

func (r *mapRecord) Equal(o *mapRecord) bool {
	if len(r.fields) != len(o.fields) {
		return false
	}
	for k, v := range r.fields {
		w, ok := o.fields[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

func (r *mapRecord) KeyOf(names []string) string {
	var b strings.Builder
	for _, n := range names {
		k := r.fields[n].Key()
		var l [binary.MaxVarintLen64]byte
		b.Write(l[:binary.PutUvarint(l[:], uint64(len(k)))])
		b.WriteString(k)
	}
	return b.String()
}

func (r *mapRecord) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range r.names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", n, r.fields[n].String())
	}
	b.WriteByte('}')
	return b.String()
}

func mapCompareBy(a, b *mapRecord, fields []string) int {
	for _, f := range fields {
		av, bv := a.fields[f], b.fields[f]
		if c, ok := av.Compare(bv); ok {
			if c != 0 {
				return c
			}
			continue
		}
		if c := strings.Compare(av.String(), bv.String()); c != 0 {
			return c
		}
	}
	return 0
}

// oracleNames is the differential test's alphabet: few enough names that
// sets, deletes and renames keep colliding with fields already there.
var oracleNames = []string{"A", "B", "C", "EMP-NAME", "AGE"}

// oracleValue draws from every kind, with repeats across kinds ("1" and
// 1, 1 and 1.0) so Equal, Key and CompareBy's String fallback all see
// incomparable and cross-kind pairs.
func oracleValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return NullValue()
	case 1:
		return Str([]string{"", "1", "x", "y"}[rng.Intn(4)])
	case 2:
		return Of(int64(rng.Intn(3)))
	case 3:
		return F([]float64{1, 1.5, -2}[rng.Intn(3)])
	case 4:
		return B(rng.Intn(2) == 0)
	}
	return Str("10")
}

// oracleSubset is a random list of alphabet names, possibly with repeats
// and possibly empty.
func oracleSubset(rng *rand.Rand) []string {
	out := make([]string, rng.Intn(4))
	for i := range out {
		out[i] = oracleNames[rng.Intn(len(oracleNames))]
	}
	return out
}

func TestRecordMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat := [2]*Record{NewRecord(), NewRecordSize(2)}
		orc := [2]*mapRecord{newMapRecord(), newMapRecord()}
		var log []string
		for step := 0; step < 150; step++ {
			i := rng.Intn(2) // the record the operation acts on
			o := 1 - i
			name := oracleNames[rng.Intn(len(oracleNames))]
			var op string
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				v := oracleValue(rng)
				op = fmt.Sprintf("r%d.Set(%s, %s)", i, name, v)
				flat[i].Set(name, v)
				orc[i].Set(name, v)
			case 4:
				op = fmt.Sprintf("r%d.Delete(%s)", i, name)
				flat[i].Delete(name)
				orc[i].Delete(name)
			case 5:
				to := oracleNames[rng.Intn(len(oracleNames))]
				if _, taken := orc[i].Get(to); taken && to != name {
					continue // a colliding rename; TestRecordRename defines it
				}
				op = fmt.Sprintf("r%d.Rename(%s, %s)", i, name, to)
				flat[i].Rename(name, to)
				orc[i].Rename(name, to)
			case 6:
				op = fmt.Sprintf("r%d.Reset()", i)
				flat[i].Reset()
				orc[i].Reset()
			case 7:
				op = fmt.Sprintf("r%d.CopyFrom(r%d)", i, o)
				flat[i].CopyFrom(flat[o])
				orc[i].CopyFrom(orc[o])
			case 8:
				// The clone replaces r[i] while r[o] lives on, so a clone
				// sharing storage with its origin shows up in later steps.
				op = fmt.Sprintf("r%d = r%d.Clone()", i, o)
				flat[i] = flat[o].Clone()
				orc[i] = orc[o].Clone()
			case 9:
				names := oracleSubset(rng)
				op = fmt.Sprintf("r%d = r%d.Project(%v)", i, o, names)
				flat[i] = flat[o].Project(names)
				orc[i] = orc[o].Project(names)
			}
			log = append(log, op)
			fields := oracleSubset(rng)
			for k := range flat {
				if err := agree(flat[k], orc[k], fields); err != nil {
					t.Fatalf("seed %d: r%d after %s: %v", seed, k, strings.Join(log, "; "), err)
				}
			}
			if got, want := flat[0].Equal(flat[1]), orc[0].Equal(orc[1]); got != want {
				t.Fatalf("seed %d: after %s: r0.Equal(r1) = %v, oracle %v", seed, strings.Join(log, "; "), got, want)
			}
			if got, want := CompareBy(flat[0], flat[1], fields), mapCompareBy(orc[0], orc[1], fields); got != want {
				t.Fatalf("seed %d: after %s: CompareBy(r0, r1, %v) = %d, oracle %d",
					seed, strings.Join(log, "; "), fields, got, want)
			}
		}
	}
}

// agree checks every read of the flat record against the oracle's.
func agree(r *Record, o *mapRecord, keyFields []string) error {
	for _, n := range oracleNames {
		v, ok := r.Get(n)
		w, wok := o.Get(n)
		if ok != wok || v != w {
			return fmt.Errorf("Get(%s) = %v,%v, oracle %v,%v", n, v, ok, w, wok)
		}
		if r.Has(n) != wok || r.MustGet(n) != w {
			return fmt.Errorf("Has/MustGet(%s) = %v/%v, oracle %v/%v", n, r.Has(n), r.MustGet(n), wok, w)
		}
	}
	if r.Len() != len(o.names) || !slices.Equal(r.Names(), o.names) {
		return fmt.Errorf("Len %d Names %v, oracle %d %v", r.Len(), r.Names(), len(o.names), o.names)
	}
	if r.String() != o.String() {
		return fmt.Errorf("String %s, oracle %s", r, o)
	}
	if r.KeyOf(keyFields) != o.KeyOf(keyFields) {
		return fmt.Errorf("KeyOf(%v) %q, oracle %q", keyFields, r.KeyOf(keyFields), o.KeyOf(keyFields))
	}
	return nil
}
