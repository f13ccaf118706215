package xform

import (
	"fmt"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// ---- RenameRecord ----

// RenameRecord renames a record type.
type RenameRecord struct{ Old, New string }

// Name implements Transformation.
func (t RenameRecord) Name() string { return "rename-record" }

// Describe implements Transformation.
func (t RenameRecord) Describe() string { return fmt.Sprintf("record %s becomes %s", t.Old, t.New) }

// Invertible implements Transformation.
func (t RenameRecord) Invertible() bool { return true }

// ApplySchema implements Transformation.
func (t RenameRecord) ApplySchema(src *schema.Network) (*schema.Network, error) {
	if src.Record(t.Old) == nil {
		return nil, fmt.Errorf("no record type %s", t.Old)
	}
	if src.Record(t.New) != nil {
		return nil, fmt.Errorf("record type %s already exists", t.New)
	}
	out := src.Clone()
	out.Record(t.Old).Name = t.New
	for _, s := range out.Sets {
		if s.Owner == t.Old {
			s.Owner = t.New
		}
		if s.Member == t.Old {
			s.Member = t.New
		}
	}
	return out, out.Validate()
}

// dataFns implements Transformation.
func (t RenameRecord) dataFns() rebuildFns {
	return rebuildFns{mapType: func(s string) string {
		if s == t.Old {
			return t.New
		}
		return s
	}}
}

// Rewriter implements Transformation.
func (t RenameRecord) Rewriter(src *schema.Network) (*Rewriter, error) {
	r := NewRewriter()
	r.Record[t.Old] = t.New
	return r, nil
}

// ---- RenameField ----

// RenameField renames a field of a record type, updating set keys and
// virtual sources that mention it.
type RenameField struct{ Record, Old, New string }

// Name implements Transformation.
func (t RenameField) Name() string { return "rename-field" }

// Describe implements Transformation.
func (t RenameField) Describe() string {
	return fmt.Sprintf("%s.%s becomes %s", t.Record, t.Old, t.New)
}

// Invertible implements Transformation.
func (t RenameField) Invertible() bool { return true }

// ApplySchema implements Transformation.
func (t RenameField) ApplySchema(src *schema.Network) (*schema.Network, error) {
	rec := src.Record(t.Record)
	if rec == nil {
		return nil, fmt.Errorf("no record type %s", t.Record)
	}
	if rec.Field(t.Old) == nil {
		return nil, fmt.Errorf("%s has no field %s", t.Record, t.Old)
	}
	if rec.Field(t.New) != nil {
		return nil, fmt.Errorf("%s already has field %s", t.Record, t.New)
	}
	out := src.Clone()
	out.Record(t.Record).Field(t.Old).Name = t.New
	for _, s := range out.Sets {
		if s.Member == t.Record {
			for i, k := range s.Keys {
				if k == t.Old {
					s.Keys[i] = t.New
				}
			}
		}
	}
	for _, r := range out.Records {
		for i := range r.Fields {
			v := r.Fields[i].Virtual
			if v == nil {
				continue
			}
			set := out.Set(v.ViaSet)
			if set != nil && set.Owner == t.Record && v.Using == t.Old {
				v.Using = t.New
			}
		}
	}
	return out, out.Validate()
}

// dataFns implements Transformation.
func (t RenameField) dataFns() rebuildFns {
	return rebuildFns{mapData: func(typ string, data *value.Record) *value.Record {
		if typ == t.Record {
			data.Rename(t.Old, t.New)
		}
		return data
	}}
}

// Rewriter implements Transformation.
func (t RenameField) Rewriter(src *schema.Network) (*Rewriter, error) {
	r := NewRewriter()
	r.Field[[2]string{t.Record, t.Old}] = [2]string{t.Record, t.New}
	return r, nil
}

// ---- RenameSet ----

// RenameSet renames a set type.
type RenameSet struct{ Old, New string }

// Name implements Transformation.
func (t RenameSet) Name() string { return "rename-set" }

// Describe implements Transformation.
func (t RenameSet) Describe() string { return fmt.Sprintf("set %s becomes %s", t.Old, t.New) }

// Invertible implements Transformation.
func (t RenameSet) Invertible() bool { return true }

// ApplySchema implements Transformation.
func (t RenameSet) ApplySchema(src *schema.Network) (*schema.Network, error) {
	if src.Set(t.Old) == nil {
		return nil, fmt.Errorf("no set type %s", t.Old)
	}
	if src.Set(t.New) != nil {
		return nil, fmt.Errorf("set type %s already exists", t.New)
	}
	out := src.Clone()
	out.Set(t.Old).Name = t.New
	for _, r := range out.Records {
		for i := range r.Fields {
			if v := r.Fields[i].Virtual; v != nil && v.ViaSet == t.Old {
				v.ViaSet = t.New
			}
		}
	}
	return out, out.Validate()
}

// dataFns implements Transformation.
func (t RenameSet) dataFns() rebuildFns {
	return rebuildFns{mapSet: func(s string) string {
		if s == t.Old {
			return t.New
		}
		return s
	}}
}

// Rewriter implements Transformation.
func (t RenameSet) Rewriter(src *schema.Network) (*Rewriter, error) {
	r := NewRewriter()
	r.Set[t.Old] = t.New
	return r, nil
}

// ---- AddField ----

// AddField adds a stored field with a constant default. Its inverse is
// DropField, so it is invertible in Housel's sense only because the
// default carries no information.
type AddField struct {
	Record  string
	Field   string
	Kind    value.Kind
	Default value.Value
}

// Name implements Transformation.
func (t AddField) Name() string { return "add-field" }

// Describe implements Transformation.
func (t AddField) Describe() string {
	return fmt.Sprintf("%s gains field %s %v (default %s)", t.Record, t.Field, t.Kind, t.Default)
}

// Invertible implements Transformation.
func (t AddField) Invertible() bool { return true }

// ApplySchema implements Transformation.
func (t AddField) ApplySchema(src *schema.Network) (*schema.Network, error) {
	rec := src.Record(t.Record)
	if rec == nil {
		return nil, fmt.Errorf("no record type %s", t.Record)
	}
	if rec.Field(t.Field) != nil {
		return nil, fmt.Errorf("%s already has field %s", t.Record, t.Field)
	}
	out := src.Clone()
	r := out.Record(t.Record)
	r.Fields = append(r.Fields, schema.Field{Name: t.Field, Kind: t.Kind})
	return out, out.Validate()
}

// dataFns implements Transformation.
func (t AddField) dataFns() rebuildFns {
	return rebuildFns{mapData: func(typ string, data *value.Record) *value.Record {
		if typ == t.Record {
			data.Set(t.Field, t.Default)
		}
		return data
	}}
}

// Rewriter implements Transformation.
func (t AddField) Rewriter(src *schema.Network) (*Rewriter, error) {
	return NewRewriter(), nil
}

// ---- DropField ----

// DropField removes a stored field. Information is lost, so the
// transformation is not invertible and programs that reference the field
// cannot be converted (§2.2, Housel's restriction; §5.2's warning case).
type DropField struct{ Record, Field string }

// Name implements Transformation.
func (t DropField) Name() string { return "drop-field" }

// Describe implements Transformation.
func (t DropField) Describe() string { return fmt.Sprintf("%s loses field %s", t.Record, t.Field) }

// Invertible implements Transformation.
func (t DropField) Invertible() bool { return false }

// ApplySchema implements Transformation.
func (t DropField) ApplySchema(src *schema.Network) (*schema.Network, error) {
	rec := src.Record(t.Record)
	if rec == nil {
		return nil, fmt.Errorf("no record type %s", t.Record)
	}
	if rec.Field(t.Field) == nil {
		return nil, fmt.Errorf("%s has no field %s", t.Record, t.Field)
	}
	for _, s := range src.Sets {
		if s.Member == t.Record {
			for _, k := range s.Keys {
				if k == t.Field {
					return nil, fmt.Errorf("field %s.%s is a key of set %s", t.Record, t.Field, s.Name)
				}
			}
		}
	}
	for _, r := range src.Records {
		for i := range r.Fields {
			v := r.Fields[i].Virtual
			if v == nil {
				continue
			}
			set := src.Set(v.ViaSet)
			if set != nil && set.Owner == t.Record && v.Using == t.Field {
				return nil, fmt.Errorf("field %s.%s sources virtual %s.%s", t.Record, t.Field, r.Name, r.Fields[i].Name)
			}
		}
	}
	out := src.Clone()
	r := out.Record(t.Record)
	for i := range r.Fields {
		if r.Fields[i].Name == t.Field {
			r.Fields = append(r.Fields[:i], r.Fields[i+1:]...)
			break
		}
	}
	return out, out.Validate()
}

// dataFns implements Transformation.
func (t DropField) dataFns() rebuildFns {
	return rebuildFns{mapData: func(typ string, data *value.Record) *value.Record {
		if typ == t.Record {
			data.Delete(t.Field)
		}
		return data
	}}
}

// Rewriter implements Transformation.
func (t DropField) Rewriter(src *schema.Network) (*Rewriter, error) {
	r := NewRewriter()
	r.Dropped = append(r.Dropped, [2]string{t.Record, t.Field})
	return r, nil
}

// ---- ChangeSetKeys ----

// ChangeSetKeys changes a set's ordering keys. No information moves, but
// member enumeration order changes: the §3.2 order-dependence hazard in
// transformation form.
type ChangeSetKeys struct {
	Set  string
	Keys []string
}

// Name implements Transformation.
func (t ChangeSetKeys) Name() string { return "change-set-keys" }

// Describe implements Transformation.
func (t ChangeSetKeys) Describe() string {
	return fmt.Sprintf("set %s reordered on %v", t.Set, t.Keys)
}

// Invertible implements Transformation.
func (t ChangeSetKeys) Invertible() bool { return true }

// ApplySchema implements Transformation.
func (t ChangeSetKeys) ApplySchema(src *schema.Network) (*schema.Network, error) {
	if src.Set(t.Set) == nil {
		return nil, fmt.Errorf("no set type %s", t.Set)
	}
	out := src.Clone()
	out.Set(t.Set).Keys = append([]string(nil), t.Keys...)
	return out, out.Validate()
}

// dataFns implements Transformation: the reordering itself happens when
// the rebuild files members under the destination schema's keys, so the
// mapping is the identity.
func (t ChangeSetKeys) dataFns() rebuildFns { return rebuildFns{} }

// Rewriter implements Transformation.
func (t ChangeSetKeys) Rewriter(src *schema.Network) (*Rewriter, error) {
	r := NewRewriter()
	old := src.Set(t.Set)
	if old == nil {
		return nil, fmt.Errorf("no set type %s", t.Set)
	}
	r.OrderChanged[t.Set] = append([]string(nil), old.Keys...)
	return r, nil
}

// ---- ChangeRetention ----

// ChangeRetention flips a set's retention mode. The structure is
// untouched but behaviour changes (ERASE cascades appear or disappear),
// which is exactly the §5.2 "not strictly equivalent but desired"
// situation; the rewriter records it as a note.
type ChangeRetention struct {
	Set       string
	Retention schema.Retention
}

// Name implements Transformation.
func (t ChangeRetention) Name() string { return "change-retention" }

// Describe implements Transformation.
func (t ChangeRetention) Describe() string {
	return fmt.Sprintf("set %s retention becomes %v", t.Set, t.Retention)
}

// Invertible implements Transformation.
func (t ChangeRetention) Invertible() bool { return true }

// ApplySchema implements Transformation.
func (t ChangeRetention) ApplySchema(src *schema.Network) (*schema.Network, error) {
	if src.Set(t.Set) == nil {
		return nil, fmt.Errorf("no set type %s", t.Set)
	}
	out := src.Clone()
	out.Set(t.Set).Retention = t.Retention
	return out, out.Validate()
}

// dataFns implements Transformation: retention is schema-only, the data
// mapping is the identity.
func (t ChangeRetention) dataFns() rebuildFns { return rebuildFns{} }

// Rewriter implements Transformation.
func (t ChangeRetention) Rewriter(src *schema.Network) (*Rewriter, error) {
	r := NewRewriter()
	r.Notes = append(r.Notes, fmt.Sprintf(
		"set %s retention changed to %v: ERASE cascade behaviour differs; converted programs preserve I/O but not database side effects",
		t.Set, t.Retention))
	return r, nil
}
