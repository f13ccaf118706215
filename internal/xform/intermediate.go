package xform

import (
	"fmt"

	"progconv/internal/schema"
	"progconv/internal/value"
)

// IntroduceIntermediate is the paper's Figure 4.2 → Figure 4.4
// transformation: a set OWNER→MEMBER is replaced by a chain
// OWNER→INTER→MEMBER, where the new intermediate record type is
// identified by a field lifted out of the member (DEPT, identified by
// DEPT-NAME, between DIV and EMP). The member keeps the lifted field and
// any owner-sourced virtuals as virtual fields through the new chain, so
// the logical member record is unchanged.
type IntroduceIntermediate struct {
	Set        string // the set to split (DIV-EMP)
	Inter      string // new intermediate record type (DEPT)
	GroupField string // member field identifying the intermediate (DEPT-NAME)
	Upper      string // new owner→intermediate set (DIV-DEPT)
	Lower      string // new intermediate→member set (DEPT-EMP)
}

// Name implements Transformation.
func (t IntroduceIntermediate) Name() string { return "introduce-intermediate" }

// Describe implements Transformation.
func (t IntroduceIntermediate) Describe() string {
	return fmt.Sprintf("set %s splits into %s → %s(%s) → %s", t.Set, t.Upper, t.Inter, t.GroupField, t.Lower)
}

// Invertible implements Transformation: the member's grouping value is
// recoverable from its intermediate owner, so the inverse mapping exists.
func (t IntroduceIntermediate) Invertible() bool { return true }

func (t IntroduceIntermediate) check(src *schema.Network) (*schema.SetType, *schema.RecordType, *schema.Field, error) {
	set := src.Set(t.Set)
	if set == nil {
		return nil, nil, nil, fmt.Errorf("no set type %s", t.Set)
	}
	if set.IsSystem() {
		return nil, nil, nil, fmt.Errorf("cannot split SYSTEM set %s", t.Set)
	}
	member := src.Record(set.Member)
	gf := member.Field(t.GroupField)
	if gf == nil {
		return nil, nil, nil, fmt.Errorf("member %s has no field %s", set.Member, t.GroupField)
	}
	if gf.Virtual != nil {
		return nil, nil, nil, fmt.Errorf("group field %s.%s is virtual", set.Member, t.GroupField)
	}
	if src.Record(t.Inter) != nil {
		return nil, nil, nil, fmt.Errorf("record type %s already exists", t.Inter)
	}
	if src.Set(t.Upper) != nil || src.Set(t.Lower) != nil {
		return nil, nil, nil, fmt.Errorf("set %s or %s already exists", t.Upper, t.Lower)
	}
	for _, k := range set.Keys {
		if k == t.GroupField {
			return nil, nil, nil, fmt.Errorf("group field %s is a key of set %s", t.GroupField, t.Set)
		}
	}
	return set, member, gf, nil
}

// ApplySchema implements Transformation.
func (t IntroduceIntermediate) ApplySchema(src *schema.Network) (*schema.Network, error) {
	set, member, gf, err := t.check(src)
	if err != nil {
		return nil, err
	}
	out := src.Clone()
	oldSet := out.Set(t.Set)

	// Build the intermediate record: the group field, plus a virtual
	// replica of every virtual the member sourced through the split set.
	inter := &schema.RecordType{Name: t.Inter, Fields: []schema.Field{
		{Name: t.GroupField, Kind: gf.Kind},
	}}
	newMember := out.Record(set.Member)
	for i := range newMember.Fields {
		f := &newMember.Fields[i]
		switch {
		case f.Name == t.GroupField:
			// The lifted field stays visible on the member as a virtual.
			f.Kind = value.Null
			f.Virtual = &schema.Virtual{ViaSet: t.Lower, Using: t.GroupField}
		case f.Virtual != nil && f.Virtual.ViaSet == t.Set:
			// Owner-sourced virtual: re-route through the chain, giving the
			// intermediate a pass-through virtual of the same name.
			if inter.Field(f.Virtual.Using) == nil {
				inter.Fields = append(inter.Fields, schema.Field{
					Name:    f.Virtual.Using,
					Virtual: &schema.Virtual{ViaSet: t.Upper, Using: f.Virtual.Using},
				})
			}
			f.Virtual = &schema.Virtual{ViaSet: t.Lower, Using: f.Virtual.Using}
		}
	}

	// Insert the intermediate record before the member, as Figure 4.4
	// draws it.
	var recs []*schema.RecordType
	for _, r := range out.Records {
		if r.Name == set.Member {
			recs = append(recs, inter)
		}
		recs = append(recs, r)
	}
	out.Records = recs

	// Replace the set with the chain.
	var sets []*schema.SetType
	for _, s := range out.Sets {
		if s.Name == t.Set {
			sets = append(sets,
				&schema.SetType{Name: t.Upper, Owner: set.Owner, Member: t.Inter,
					Keys: []string{t.GroupField}, Insertion: oldSet.Insertion, Retention: oldSet.Retention},
				&schema.SetType{Name: t.Lower, Owner: t.Inter, Member: set.Member,
					Keys: append([]string(nil), oldSet.Keys...), Insertion: oldSet.Insertion, Retention: oldSet.Retention})
			continue
		}
		sets = append(sets, s)
	}
	out.Sets = sets
	_ = member
	return out, out.Validate()
}

// dataFns implements Transformation: members are regrouped beneath
// intermediates created per (owner, group value), and the group field,
// now virtual through the chain, leaves the member's stored data.
func (t IntroduceIntermediate) dataFns() rebuildFns {
	return rebuildFns{split: &t, mapSet: func(s string) string {
		if s == t.Set {
			return t.Lower
		}
		return s
	}}
}

// Rewriter implements Transformation.
func (t IntroduceIntermediate) Rewriter(src *schema.Network) (*Rewriter, error) {
	set, _, _, err := t.check(src)
	if err != nil {
		return nil, err
	}
	r := NewRewriter()
	r.Splits[t.Set] = PathSplit{
		Upper:      t.Upper,
		Inter:      t.Inter,
		GroupField: t.GroupField,
		Lower:      t.Lower,
		Member:     set.Member,
		Owner:      set.Owner,
		OldKeys:    append([]string(nil), set.Keys...),
	}
	return r, nil
}

// CollapseIntermediate is the inverse transformation: the chain
// OWNER→INTER→MEMBER collapses back to a single set, the intermediate's
// identifying field returning to the member as a stored field.
type CollapseIntermediate struct {
	Upper      string // owner→intermediate set to remove
	Lower      string // intermediate→member set to remove
	GroupField string // intermediate field to push back down
	NewSet     string // restored owner→member set
}

// Name implements Transformation.
func (t CollapseIntermediate) Name() string { return "collapse-intermediate" }

// Describe implements Transformation.
func (t CollapseIntermediate) Describe() string {
	return fmt.Sprintf("chain %s/%s collapses into set %s, %s rejoining the member", t.Upper, t.Lower, t.NewSet, t.GroupField)
}

// Invertible implements Transformation.
func (t CollapseIntermediate) Invertible() bool { return true }

func (t CollapseIntermediate) check(src *schema.Network) (upper, lower *schema.SetType, err error) {
	upper = src.Set(t.Upper)
	lower = src.Set(t.Lower)
	if upper == nil || lower == nil {
		return nil, nil, fmt.Errorf("missing set %s or %s", t.Upper, t.Lower)
	}
	if upper.Member != lower.Owner {
		return nil, nil, fmt.Errorf("%s and %s do not chain", t.Upper, t.Lower)
	}
	inter := src.Record(upper.Member)
	if f := inter.Field(t.GroupField); f == nil || f.Virtual != nil {
		return nil, nil, fmt.Errorf("intermediate %s has no stored field %s", inter.Name, t.GroupField)
	}
	if src.Set(t.NewSet) != nil {
		return nil, nil, fmt.Errorf("set %s already exists", t.NewSet)
	}
	// The intermediate must participate in nothing else.
	for _, s := range src.Sets {
		if s.Name == t.Upper || s.Name == t.Lower {
			continue
		}
		if s.Owner == inter.Name || s.Member == inter.Name {
			return nil, nil, fmt.Errorf("intermediate %s participates in set %s", inter.Name, s.Name)
		}
	}
	return upper, lower, nil
}

// ApplySchema implements Transformation.
func (t CollapseIntermediate) ApplySchema(src *schema.Network) (*schema.Network, error) {
	upper, lower, err := t.check(src)
	if err != nil {
		return nil, err
	}
	interName := upper.Member
	out := src.Clone()
	interRec := out.Record(interName)
	member := out.Record(lower.Member)
	gf := interRec.Field(t.GroupField)

	for i := range member.Fields {
		f := &member.Fields[i]
		if f.Virtual == nil || f.Virtual.ViaSet != t.Lower {
			continue
		}
		if f.Virtual.Using == t.GroupField && f.Name == t.GroupField {
			// The lifted field comes back as stored.
			f.Virtual = nil
			f.Kind = gf.Kind
			continue
		}
		// Pass-through virtual: re-route directly through the new set if
		// the intermediate's source was itself a virtual via Upper.
		srcField := interRec.Field(f.Virtual.Using)
		if srcField != nil && srcField.Virtual != nil && srcField.Virtual.ViaSet == t.Upper {
			f.Virtual = &schema.Virtual{ViaSet: t.NewSet, Using: srcField.Virtual.Using}
		} else {
			return nil, fmt.Errorf("member virtual %s.%s cannot be re-routed", member.Name, f.Name)
		}
	}

	// Remove the intermediate record.
	var recs []*schema.RecordType
	for _, r := range out.Records {
		if r.Name != interName {
			recs = append(recs, r)
		}
	}
	out.Records = recs

	// Replace the chain with the restored set (keys from Lower).
	var sets []*schema.SetType
	replaced := false
	for _, s := range out.Sets {
		switch s.Name {
		case t.Upper:
			if !replaced {
				sets = append(sets, &schema.SetType{
					Name: t.NewSet, Owner: upper.Owner, Member: lower.Member,
					Keys: append([]string(nil), lower.Keys...), Insertion: lower.Insertion, Retention: lower.Retention})
				replaced = true
			}
		case t.Lower:
			// dropped
		default:
			sets = append(sets, s)
		}
	}
	out.Sets = sets
	return out, out.Validate()
}

// dataFns implements Transformation: the intermediates vanish and each
// member reattaches to its intermediate's owner through the restored
// set, the group field stored on the member again.
func (t CollapseIntermediate) dataFns() rebuildFns {
	return rebuildFns{merge: &t, mapSet: func(s string) string {
		if s == t.Lower {
			return t.NewSet
		}
		return s
	}}
}

// Rewriter implements Transformation.
func (t CollapseIntermediate) Rewriter(src *schema.Network) (*Rewriter, error) {
	upper, lower, err := t.check(src)
	if err != nil {
		return nil, err
	}
	r := NewRewriter()
	// A collapse merges two hops into one: expressed as set renames onto
	// the new set plus removal of the intermediate record step; the
	// converter recognizes the Merges entry.
	r.Merges = append(r.Merges, PathMerge{
		Upper:  t.Upper,
		Inter:  upper.Member,
		Lower:  t.Lower,
		NewSet: t.NewSet,
	})
	_ = lower
	return r, nil
}
