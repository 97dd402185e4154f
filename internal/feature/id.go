package feature

import (
	"fmt"
	"math/bits"
	"sort"
)

// ID is a feature's dense index in the table: names[id] is its name.
type ID uint16

// setWords is the number of 64-bit words a Set needs for every ID.
const setWords = (NumIDs + 63) / 64

// Set is a set of features: a fixed-width bitset over IDs. The zero
// value is the empty set, and a Set is a plain value, so assigning one
// copies it.
type Set [setWords]uint64

// Name returns the feature's canonical name.
func Name(id ID) string { return names[id] }

// Lookup returns the ID of a feature name, if the table has it. It is a
// binary search over the sorted table: no map is built.
func Lookup(name string) (ID, bool) {
	i := sort.SearchStrings(names[:], name)
	if i < NumIDs && names[i] == name {
		return ID(i), true
	}
	return 0, false
}

// UnknownError reports a feature name that is not in the table.
type UnknownError struct{ Name string }

func (e *UnknownError) Error() string { return fmt.Sprintf("unknown feature %q", e.Name) }

// MustLookup returns the ID of a name the table must hold; it panics
// otherwise, so it suits only names written in the program.
func MustLookup(name string) ID {
	id, ok := Lookup(name)
	if !ok {
		panic(&UnknownError{Name: name})
	}
	return id
}

// SetOf returns the set of the named features; a name outside the table
// is an error that names it.
func SetOf(names []string) (Set, error) {
	var s Set
	for _, n := range names {
		id, ok := Lookup(n)
		if !ok {
			return Set{}, &UnknownError{Name: n}
		}
		s.Add(id)
	}
	return s, nil
}

// KnownSetOf returns the set of the named features that are in the
// table, ignoring any other name.
func KnownSetOf(names []string) Set {
	var s Set
	for _, n := range names {
		if id, ok := Lookup(n); ok {
			s.Add(id)
		}
	}
	return s
}

// FuncArgID is FuncArg by ID: the composite feature for argument pos
// (1..MaxFuncArgPos) of function fn having data type typ (TypeBooleanID,
// TypeIntegerID or TypeTextID). Each scalar function's composites follow
// it in the table, positions in order and types in name order.
func FuncArgID(fn ID, pos int, typ ID) ID {
	t := 0
	switch typ {
	case TypeIntegerID:
		t = 1
	case TypeTextID:
		t = 2
	}
	return fn + 1 + ID((pos-1)*3+t)
}

// IndexWidthID is IndexWidth by ID, for widths 1..MaxIndexWidth: the
// width features follow CREATE INDEX in the table.
func IndexWidthID(n int) ID {
	if n < 1 || n > MaxIndexWidth {
		panic(fmt.Sprintf("feature: index width %d outside 1..%d", n, MaxIndexWidth))
	}
	return StmtCreateIndexID + ID(n)
}

// Add puts id in the set.
func (s *Set) Add(id ID) { s[id>>6] |= 1 << (id & 63) }

// Remove takes id out of the set.
func (s *Set) Remove(id ID) { s[id>>6] &^= 1 << (id & 63) }

// Has reports whether id is in the set.
func (s *Set) Has(id ID) bool { return s[id>>6]&(1<<(id&63)) != 0 }

// AddAll puts every listed ID in the set.
func (s *Set) AddAll(ids []ID) {
	for _, id := range ids {
		s.Add(id)
	}
}

// Union adds every member of o to s.
func (s *Set) Union(o *Set) {
	for i := range s {
		s[i] |= o[i]
	}
}

// Intersect keeps only the members of s that are also in o.
func (s *Set) Intersect(o *Set) {
	for i := range s {
		s[i] &= o[i]
	}
}

// Subtract removes every member of o from s.
func (s *Set) Subtract(o *Set) {
	for i := range s {
		s[i] &^= o[i]
	}
}

// SubsetOf reports whether every member of s is in o (s &^ o == 0).
func (s *Set) SubsetOf(o *Set) bool {
	for i := range s {
		if s[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no member.
func (s *Set) Empty() bool { return *s == Set{} }

// Len returns the number of members.
func (s *Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member that is at least from, if any.
// Members come in ID order, which is name order:
//
//	for id, ok := s.Next(0); ok; id, ok = s.Next(id + 1) { ... }
func (s *Set) Next(from ID) (ID, bool) {
	i := int(from >> 6)
	if i >= setWords {
		return 0, false
	}
	w := s[i] >> (from & 63) << (from & 63)
	for {
		if w != 0 {
			return ID(i<<6 + bits.TrailingZeros64(w)), true
		}
		i++
		if i == setWords {
			return 0, false
		}
		w = s[i]
	}
}

// Names returns the members' names, sorted.
func (s *Set) Names() []string {
	out := make([]string, 0, s.Len())
	for id, ok := s.Next(0); ok; id, ok = s.Next(id + 1) {
		out = append(out, names[id])
	}
	return out
}
