// Package constraints implements instance-level clustering constraints
// (must-link / cannot-link), their derivation from labeled objects, the
// transitive closure over the constraint graph, the paper's constraint pool,
// and the cross-validation fold construction of Section 3.1 that keeps
// training and test information independent.
package constraints

import (
	"cmp"
	"fmt"
	"slices"
)

// Pair is an unordered pair of object indices with A < B.
type Pair struct{ A, B int }

// MakePair normalizes (a, b) into a Pair with A < B. It panics when a == b:
// self-constraints are meaningless.
func MakePair(a, b int) Pair {
	switch {
	case a == b:
		panic(fmt.Sprintf("constraints: self-pair (%d,%d)", a, b))
	case a < b:
		return Pair{a, b}
	default:
		return Pair{b, a}
	}
}

// Constraint is a pairwise instance-level constraint. MustLink true means
// the two objects should share a cluster (class 1 in the paper's
// classification view); false means they should be separated (class 0).
type Constraint struct {
	Pair
	MustLink bool
}

// Set is a deduplicated collection of constraints, stored as canonical
// must-link and cannot-link slices sorted by (A, B). Sets built by Of,
// FromLabels, Closure, Restrict and Clone are sorted once at construction;
// reads never sort or allocate, so a set shared by concurrent grid cells is
// safe to read as long as nobody calls Add on it. The zero value is an
// empty set.
type Set struct {
	ml []Pair
	cl []Pair
}

// NewSet returns an empty constraint set.
func NewSet() *Set { return &Set{} }

// newSetOf returns the set of the given normalized pairs, sorting and
// deduplicating ml and cl in place.
func newSetOf(ml, cl []Pair) *Set {
	return &Set{ml: canonical(ml), cl: canonical(cl)}
}

func comparePairs(p, q Pair) int {
	if c := cmp.Compare(p.A, q.A); c != 0 {
		return c
	}
	return cmp.Compare(p.B, q.B)
}

func canonical(ps []Pair) []Pair {
	slices.SortFunc(ps, comparePairs)
	return slices.Compact(ps)
}

func hasPair(ps []Pair, p Pair) bool {
	_, ok := slices.BinarySearchFunc(ps, p, comparePairs)
	return ok
}

func insertPair(ps []Pair, p Pair) []Pair {
	i, ok := slices.BinarySearchFunc(ps, p, comparePairs)
	if ok {
		return ps
	}
	return slices.Insert(ps, i, p)
}

// Add inserts the constraint between a and b, keeping the set sorted.
// Adding the same pair with the opposite sense records a direct conflict,
// which Validate and Closure report; the later Add does not silently
// overwrite the earlier one. Each Add costs a binary search and a shift;
// bulk construction goes through Of.
func (s *Set) Add(a, b int, mustLink bool) {
	p := MakePair(a, b)
	if mustLink {
		s.ml = insertPair(s.ml, p)
	} else {
		s.cl = insertPair(s.cl, p)
	}
}

// AddConstraint inserts c.
func (s *Set) AddConstraint(c Constraint) { s.Add(c.A, c.B, c.MustLink) }

// Len returns the total number of constraints.
func (s *Set) Len() int { return len(s.ml) + len(s.cl) }

// NumMustLink returns the number of must-link constraints.
func (s *Set) NumMustLink() int { return len(s.ml) }

// NumCannotLink returns the number of cannot-link constraints.
func (s *Set) NumCannotLink() int { return len(s.cl) }

// HasMustLink reports whether the pair (a,b) is a must-link constraint.
func (s *Set) HasMustLink(a, b int) bool { return hasPair(s.ml, MakePair(a, b)) }

// HasCannotLink reports whether the pair (a,b) is a cannot-link constraint.
func (s *Set) HasCannotLink(a, b int) bool { return hasPair(s.cl, MakePair(a, b)) }

// Constraints returns all constraints in deterministic (sorted) order:
// must-links first, then cannot-links, each sorted by (A, B).
func (s *Set) Constraints() []Constraint {
	out := make([]Constraint, 0, s.Len())
	for _, p := range s.ml {
		out = append(out, Constraint{Pair: p, MustLink: true})
	}
	for _, p := range s.cl {
		out = append(out, Constraint{Pair: p, MustLink: false})
	}
	return out
}

// MustLinks returns the must-link pairs in sorted order. The slice is the
// set's own storage, clipped so that appending to it copies: callers must
// not modify its elements, and it is valid until the next Add.
func (s *Set) MustLinks() []Pair { return slices.Clip(s.ml) }

// CannotLinks returns the cannot-link pairs in sorted order, with the same
// read-only contract as MustLinks.
func (s *Set) CannotLinks() []Pair { return slices.Clip(s.cl) }

// Involved returns the sorted indices of all objects that appear in at least
// one constraint.
func (s *Set) Involved() []int {
	out := make([]int, 0, 2*s.Len())
	for _, ps := range [][]Pair{s.ml, s.cl} {
		for _, p := range ps {
			out = append(out, p.A, p.B)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	return &Set{ml: slices.Clone(s.ml), cl: slices.Clone(s.cl)}
}

// Validate reports an error if any pair is constrained both must-link and
// cannot-link; it names the smallest such pair.
func (s *Set) Validate() error {
	for i, j := 0, 0; i < len(s.ml) && j < len(s.cl); {
		switch c := comparePairs(s.ml[i], s.cl[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			p := s.ml[i]
			return fmt.Errorf("constraints: pair (%d,%d) is both must-link and cannot-link", p.A, p.B)
		}
	}
	return nil
}

// Restrict returns the subset of constraints whose endpoints are both in
// keep (given as a membership predicate over object indices).
func (s *Set) Restrict(keep func(int) bool) *Set {
	return &Set{ml: filterPairs(s.ml, keep), cl: filterPairs(s.cl, keep)}
}

func filterPairs(ps []Pair, keep func(int) bool) []Pair {
	var out []Pair
	for _, p := range ps {
		if keep(p.A) && keep(p.B) {
			out = append(out, p)
		}
	}
	return out
}

// FromLabels derives the full set of constraints among the given labeled
// objects: a must-link for every same-label pair and a cannot-link for every
// different-label pair (paper §3.1.1). y maps object index to class label.
func FromLabels(indices []int, y []int) *Set {
	var ml, cl []Pair
	for i := 0; i < len(indices); i++ {
		for j := i + 1; j < len(indices); j++ {
			a, b := indices[i], indices[j]
			if y[a] == y[b] {
				ml = append(ml, MakePair(a, b))
			} else {
				cl = append(cl, MakePair(a, b))
			}
		}
	}
	return newSetOf(ml, cl)
}

// Of returns the set of the given constraints, normalizing each pair with
// MakePair and sorting once — the bulk counterpart of repeated Add, which
// shifts the sorted slices on every insert.
func Of(cs []Constraint) *Set {
	var ml, cl []Pair
	for _, c := range cs {
		p := MakePair(c.A, c.B)
		if c.MustLink {
			ml = append(ml, p)
		} else {
			cl = append(cl, p)
		}
	}
	return newSetOf(ml, cl)
}
