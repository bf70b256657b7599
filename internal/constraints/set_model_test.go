package constraints

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapSet is the reference model of Set: the map-backed representation it
// replaced, with every read sorting on demand.
type mapSet struct{ ml, cl map[Pair]bool }

func newMapSet() *mapSet { return &mapSet{ml: map[Pair]bool{}, cl: map[Pair]bool{}} }

func (m *mapSet) add(a, b int, mustLink bool) {
	if mustLink {
		m.ml[MakePair(a, b)] = true
	} else {
		m.cl[MakePair(a, b)] = true
	}
}

func (m *mapSet) clone() *mapSet {
	c := newMapSet()
	for p := range m.ml {
		c.ml[p] = true
	}
	for p := range m.cl {
		c.cl[p] = true
	}
	return c
}

func (m *mapSet) restrict(keep func(int) bool) *mapSet {
	c := newMapSet()
	for p := range m.ml {
		if keep(p.A) && keep(p.B) {
			c.ml[p] = true
		}
	}
	for p := range m.cl {
		if keep(p.A) && keep(p.B) {
			c.cl[p] = true
		}
	}
	return c
}

func sortedModelPairs(m map[Pair]bool) []Pair {
	out := make([]Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func (m *mapSet) constraints() []Constraint {
	out := []Constraint{}
	for _, p := range sortedModelPairs(m.ml) {
		out = append(out, Constraint{p, true})
	}
	for _, p := range sortedModelPairs(m.cl) {
		out = append(out, Constraint{p, false})
	}
	return out
}

func (m *mapSet) involved() []int {
	seen := map[int]bool{}
	for _, ps := range []map[Pair]bool{m.ml, m.cl} {
		for p := range ps {
			seen[p.A], seen[p.B] = true, true
		}
	}
	out := []int{}
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func (m *mapSet) conflicted() bool {
	for p := range m.ml {
		if m.cl[p] {
			return true
		}
	}
	return false
}

// closure is the brute-force transitive closure: must-link reachability
// by search, then every pair of objects in two components joined by a
// cannot-link. ok is false when a cannot-link joins one component.
func (m *mapSet) closure() (*mapSet, bool) {
	adj := map[int][]int{}
	objs := m.involved()
	for p := range m.ml {
		adj[p.A] = append(adj[p.A], p.B)
		adj[p.B] = append(adj[p.B], p.A)
	}
	comp := map[int]int{}
	for _, o := range objs {
		if _, done := comp[o]; done {
			continue
		}
		comp[o] = o
		stack := []int{o}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if _, done := comp[w]; !done {
					comp[w] = o
					stack = append(stack, w)
				}
			}
		}
	}
	joined := map[Pair]bool{}
	for p := range m.cl {
		if comp[p.A] == comp[p.B] {
			return nil, false
		}
		joined[MakePair(comp[p.A], comp[p.B])] = true
	}
	out := newMapSet()
	for i, a := range objs {
		for _, b := range objs[i+1:] {
			switch ca, cb := comp[a], comp[b]; {
			case ca == cb:
				out.ml[Pair{a, b}] = true
			case joined[MakePair(ca, cb)]:
				out.cl[Pair{a, b}] = true
			}
		}
	}
	return out, true
}

// checkAgainstModel compares every read of s with the model's.
func checkAgainstModel(t *testing.T, step int, s *Set, m *mapSet) {
	t.Helper()
	if got, want := s.Constraints(), m.constraints(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: Constraints = %v, want %v", step, got, want)
	}
	if got, want := s.MustLinks(), sortedModelPairs(m.ml); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: MustLinks = %v, want %v", step, got, want)
	}
	if got, want := s.CannotLinks(), sortedModelPairs(m.cl); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: CannotLinks = %v, want %v", step, got, want)
	}
	if ml, cl := s.MustLinks(), s.CannotLinks(); cap(ml) != len(ml) || cap(cl) != len(cl) {
		t.Fatalf("step %d: MustLinks/CannotLinks are not clipped", step)
	}
	if s.Len() != len(m.ml)+len(m.cl) || s.NumMustLink() != len(m.ml) || s.NumCannotLink() != len(m.cl) {
		t.Fatalf("step %d: counts %d/%d/%d, want %d/%d", step, s.Len(), s.NumMustLink(), s.NumCannotLink(), len(m.ml), len(m.cl))
	}
	if got, want := s.Involved(), m.involved(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: Involved = %v, want %v", step, got, want)
	}
	if got, want := s.Validate() != nil, m.conflicted(); got != want {
		t.Fatalf("step %d: Validate error = %v, want %v", step, got, want)
	}
	for a := 0; a < modelObjects; a++ {
		for b := a + 1; b < modelObjects; b++ {
			if s.HasMustLink(b, a) != m.ml[Pair{a, b}] || s.HasCannotLink(b, a) != m.cl[Pair{a, b}] {
				t.Fatalf("step %d: Has* disagrees on (%d,%d)", step, a, b)
			}
		}
	}
}

const modelObjects = 12

// TestConstraintSetMatchesMapModel drives Set and the map-based reference through
// the same random operation sequences: Add in any order and sense
// (duplicates and direct conflicts included), Clone, Restrict, Closure
// and every read after each step. Clones must stay independent of their
// source, and MustLinks/CannotLinks must be clipped so that appending to
// them never writes into the set's spare capacity.
func TestConstraintSetMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		s, m := NewSet(), newMapSet()
		var clones []*Set
		var cloneModels []*mapSet
		for step := 0; step < 40; step++ {
			switch op := r.Intn(9); {
			case op < 6:
				a, b := r.Intn(modelObjects), r.Intn(modelObjects)
				if a == b {
					continue
				}
				ml := r.Intn(3) > 0
				s.Add(a, b, ml)
				m.add(a, b, ml)
			case op == 6:
				clones = append(clones, s.Clone())
				cloneModels = append(cloneModels, m.clone())
			case op == 7:
				drop := r.Intn(modelObjects)
				keep := func(o int) bool { return o != drop && o%5 != drop%5 }
				s, m = s.Restrict(keep), m.restrict(keep)
			default:
				got, err := Closure(s)
				want, ok := m.closure()
				if (err == nil) != ok {
					t.Fatalf("trial %d step %d: Closure err = %v, model consistent = %v", trial, step, err, ok)
				}
				if ok {
					checkAgainstModel(t, step, got, want)
				}
			}
			checkAgainstModel(t, step, s, m)
		}
		for i := range clones {
			checkAgainstModel(t, -1, clones[i], cloneModels[i])
		}
	}
}

// Of, FromLabels and repeated Add build the same set from the same
// constraints, whatever their order and duplication.
func TestConstraintBulkBuildersMatchAdd(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 200; trial++ {
		idx := r.Perm(modelObjects)[:2+r.Intn(modelObjects-2)]
		y := make([]int, modelObjects)
		for i := range y {
			y[i] = r.Intn(3)
		}
		byAdd := NewSet()
		var cs []Constraint
		for i := range idx {
			for j := i + 1; j < len(idx); j++ {
				ml := y[idx[i]] == y[idx[j]]
				byAdd.Add(idx[j], idx[i], ml)
				cs = append(cs, Constraint{Pair{idx[j], idx[i]}, ml})
			}
		}
		r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		cs = append(cs, cs[:len(cs)/2]...)
		if got := FromLabels(idx, y).Constraints(); !reflect.DeepEqual(got, byAdd.Constraints()) {
			t.Fatalf("FromLabels = %v, want %v", got, byAdd.Constraints())
		}
		if got := Of(cs).Constraints(); !reflect.DeepEqual(got, byAdd.Constraints()) {
			t.Fatalf("Of = %v, want %v", got, byAdd.Constraints())
		}
	}
}
