package optics

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cvcp/internal/linalg"
)

// referenceRun is textbook OPTICS with ε = ∞, written for clarity rather
// than speed: core distances come from a fully sorted distance row, and
// the seed list is scanned linearly for the smallest reachability, lowest
// index first on ties — the tie-break the indexed heap implements.
func referenceRun(n, minPts int, dist func(i, j int) float64) *Result {
	core := make([]float64, n)
	for i := range core {
		if minPts > n {
			core[i] = math.Inf(1)
			continue
		}
		row := make([]float64, n)
		for j := range row {
			row[j] = dist(i, j)
		}
		sort.Float64s(row)
		core[i] = row[minPts-1]
	}
	processed := make([]bool, n)
	queued := make([]bool, n)
	key := make([]float64, n)
	res := &Result{Core: core}
	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		queued[start], key[start] = true, math.Inf(1)
		for {
			i := -1
			for j := 0; j < n; j++ {
				if queued[j] && (i < 0 || key[j] < key[i]) {
					i = j
				}
			}
			if i < 0 {
				break
			}
			queued[i] = false
			processed[i] = true
			res.Order = append(res.Order, i)
			res.Reach = append(res.Reach, key[i])
			if math.IsInf(core[i], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if processed[j] {
					continue
				}
				nr := math.Max(core[i], dist(i, j))
				if !queued[j] || nr < key[j] {
					queued[j], key[j] = true, nr
				}
			}
		}
	}
	return res
}

// tiedPoints draws n points on a small integer grid, so many pairwise
// distances tie exactly and some points coincide.
func tiedPoints(r *rand.Rand, n int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{float64(r.Intn(4)), float64(r.Intn(3)), float64(r.Intn(2))}
	}
	return x
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameResult(a, b *Result) bool {
	if len(a.Order) != len(b.Order) {
		return false
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return false
		}
	}
	return sameBits(a.Reach, b.Reach) && sameBits(a.Core, b.Core)
}

// Run and RunWithMatrix (every matrix layout) must reproduce the
// full-sort reference bit for bit at the MinPts edges — 1 (core distance
// 0), 2, n (the farthest neighbor), n+1 (no core objects) and a MinPts far
// beyond any allocatable size, which must cost nothing sized by MinPts —
// and in between, on data full of exactly tied distances.
func TestOpticsRunMatchesFullSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(40)
		x := tiedPoints(r, n)
		matrices := map[string]*linalg.DistMatrix{
			"square":      linalg.NewDistMatrix(x),
			"condensed":   linalg.NewDistMatrixCondensed(x),
			"condensed32": linalg.NewDistMatrixCondensed32(x),
		}
		for _, minPts := range []int{1, 2, 1 + r.Intn(n), n, n + 1, 1 << 50} {
			want := referenceRun(n, minPts, func(i, j int) float64 { return linalg.Dist(x[i], x[j]) })
			got, err := Run(x, minPts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("n=%d MinPts=%d: Run = %+v, reference %+v", n, minPts, got, want)
			}
			for name, dm := range matrices {
				want := referenceRun(n, minPts, dm.At)
				got, err := RunWithMatrix(dm, minPts)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Fatalf("n=%d MinPts=%d %s: RunWithMatrix = %+v, reference %+v", n, minPts, name, got, want)
				}
			}
		}
	}
}
