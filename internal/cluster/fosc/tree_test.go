package fosc

import (
	"reflect"
	"sync"
	"testing"

	"cvcp/internal/cluster/hierarchy"
	"cvcp/internal/cluster/optics"
	"cvcp/internal/constraints"
	"cvcp/internal/stats"
)

// One prepared Tree, extracted from 16 goroutines at once with different
// constraint sets and configurations (run under -race in CI), must give
// every caller exactly what a fresh Extract on the same dendrogram gives:
// the Tree is read-only after Prepare.
func TestTreeSharedAcrossGoroutinesMatchesExtract(t *testing.T) {
	r := stats.NewRand(83)
	var x [][]float64
	var y []int
	for c := 0; c < 4; c++ {
		for i := 0; i < 20; i++ {
			x = append(x, []float64{float64(c)*6 + r.NormFloat64(), r.NormFloat64()})
			y = append(y, c)
		}
	}
	ord, err := optics.Run(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hierarchy.FromReachability(ord)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	cons := make([]*constraints.Set, goroutines)
	cfgs := make([]Config, goroutines)
	want := make([]*Result, goroutines)
	for g := range cons {
		idx := r.Perm(len(x))[:4+g]
		cons[g] = constraints.FromLabels(idx, y)
		if g%4 == 0 {
			cons[g] = nil // no constraints: the coarsest admissible solution
		}
		cfgs[g] = Config{MinClusterSize: 2 + g%5, AllowRootCluster: g%3 == 0}
		if want[g], err = Extract(d, cons[g], cfgs[g]); err != nil {
			t.Fatal(err)
		}
	}

	tree := Prepare(d)
	got := make([][]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				i := (g + rep) % goroutines
				res, err := tree.Extract(cons[i], cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], res)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for rep, res := range got[g] {
			i := (g + rep) % goroutines
			if !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("goroutine %d, set %d: shared tree gave %+v, fresh Extract %+v", g, i, res, want[i])
			}
		}
	}
}

func TestPrepareEmptyDendrogram(t *testing.T) {
	for _, d := range []*hierarchy.Dendrogram{nil, {}} {
		if _, err := Prepare(d).Extract(nil, Config{}); err == nil {
			t.Errorf("Prepare(%v).Extract: expected an error", d)
		}
	}
}
