package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSelIndex is the original construction: a stable sort of scan
// positions whose comparator recomputes both region weights.
func refSelIndex(insts []*instanceEntry) selIndex {
	n := len(insts)
	if n == 0 {
		return selIndex{}
	}
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		return regionWeight(insts[ord[a]].v) < regionWeight(insts[ord[b]].v)
	})
	idx := selIndex{keys: make([]float64, n), ents: make([]*instanceEntry, n), pos: ord}
	for i, p := range ord {
		idx.keys[i] = regionWeight(insts[p].v)
		idx.ents[i] = insts[p]
	}
	return idx
}

// randomInstances draws n entries of dimension d. Vectors come from a
// small pool of powers of two, so many entries share a region weight
// exactly — duplicates and permutations of the same components — and the
// tie order is exercised.
func randomInstances(rng *rand.Rand, n, d int) []*instanceEntry {
	pool := []float64{1, 0.5, 0.25, 0.125, 1.0 / 1024}
	insts := make([]*instanceEntry, n)
	for i := range insts {
		v := make([]float64, d)
		for j := range v {
			if rng.Intn(4) == 0 {
				v[j] = rng.Float64()*0.99 + 0.01
			} else {
				v[j] = pool[rng.Intn(len(pool))]
			}
		}
		insts[i] = newInstance(v, nil, 1, 1, 0, 0)
	}
	return insts
}

func TestBuildSelIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n, d := rng.Intn(80), 1+rng.Intn(4)
		insts := randomInstances(rng, n, d)
		got, want := buildSelIndex(insts), refSelIndex(insts)
		if len(got.keys) != len(want.keys) {
			t.Fatalf("trial %d (n=%d d=%d): %d keys, want %d", trial, n, d, len(got.keys), len(want.keys))
		}
		if n == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d d=%d): index differs from the reference construction\n got pos %v\nwant pos %v",
				trial, n, d, got.pos, want.pos)
		}
	}
}

func BenchmarkBuildSelIndex(b *testing.B) {
	insts := randomInstances(rand.New(rand.NewSource(1)), 500, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildSelIndex(insts)
	}
}
