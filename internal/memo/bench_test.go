package memo

import (
	"testing"
)

// benchSVs is a fixed set of selectivity vectors cycled by the benchmarks so
// the measured work covers more than one point of the selectivity space.
var benchSVs = [][]float64{
	{0.001, 0.01, 0.1},
	{0.5, 0.5, 0.5},
	{1e-4, 0.9, 0.3},
	{0.9, 1e-4, 0.9},
	{0.02, 0.2, 0.6},
	{0.25, 0.75, 0.05},
	{0.7, 0.07, 0.007},
	{0.33, 0.66, 0.99},
}

// BenchmarkOptimize measures a full optimizer call on the 3-way template —
// the cost a PQO technique pays on every cache miss.
func BenchmarkOptimize(b *testing.B) {
	r := newRig(b)
	tpl := r.threeWay(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.opt.Optimize(tpl, benchSVs[i%len(benchSVs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalCost measures the ground-truth optimizer call on the
// 3-way template: the same search as BenchmarkOptimize, ending in a
// fingerprint written to a reused buffer instead of a plan tree.
func BenchmarkOptimalCost(b *testing.B) {
	r := newRig(b)
	tpl := r.threeWay(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, buf, _, err = r.opt.OptimalCost(tpl, benchSVs[i%len(benchSVs)], buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecost measures the shrunken-memo Recost API — the hot path of
// the SCR cost check (§4.2: one recost per cost-check candidate).
func BenchmarkRecost(b *testing.B) {
	r := newRig(b)
	tpl := r.threeWay(b)
	p, _, err := r.opt.Optimize(tpl, []float64{0.01, 0.05, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	sm, err := NewShrunkenMemo(r.opt, p, tpl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sm.Recost(r.opt, benchSVs[i%len(benchSVs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecostTree measures the plan-tree-walking Recost (used when no
// shrunken memo has been compiled, e.g. recosting arbitrary plans in the
// differential tests).
func BenchmarkRecostTree(b *testing.B) {
	r := newRig(b)
	tpl := r.threeWay(b)
	p, _, err := r.opt.Optimize(tpl, []float64{0.01, 0.05, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.opt.Recost(p, tpl, benchSVs[i%len(benchSVs)]); err != nil {
			b.Fatal(err)
		}
	}
}
