package memo

import "testing"

// Allocation regression tests: the recost hot path must be allocation-free
// in steady state (pooled environments, stack-buffered evaluation), and the
// optimizer's per-call allocations are pinned so the arena/value-candidate
// structure cannot silently regress back to per-candidate nodes.

func TestRecostZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := newRig(t)
	tpl := r.threeWay(t)
	p, _, err := r.opt.Optimize(tpl, []float64{0.01, 0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewShrunkenMemo(r.opt, p, tpl)
	if err != nil {
		t.Fatal(err)
	}
	sv := []float64{0.1, 0.2, 0.3}
	if _, err := sm.Recost(r.opt, sv); err != nil { // warm the pool
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := sm.Recost(r.opt, sv); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ShrunkenMemo.Recost allocates %.1f per run, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.opt.Recost(p, tpl, sv); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Optimizer.Recost allocates %.1f per run, want 0", allocs)
	}
}

func TestBatchedRecostZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := newRig(t)
	tpl := r.threeWay(t)
	p, _, err := r.opt.Optimize(tpl, []float64{0.01, 0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewShrunkenMemo(r.opt, p, tpl)
	if err != nil {
		t.Fatal(err)
	}
	sv := []float64{0.1, 0.2, 0.3}
	env, err := r.opt.PrepareEnv(tpl, sv)
	if err != nil {
		t.Fatal(err)
	}
	defer r.opt.ReleaseEnv(env)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := sm.RecostWith(r.opt, env); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RecostWith allocates %.1f per run, want 0", allocs)
	}
}

// TestOptimizeAllocBudget pins Optimize's per-call allocation count. The
// seed implementation allocated ~141 times per 3-way call (a map of groups,
// a node per offered candidate, BFS scratch); the flat-array search with a
// winner-only arena needs four: the node arena, the children array, the
// Plan and its exact-size fingerprint string. The budget leaves 2 of slack.
func TestOptimizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := newRig(t)
	tpl := r.threeWay(t)
	sv := []float64{0.01, 0.05, 0.2}
	if _, _, err := r.opt.Optimize(tpl, sv); err != nil { // warm pools + meta
		t.Fatal(err)
	}
	const budget = 6
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := r.opt.Optimize(tpl, sv); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Errorf("Optimize allocates %.1f per run, budget %d", allocs, budget)
	}
}

// TestOptimalCostZeroAllocs: the ground-truth call builds no plan, so with
// a warm fingerprint buffer it allocates nothing.
func TestOptimalCostZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := newRig(t)
	tpl := r.threeWay(t)
	_, buf, _, err := r.opt.OptimalCost(tpl, benchSVs[0], nil) // warm pools, meta and buf
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if _, buf, _, err = r.opt.OptimalCost(tpl, benchSVs[i%len(benchSVs)], buf); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("OptimalCost allocates %.1f per run, want 0", allocs)
	}
}
