package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/stats"
)

func threeWayTemplate(t testing.TB, sys *System) *query.Template {
	t.Helper()
	tpl := &query.Template{
		Name:    "q3d",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders", "customer"},
		Joins: []query.Join{
			{Left: "lineitem", Right: "orders", LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 150_000},
			{Left: "orders", Right: "customer", LeftCol: "o_custkey", RightCol: "c_custkey", Selectivity: 1.0 / 15_000},
		},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
			{Table: "customer", Column: "c_acctbal", Op: query.GE, Param: 2},
			constPred,
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tpl
}

// randomSV draws a log-uniform selectivity vector in [1e-4, 1].
func randomSV(rng *rand.Rand, d int) []float64 {
	sv := make([]float64, d)
	for i := range sv {
		sv[i] = math.Pow(10, -4*rng.Float64())
	}
	return sv
}

// randomPlans optimizes at n random vectors. Every optimized plan also
// appears a second time as a rehydrated copy: same
// fingerprint, distinct pointer, so the memo must key by pointer without
// confusing structurally equal plans.
func randomPlans(t testing.TB, eng *TemplateEngine, rng *rand.Rand, n int) []*CachedPlan {
	t.Helper()
	var plans []*CachedPlan
	for len(plans) < 2*n {
		cp, _, err := eng.Optimize(randomSV(rng, eng.Dimensions()))
		if err != nil {
			t.Fatal(err)
		}
		re, err := eng.Rehydrate(cp.Plan)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, cp, re)
	}
	return plans
}

// freshRecost recosts cp at sv on a newly prepared environment, bypassing
// PreparedInstance and its memo entirely.
func freshRecost(t testing.TB, eng *TemplateEngine, cp *CachedPlan, sv []float64) (float64, uint64) {
	t.Helper()
	env, err := eng.Opt.PrepareEnv(eng.Tpl, sv)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Opt.ReleaseEnv(env)
	c, err := cp.SM.RecostWith(eng.Opt, env)
	if err != nil {
		t.Fatal(err)
	}
	return c, env.EpochID()
}

// TestPreparedMemoNeverCrossesInstances checks the per-instance memo
// differentially: a pooled PreparedInstance reused for a new vector, or
// under a later statistics epoch, must return exactly the cost a fresh
// environment derives — never an entry left from its previous use.
func TestPreparedMemoNeverCrossesInstances(t *testing.T) {
	sys, _ := testSystem(t)
	tpl := threeWayTemplate(t, sys)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	plans := randomPlans(t, eng, rng, 6)
	stores := make([]*stats.Store, 2)
	for i := range stores {
		if stores[i], err = sys.ResampleStats(int64(100 + i)); err != nil {
			t.Fatal(err)
		}
	}

	reused := 0
	for round := 0; round < 200; round++ {
		if round%50 == 49 {
			eng.AdvanceEpoch(stores[(round/50)%len(stores)])
		}
		sv := randomSV(rng, tpl.Dimensions())
		// Every plan twice, in random order: the first visit fills the
		// memo, the second must be served from it with the same value.
		order := append(rng.Perm(len(plans)), rng.Perm(len(plans))...)
		func() {
			pi, err := eng.PrepareRecost(sv)
			if err != nil {
				t.Fatal(err)
			}
			defer pi.Release()
			if cap(pi.costs) > 0 {
				reused++ // a pooled instance from an earlier round
			}
			for _, i := range order {
				cp := plans[i]
				got, err := pi.Recost(cp)
				if err != nil {
					t.Fatal(err)
				}
				want, epoch := freshRecost(t, eng, cp, sv)
				if epoch != pi.EpochID() {
					t.Fatalf("round %d: instance pinned epoch %d, fresh env %d", round, pi.EpochID(), epoch)
				}
				if got != want {
					t.Fatalf("round %d plan %d: memoized recost %v, fresh recost %v (epoch %d)",
						round, i, got, want, epoch)
				}
			}
		}()
	}
	if reused == 0 {
		t.Error("the pool never handed back a released instance; reuse went untested")
	}
	hits, misses := eng.RecostCacheCounters()
	if want := int64(200 * len(plans)); hits != want || misses != want {
		t.Errorf("memo counters = %d hits / %d misses, want %d each", hits, misses, want)
	}
}

// TestReleaseDropsMemoPointers: a released instance keeps its memo's
// capacity but no plan pointers, so the pool pins no plans.
func TestReleaseDropsMemoPointers(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	plans := randomPlans(t, eng, rand.New(rand.NewSource(3)), 2)
	pi, err := eng.PrepareRecost([]float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range plans {
		if _, err := pi.Recost(cp); err != nil {
			pi.Release()
			t.Fatal(err)
		}
	}
	costs := pi.costs
	pi.Release()
	if len(costs) != len(plans) {
		t.Fatalf("memo held %d entries, want %d", len(costs), len(plans))
	}
	for i, pc := range costs[:cap(costs)] {
		if pc.cp != nil {
			t.Errorf("released memo entry %d still pins a plan", i)
		}
	}
}

// TestPreparedRecostAllocBudget pins the prepared recost path at zero
// allocations on a warm pool across 1000 distinct vectors: nothing may be
// retained per request.
func TestPreparedRecostAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sys, _ := testSystem(t)
	tpl := threeWayTemplate(t, sys)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	plans := randomPlans(t, eng, rng, 3)
	svs := make([][]float64, 1000)
	for i := range svs {
		svs[i] = randomSV(rng, tpl.Dimensions())
	}
	run := func(sv []float64) {
		pi, err := eng.PrepareRecost(sv)
		if err != nil {
			t.Fatal(err)
		}
		defer pi.Release()
		for _, cp := range plans {
			if _, err := pi.Recost(cp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pi.Recost(plans[0]); err != nil { // memo hit
			t.Fatal(err)
		}
	}
	run(svs[0]) // warm the pools and the memo's capacity
	i := 0
	if allocs := testing.AllocsPerRun(len(svs), func() {
		run(svs[i%len(svs)])
		i++
	}); allocs != 0 {
		t.Errorf("PrepareRecost→Recost→Release allocates %.1f per run, want 0", allocs)
	}
}
