package engine

import (
	"math"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/query"
)

func testSystem(t testing.TB) (*System, *query.Template) {
	t.Helper()
	sys, err := NewSystem(catalog.NewTPCH(0.1), 42)
	if err != nil {
		t.Fatal(err)
	}
	tpl := &query.Template{
		Name:    "q2d",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{
			Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey",
			Selectivity: 1.0 / 150_000,
		}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	return sys, tpl
}

func TestEngineOptimizeAndRecost(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Dimensions() != 2 {
		t.Fatalf("Dimensions() = %d, want 2", eng.Dimensions())
	}
	sv := []float64{0.05, 0.1}
	cp, c, err := eng.Optimize(sv)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("optimize cost = %v", c)
	}
	rc, err := eng.Recost(cp, sv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rc-c)/c > 1e-9 {
		t.Errorf("Recost at optimized point = %v, want %v", rc, c)
	}
	if cp.Fingerprint() == "" {
		t.Error("empty fingerprint")
	}
	if cp.MemoryBytes() <= 0 {
		t.Error("non-positive plan memory estimate")
	}
}

// constPred is a constant (non-parameter) predicate, estimated from the
// statistics store: the part of a cost that changes across epochs.
var constPred = query.Predicate{Table: "orders", Column: "o_totalprice", Op: query.GE, Param: -1, Value: 100_000}

// TestAdvanceEpochRecostMatchesFreshSystem: after an epoch advance a
// recost must be exactly the cost a fresh System built on the new
// statistics derives, and never the cost from the previous generation.
func TestAdvanceEpochRecostMatchesFreshSystem(t *testing.T) {
	sys, tpl := testSystem(t)
	// Statistics reach a cost only through constant predicates (parameters
	// arrive as selectivities), so give the template one.
	tpl.Preds = append(tpl.Preds, constPred)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	sv := []float64{0.05, 0.1}
	cp, _, err := eng.Optimize(sv)
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.Recost(cp, sv)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := sys.ResampleStats(43)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &System{Cat: sys.Cat, Stats: st2, Opt: memo.NewOptimizer(sys.Cat, cost.DefaultModel(), st2)}
	freshEng, err := fresh.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	freshCP, err := freshEng.Rehydrate(cp.Plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshEng.Recost(freshCP, sv)
	if err != nil {
		t.Fatal(err)
	}
	if want == before {
		t.Fatal("resampled statistics leave the plan's cost unchanged; the test cannot tell generations apart")
	}

	eng.AdvanceEpoch(st2)
	if got, err := eng.Recost(cp, sv); err != nil || got != want {
		t.Errorf("Recost after AdvanceEpoch = %v, %v; want %v (pre-advance cost %v)", got, err, want, before)
	}
	pi, err := eng.PrepareRecost(sv)
	if err != nil {
		t.Fatal(err)
	}
	defer pi.Release()
	for i := 0; i < 2; i++ { // the second recost is served by the memo
		if got, err := pi.Recost(cp); err != nil || got != want {
			t.Errorf("prepared Recost #%d after AdvanceEpoch = %v, %v; want %v (pre-advance cost %v)",
				i+1, got, err, want, before)
		}
	}
}

func TestEngineTimingAccounting(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := eng.Optimize([]float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recost(cp, []float64{0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	ot, rt, oc, rc := eng.Timing()
	if oc != 1 || rc != 1 {
		t.Errorf("calls = (%d, %d), want (1, 1)", oc, rc)
	}
	if ot <= 0 || rt <= 0 {
		t.Errorf("times = (%v, %v), want positive", ot, rt)
	}
	eng.ResetTiming()
	ot, rt, oc, rc = eng.Timing()
	if ot != 0 || rt != 0 || oc != 0 || rc != 0 {
		t.Error("ResetTiming did not zero the counters")
	}
}

func TestEngineRecostNil(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recost(nil, []float64{0.1, 0.1}); err == nil {
		t.Error("recost of nil plan should fail")
	}
}

func TestEngineForRejectsInvalidTemplate(t *testing.T) {
	sys, _ := testSystem(t)
	bad := &query.Template{Name: "", Catalog: sys.Cat, Tables: []string{"lineitem"}}
	if _, err := sys.EngineFor(bad); err == nil {
		t.Error("invalid template should be rejected")
	}
}

func TestRecostWallClockCheaperThanOptimize(t *testing.T) {
	// Table 3's enabling fact: Recost is much faster than optimization.
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := eng.Optimize([]float64{0.05, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		sv := []float64{0.01 + 0.04*float64(i)/rounds, 0.05}
		if _, _, err := eng.Optimize(sv); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Recost(cp, sv); err != nil {
			t.Fatal(err)
		}
	}
	ot, rt, oc, rc := eng.Timing()
	avgOpt := ot / time.Duration(oc)
	avgRecost := rt / time.Duration(rc)
	if avgRecost*2 >= avgOpt {
		t.Errorf("avg recost %v not clearly cheaper than avg optimize %v", avgRecost, avgOpt)
	}
}

// TestOptimalCostMatchesOptimize: the engine's ground-truth call returns
// Optimize's cost and fingerprint and is accounted as one optimizer call.
func TestOptimalCostMatchesOptimize(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, sv := range [][]float64{{0.03, 0.2}, {1e-4, 0.9}, {0.8, 0.8}} {
		cp, c, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		_, _, before, _ := eng.Timing()
		var got float64
		got, buf, err = eng.OptimalCost(sv, buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, after, _ := eng.Timing(); after != before+1 {
			t.Errorf("sv %v: OptimalCost counted %d optimizer calls, want 1", sv, after-before)
		}
		if math.Float64bits(got) != math.Float64bits(c) || string(buf) != cp.Fingerprint() {
			t.Errorf("sv %v: OptimalCost gave (%v, %s), Optimize (%v, %s)", sv, got, buf, c, cp.Fingerprint())
		}
	}
	if _, _, err := eng.OptimalCost([]float64{0.1}, buf); err == nil {
		t.Error("OptimalCost accepted a vector of the wrong dimension")
	}
}

func TestRehydrateRoundTrip(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	sv := []float64{0.03, 0.2}
	cp, c, err := eng.Optimize(sv)
	if err != nil {
		t.Fatal(err)
	}
	re, err := eng.Rehydrate(cp.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if re.Fingerprint() != cp.Fingerprint() {
		t.Error("rehydrated plan has a different fingerprint")
	}
	rc, err := eng.Recost(re, sv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rc-c)/c > 1e-9 {
		t.Errorf("rehydrated recost %v != optimize cost %v", rc, c)
	}
	if _, err := eng.Rehydrate(nil); err == nil {
		t.Error("rehydrating nil should fail")
	}
}
