package memo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/query"
)

// This file differences OptimalCost against Optimize: the ground-truth
// call shares Optimize's search and only replaces the plan-building tail
// with a fingerprint writer, so everything observable must match bit for
// bit.

// optCounters is every counter an optimizer call can advance.
type optCounters struct {
	optCalls, exprCosted, recostCalls, recostOps, envGets, envReuses int64
}

func readCounters(o *Optimizer) optCounters {
	var c optCounters
	c.optCalls, c.exprCosted, c.recostCalls, c.recostOps = o.Counters()
	c.envGets, c.envReuses = o.EnvPoolCounters()
	return c
}

func (c optCounters) sub(d optCounters) optCounters {
	return optCounters{
		c.optCalls - d.optCalls, c.exprCosted - d.exprCosted, c.recostCalls - d.recostCalls,
		c.recostOps - d.recostOps, c.envGets - d.envGets, c.envReuses - d.envReuses,
	}
}

// checkOptimalCost runs OptimizeEpoch and OptimalCost for (tpl, sv) on o
// and fails t unless cost, fingerprint, epoch, error and counter advance
// agree. It returns the shared error, if any.
func checkOptimalCost(t testing.TB, o *Optimizer, tpl *query.Template, sv []float64) error {
	t.Helper()
	c0 := readCounters(o)
	p, cost, epoch, err := o.OptimizeEpoch(tpl, sv)
	c1 := readCounters(o)
	gotCost, fp, gotEpoch, gotErr := o.OptimalCost(tpl, sv, nil)
	c2 := readCounters(o)

	if (err == nil) != (gotErr == nil) || (err != nil && err.Error() != gotErr.Error()) {
		t.Fatalf("tpl %s sv %v: OptimalCost error %v, Optimize error %v", tpl.Name, sv, gotErr, err)
	}
	// Pool reuse depends on what the GC has emptied; every other counter
	// must advance by exactly the same amount.
	want, got := c1.sub(c0), c2.sub(c1)
	want.envReuses, got.envReuses = 0, 0
	if got != want {
		t.Fatalf("tpl %s sv %v: OptimalCost advanced counters by %+v, Optimize by %+v", tpl.Name, sv, got, want)
	}
	if err != nil {
		return err
	}
	if math.Float64bits(gotCost) != math.Float64bits(cost) {
		t.Fatalf("tpl %s sv %v: OptimalCost cost %v, Optimize %v", tpl.Name, sv, gotCost, cost)
	}
	if string(fp) != p.Fingerprint() {
		t.Fatalf("tpl %s sv %v: OptimalCost fingerprint %s, Optimize %s", tpl.Name, sv, fp, p.Fingerprint())
	}
	if gotEpoch != epoch {
		t.Fatalf("tpl %s sv %v: OptimalCost epoch %d, Optimize %d", tpl.Name, sv, gotEpoch, epoch)
	}
	return nil
}

// TestOptimalCostMatchesOptimizeRandom covers the differential suite's
// random templates of 2–7 tables, with and without aggregation.
func TestOptimalCostMatchesOptimizeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20240207))
	tpch := newFuzzSystem(t, catalog.NewTPCH(0.05))
	tpcds := newFuzzSystem(t, catalog.NewTPCDS(0.05))
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.Intn(6)
		fs := tpch
		if n == 7 || rng.Intn(2) == 1 {
			fs = tpcds
		}
		tpl := randomTemplate(t, rng, fs, n, fmt.Sprintf("oc-%d", iter))
		if iter%4 == 0 {
			tpl.Agg = query.GroupBy
			tpl.GroupCard = float64(1 + rng.Intn(10_000))
		}
		for probe := 0; probe < 5; probe++ {
			if err := checkOptimalCost(t, fs.opt, tpl, randomSV(rng, tpl.Dimensions())); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOptimalCostErrors: an invalid vector, a join past maxJoinTables, an
// unknown table and a disconnected join graph fail OptimalCost exactly as
// they fail Optimize.
func TestOptimalCostErrors(t *testing.T) {
	r := newRig(t)
	huge := &query.Template{Name: "huge", Catalog: r.cat}
	for i := 0; i <= maxJoinTables; i++ {
		huge.Tables = append(huge.Tables, "t")
	}
	unknown := &query.Template{Name: "unknown", Catalog: r.cat, Tables: []string{"nosuchtable"}}
	disconnected := &query.Template{
		Name: "disconnected", Catalog: r.cat, Tables: []string{"lineitem", "orders"},
		Preds: []query.Predicate{{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0}},
	}
	for _, tc := range []struct {
		name string
		tpl  *query.Template
		sv   []float64
	}{
		{"invalid vector", r.tpl, []float64{0.1}},
		{"too many tables", huge, nil},
		{"unknown table", unknown, nil},
		{"no plan found", disconnected, []float64{0.1}},
	} {
		if err := checkOptimalCost(t, r.opt, tc.tpl, tc.sv); err == nil {
			t.Errorf("%s: both calls succeeded, want an error", tc.name)
		}
	}
}

// TestOptimalCostReusesBuffer: the fingerprint is written over buf[:0], so
// a buffer with enough capacity is returned, not replaced.
func TestOptimalCostReusesBuffer(t *testing.T) {
	r := newRig(t)
	tpl := r.threeWay(t)
	buf := make([]byte, 7, 1024)
	_, fp, _, err := r.opt.OptimalCost(tpl, []float64{0.01, 0.05, 0.2}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &fp[0] != &buf[0] {
		t.Error("OptimalCost did not write into the caller's buffer")
	}
}
