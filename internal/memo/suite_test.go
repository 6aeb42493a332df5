package memo_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/memo"
	"repro/internal/suite"
)

// TestOptimalCostMatchesOptimizeSuite runs the OptimalCost/Optimize
// differential over all suite templates with random vectors.
func TestOptimalCostMatchesOptimizeSuite(t *testing.T) {
	sys, err := suite.NewSystems(1)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := suite.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, e := range ents {
		for probe := 0; probe < 4; probe++ {
			sv := make([]float64, e.Tpl.Dimensions())
			for i := range sv {
				// Half uniform, half log-uniform, so index-scan
				// plans at small selectivities are probed too.
				if rng.Intn(2) == 0 {
					sv[i] = rng.Float64()
				} else {
					sv[i] = math.Pow(10, -4*rng.Float64())
				}
			}
			if err := memo.CheckOptimalCost(t, e.Sys.Opt, e.Tpl, sv); err != nil {
				t.Fatalf("%s: %v", e.Tpl.Name, err)
			}
		}
	}
	if len(ents) != 90 {
		t.Errorf("suite has %d templates, want 90", len(ents))
	}
}
