package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pqotest"
)

// TestProbeCheckMatchesProcess: ProbeCheck must classify every instance
// exactly as Process then serves it. The caches are random and half
// their anchors lag a statistics epoch advance; the ablations that
// change candidate selection (GL cutoff, L ordering, a cost-check limit
// of one over vectors whose GL values tie exactly) and violation
// detection over plans that break BCG each get their own case.
func TestProbeCheckMatchesProcess(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		jumpy bool // plans with cost jumps, which violate BCG
		grid  bool // vectors on a power-of-two grid, so GL values tie exactly
	}{
		{name: "default", cfg: Config{Lambda: 1.2}},
		{name: "violation-detection", cfg: Config{Lambda: 1.2, DetectViolations: true, ViolationTolerance: 0.01}, jumpy: true},
		{name: "gl-cutoff", cfg: Config{Lambda: 1.2, GLCutoff: 20}},
		{name: "order-by-l", cfg: Config{Lambda: 1.2, OrderCandidatesByL: true}},
		{name: "cost-check-limit-1", cfg: Config{Lambda: 1.2, CostCheckLimit: 1}, grid: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vias := map[Check]int{}
			var violations int64
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				eng := probeEngine(t, rng, tc.jumpy)
				ee := pqotest.NewEpochEngine(eng)
				s := mustSCR(t, ee, tc.cfg)
				vector := func() []float64 {
					if !tc.grid {
						return pqotest.RandomSVector(rng, 3)
					}
					sv := make([]float64, 3)
					for i := range sv {
						sv[i] = 1 / float64(int(1)<<rng.Intn(12))
					}
					return sv
				}
				for i := 0; i < 400; i++ {
					if i == 200 {
						// Lag every anchor, then seed current-epoch ones
						// beside them, so both the cost check and the
						// lag fallback stay in reach.
						ee.Advance()
						for j := 0; j < 50; j++ {
							sv := vector()
							cp, c, err := ee.Optimize(sv)
							if err != nil {
								t.Fatal(err)
							}
							if err := s.SeedInstance(sv, cp, c, 1); err != nil {
								t.Fatal(err)
							}
						}
					}
					sv := vector()
					want := s.ProbeCheck(sv)
					dec, err := s.Process(context.Background(), sv)
					if err != nil {
						t.Fatal(err)
					}
					if dec.Via != want {
						t.Fatalf("seed %d instance %d at %v: ProbeCheck says %v, Process served %v", seed, i, sv, want, dec.Via)
					}
					vias[want]++
				}
				violations += s.Stats().Violations
			}
			// Every case must reach the cost check and the epoch-lag
			// fallback, where the two used to disagree.
			for _, via := range []Check{ViaCost, ViaFallback} {
				if vias[via] == 0 {
					t.Errorf("no instance served %v: %v", via, vias)
				}
			}
			if tc.cfg.DetectViolations && violations == 0 {
				t.Error("no BCG violation detected")
			}
		})
	}
}

// probeEngine draws a random 3-dimensional engine of 10 plans. jumpy adds
// the same cost step to every plan where the first selectivity passes
// 0.01, so recosts across it break BCG in both directions: a plan
// anchored above the step recosts far below 1/L times its cost there,
// which the cost check alone would accept.
func probeEngine(t *testing.T, rng *rand.Rand, jumpy bool) *pqotest.Engine {
	t.Helper()
	if !jumpy {
		eng, err := pqotest.RandomEngine(rng, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	specs := make([]pqotest.PlanSpec, 10)
	for i := range specs {
		lin := make([]float64, 3)
		for j := range lin {
			lin[j] = 1 + rng.Float64()*200
		}
		specs[i] = pqotest.PlanSpec{
			Name:       fmt.Sprintf("j%d", i),
			Const:      1 + rng.Float64()*5,
			Linear:     lin,
			JumpAt:     0.01,
			JumpAmount: 300,
		}
	}
	eng, err := pqotest.NewEngine(3, specs)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
