package core

import (
	"fmt"
	"math"
)

// GLFactors computes the paper's net cost increment factor G and net cost
// decrement factor L between a stored instance qe and a new instance qc
// (§5.3): with αi = si(qc)/si(qe),
//
//	G = ∏_{αi>1} αi   and   L = ∏_{αi<1} 1/αi.
//
// Under the BCG assumption with fi(α)=α, Cost(Pe,qe)/L < Cost(Pe,qc) <
// G·Cost(Pe,qe) (Cost Bounding Lemma) and SubOpt(Pe,qc) < G·L (Theorem 1).
func GLFactors(svE, svC []float64) (g, l float64, err error) {
	if len(svE) != len(svC) {
		return 0, 0, fmt.Errorf("core: selectivity vectors have lengths %d and %d", len(svE), len(svC))
	}
	g, l = 1, 1
	for i := range svE {
		se, sc := svE[i], svC[i]
		if se <= 0 || sc <= 0 || se > 1 || sc > 1 ||
			math.IsNaN(se) || math.IsNaN(sc) {
			return 0, 0, fmt.Errorf("core: selectivity out of (0,1] at dimension %d: %v, %v", i, se, sc)
		}
		alpha := sc / se
		if alpha > 1 {
			g *= alpha
		} else if alpha < 1 {
			l *= 1 / alpha
		}
	}
	return g, l, nil
}

// checkVector returns an ErrInvalidVector error unless sv is a
// selectivity vector of dims components, each in (0,1]. Every entry point that can store a vector as
// an anchor (Process, SeedInstance, Import) calls it first: GLFactors
// rejects anything else, so one stored out-of-range anchor would fail
// every later check that reaches it.
func checkVector(sv []float64, dims int) error {
	if len(sv) != dims {
		return fmt.Errorf("%w: %d selectivities, template takes %d", ErrInvalidVector, len(sv), dims)
	}
	for i, x := range sv {
		if !(x > 0 && x <= 1) {
			return fmt.Errorf("%w: selectivity %v at dimension %d is outside (0,1]", ErrInvalidVector, x, i)
		}
	}
	return nil
}

// SelectivityRegionArea returns the area of the 2-dimensional selectivity
// based λ-optimal region around an instance with selectivities (s1, s2):
// (λ − 1/λ)·ln λ · s1·s2 (§5.3). It is used by tests and by the heuristic
// that orders the instance list by decreasing region area.
func SelectivityRegionArea(lambda, s1, s2 float64) float64 {
	if lambda <= 1 {
		return 0
	}
	return (lambda - 1/lambda) * math.Log(lambda) * s1 * s2
}

// CostBounds returns the BCG-implied bounds on Cost(P, qc) given the plan's
// cost at qe (Cost Bounding Lemma): (costAtE/L, G·costAtE).
func CostBounds(costAtE, g, l float64) (lower, upper float64) {
	return costAtE / l, g * costAtE
}

// ViolatesBCG reports whether an observed recost ratio R =
// Cost(P,qc)/Cost(P,qe) falls outside the BCG-implied interval [1/L, G]
// (Appendix G). tolerance absorbs floating-point noise; the paper's
// detection is similarly approximate.
func ViolatesBCG(r, g, l, tolerance float64) bool {
	return r > g*(1+tolerance) || r < (1/l)*(1-tolerance)
}
