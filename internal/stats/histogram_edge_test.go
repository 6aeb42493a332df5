package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// Edge-case coverage for the cumulative-prefix histogram estimator:
// NaN inputs, inverted ranges, probes below the first bound, exact bound
// hits, and point masses on duplicate boundaries.

func uniformHist(t *testing.T, n, buckets int) *Histogram {
	t.Helper()
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = float64(i)
	}
	h, err := BuildHistogram(sample, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSelectivityNaN(t *testing.T) {
	h := uniformHist(t, 1000, 10)
	nan := math.NaN()
	if got := h.SelectivityLE(nan); got != MinSelectivity {
		t.Errorf("SelectivityLE(NaN) = %v, want the floor %v", got, MinSelectivity)
	}
	if got := h.SelectivityGE(nan); got != MinSelectivity {
		t.Errorf("SelectivityGE(NaN) = %v, want the floor %v", got, MinSelectivity)
	}
	if got := h.SelectivityRange(nan, 10); got != MinSelectivity {
		t.Errorf("SelectivityRange(NaN, hi) = %v, want the floor %v", got, MinSelectivity)
	}
	if got := h.SelectivityRange(10, nan); got != MinSelectivity {
		t.Errorf("SelectivityRange(lo, NaN) = %v, want the floor %v", got, MinSelectivity)
	}
	// A NaN result anywhere would poison every downstream comparison
	// (NaN compares false), silently disabling the selectivity check.
	for _, got := range []float64{h.SelectivityLE(nan), h.SelectivityGE(nan), h.SelectivityRange(nan, nan)} {
		if math.IsNaN(got) {
			t.Fatalf("NaN leaked through a selectivity estimate")
		}
	}
}

func TestSelectivityRangeInverted(t *testing.T) {
	h := uniformHist(t, 1000, 10)
	if got := h.SelectivityRange(700, 300); got != MinSelectivity {
		t.Errorf("SelectivityRange(lo>hi) = %v, want the floor %v", got, MinSelectivity)
	}
}

func TestSelectivityBelowFirstBound(t *testing.T) {
	h := uniformHist(t, 1000, 10)
	if got := h.SelectivityLE(-5); got != MinSelectivity {
		t.Errorf("SelectivityLE below min = %v, want the floor %v", got, MinSelectivity)
	}
	if got := h.SelectivityGE(-5); got != 1 {
		t.Errorf("SelectivityGE below min = %v, want 1", got)
	}
	if got := h.SelectivityLE(math.Inf(-1)); got != MinSelectivity {
		t.Errorf("SelectivityLE(-Inf) = %v, want the floor %v", got, MinSelectivity)
	}
	if got := h.SelectivityLE(math.Inf(1)); got != 1 {
		t.Errorf("SelectivityLE(+Inf) = %v, want 1", got)
	}
}

// An exact hit on bounds[i] must return the precomputed cumulative
// fraction cum[i] with no interpolation error.
func TestSelectivityExactBoundHits(t *testing.T) {
	h := uniformHist(t, 1000, 10)
	for i, b := range h.bounds {
		want := h.cum[i]
		if got := h.SelectivityLE(b); math.Abs(got-clampSel(want)) > 1e-12 {
			t.Errorf("SelectivityLE(bounds[%d]=%v) = %v, want cum[%d]=%v", i, b, got, i, want)
		}
	}
}

// Duplicate boundary values (a point mass) must carry their true
// cumulative weight: 60% of this column sits at one value, and an exact
// probe there must report all of it — the uniform-depth approximation
// i/buckets cannot.
func TestSelectivityPointMass(t *testing.T) {
	sample := make([]float64, 0, 1000)
	for i := 0; i < 200; i++ {
		sample = append(sample, float64(i)) // 20% below the mass
	}
	for i := 0; i < 600; i++ {
		sample = append(sample, 500) // 60% point mass
	}
	for i := 0; i < 200; i++ {
		sample = append(sample, 1000+float64(i)) // 20% above
	}
	h, err := BuildHistogram(sample, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := h.SelectivityLE(500)
	if want := 0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("SelectivityLE(point mass) = %v, want %v (20%% below + 60%% mass)", got, want)
	}
	if ge := h.SelectivityGE(500); math.Abs(ge-(1-got)) > 1e-12 {
		t.Errorf("SelectivityGE(point mass) = %v, want complement %v", ge, 1-got)
	}
}

// The prefix array must be monotone and pinned at [cum(min), 1]; the
// estimator interpolates inside it, so any probe stays within [0, 1]
// before clamping and the public estimates within [MinSelectivity, 1].
func TestCumPrefixInvariants(t *testing.T) {
	h := uniformHist(t, 997, 13) // deliberately non-divisible
	if len(h.cum) != len(h.bounds) {
		t.Fatalf("cum has %d entries, bounds %d", len(h.cum), len(h.bounds))
	}
	for i := 1; i < len(h.cum); i++ {
		if h.cum[i] < h.cum[i-1] {
			t.Fatalf("cum not monotone at %d: %v < %v", i, h.cum[i], h.cum[i-1])
		}
	}
	if last := h.cum[len(h.cum)-1]; last != 1 {
		t.Errorf("cum at max bound = %v, want 1", last)
	}
	for v := -1.0; v <= float64(h.total)+1; v += 0.37 {
		got := h.SelectivityLE(v)
		if got < MinSelectivity || got > 1 {
			t.Fatalf("SelectivityLE(%v) = %v outside [floor, 1]", v, got)
		}
	}
}

// TestNonFiniteSamplesRejected: a NaN or infinite sample value must fail
// the build, both through BuildHistogram and through Store.Apply, with
// the offending index (and for Apply, the column) named. Accepted, [1,
// NaN, 3, 4] gave Min()=NaN and SelectivityLE(0)=0.5, and [-Inf, 1, 2]
// gave SelectivityLE(0)=NaN.
func TestNonFiniteSamplesRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	st, err := Build(catalog.NewTPCH(0.01), datagen.New(catalog.NewTPCH(0.01), 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		values []float64
		index  int
	}{
		{"nan", []float64{1, nan, 3, 4}, 1},
		{"leading-nan", []float64{nan, 1, 2}, 0},
		{"neg-inf", []float64{-inf, 1, 2}, 0},
		{"pos-inf", []float64{1, 2, inf}, 2},
		{"unsorted-inf", []float64{3, inf, 1, -inf}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantIdx := fmt.Sprintf("index %d", tc.index)
			if _, err := BuildHistogram(tc.values, 2); err == nil || !strings.Contains(err.Error(), wantIdx) {
				t.Errorf("BuildHistogram(%v) error = %v, want one naming %q", tc.values, err, wantIdx)
			}
			_, err := st.Apply([]HistogramDelta{{Table: "orders", Column: "o_totalprice", Values: tc.values}})
			if err == nil || !strings.Contains(err.Error(), "orders.o_totalprice") || !strings.Contains(err.Error(), wantIdx) {
				t.Errorf("Apply(%v) error = %v, want one naming orders.o_totalprice and %q", tc.values, err, wantIdx)
			}
		})
	}
}
