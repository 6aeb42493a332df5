package datagen

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortFloat64sMatchesSort is the kernel's differential test: on random
// slices either side of the small-n cutoff, drawn from generators that
// stress each key-mapping case, the radix sort must agree bit for bit with
// sort.Float64s, except for the relative order of -0 and +0, which
// sort.Float64s leaves unspecified.
func TestSortFloat64sMatchesSort(t *testing.T) {
	gens := map[string]func(*rand.Rand) float64{
		"uniform": func(r *rand.Rand) float64 { return r.Float64() },
		"negative": func(r *rand.Rand) float64 {
			return -math.Exp(r.NormFloat64() * 20)
		},
		"mixed-sign": func(r *rand.Rand) float64 { return r.NormFloat64() * 1e3 },
		// A handful of distinct values, so nearly every key is a duplicate.
		"duplicates": func(r *rand.Rand) float64 { return float64(r.Intn(5)) - 2 },
		"zeros-and-specials": func(r *rand.Rand) float64 {
			return [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
				1, -1, math.MaxFloat64, -math.MaxFloat64}[r.Intn(8)]
		},
		"subnormal": func(r *rand.Rand) float64 {
			v := math.Float64frombits(uint64(r.Int63n(1 << 52)))
			if r.Intn(2) == 0 {
				v = -v
			}
			return v
		},
		// Neighbours a few ulps apart: keys that differ only in their low
		// bytes, so a skipped or misordered low pass shows.
		"adjacent-ulps": func(r *rand.Rand) float64 {
			v := math.Float64frombits(math.Float64bits(1.5) + uint64(r.Intn(1<<16)))
			if r.Intn(2) == 0 {
				v = -v
			}
			return v
		},
		// Raw bit patterns with the NaN exponent excluded: every sign,
		// exponent and mantissa byte varies, so no radix pass is skipped.
		"any-bits": func(r *rand.Rand) float64 {
			for {
				if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) {
					return v
				}
			}
		},
	}
	lengths := []int{0, 1, 2, 3, 17, radixCutoff - 1, radixCutoff, radixCutoff + 1, 2500, 4099}
	rng := rand.New(rand.NewSource(1))
	// Each slice is also tried in order, which SortFloat64s returns as is,
	// and in order but for its last two values, which it must still sort.
	orders := []string{"random", "random", "ascending", "last-pair-swapped"}
	for name, gen := range gens {
		for _, n := range lengths {
			for trial, order := range orders {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = gen(rng)
				}
				if order != "random" {
					sort.Float64s(vals)
				}
				if order == "last-pair-swapped" && n >= 2 {
					vals[n-2], vals[n-1] = vals[n-1], vals[n-2]
				}
				want := append([]float64(nil), vals...)
				sort.Float64s(want)
				got := append([]float64(nil), vals...)
				SortFloat64s(got)
				for i := range want {
					gb, wb := math.Float64bits(got[i]), math.Float64bits(want[i])
					if gb == wb || (got[i] == 0 && want[i] == 0) {
						continue
					}
					t.Fatalf("%s n=%d trial %d (%s): index %d = %v (%#x), sort.Float64s has %v (%#x)",
						name, n, trial, order, i, got[i], gb, want[i], wb)
				}
			}
		}
	}
}

func BenchmarkColumnSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 20000)
	for i := range src {
		src[i] = 1000 + rng.Float64()*1e6
	}
	vals := make([]float64, len(src))
	for _, bc := range []struct {
		name string
		sort func([]float64)
	}{{"radix", SortFloat64s}, {"sort.Float64s", sort.Float64s}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(vals, src)
				bc.sort(vals)
			}
		})
	}
}
