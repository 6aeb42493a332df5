package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// invalidVectors are selectivity vectors the checks cannot reason about
// for a 2-dimensional template.
var invalidVectors = map[string][]float64{
	"above one":  {1.5, 0.1},
	"zero":       {0, 0.1},
	"negative":   {0.1, -0.2},
	"NaN":        {math.NaN(), 0.1},
	"+Inf":       {0.1, math.Inf(1)},
	"-Inf":       {math.Inf(-1), 0.1},
	"short":      {0.1},
	"long":       {0.1, 0.1, 0.1},
	"nil vector": nil,
}

// An invalid vector used to reach the optimizer on an empty cache and be
// stored as an anchor; every later lookup that fell past the selectivity
// index then failed in GLFactors. It must be rejected before it can be
// optimized or cached, with or without degraded fallback, so the next
// valid instances are served normally.
func TestProcessRejectsInvalidVector(t *testing.T) {
	ctx := context.Background()
	for _, fallback := range []bool{false, true} {
		for name, bad := range invalidVectors {
			eng := twoPlaneEngine(t)
			opts := []Option{WithLambda(2)}
			if fallback {
				opts = append(opts, WithDegradedFallback())
			}
			s, err := New(eng, opts...)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := s.Process(ctx, bad)
			if !errors.Is(err, ErrInvalidVector) || dec != nil {
				t.Errorf("fallback=%v %s: Process = %v, %v; want ErrInvalidVector", fallback, name, dec, err)
				continue
			}
			if n, calls := s.NumInstances(), eng.OptimizeCalls(); n != 0 || calls != 0 {
				t.Errorf("fallback=%v %s: %d instances cached, %d optimizer calls after rejection; want 0, 0",
					fallback, name, n, calls)
			}
			for _, sv := range [][]float64{{1e-4, 1e-4}, {0.9, 0.9}, {1e-4, 0.9}} {
				dec, err := s.Process(ctx, sv)
				if err != nil || dec.Degraded {
					t.Fatalf("fallback=%v %s: valid %v after rejection: %+v, %v", fallback, name, sv, dec, err)
				}
			}
			// A warm cache rejects it too.
			if _, err := s.Process(ctx, bad); !errors.Is(err, ErrInvalidVector) {
				t.Errorf("fallback=%v %s: warm Process err = %v, want ErrInvalidVector", fallback, name, err)
			}
		}
	}
}

func TestSeedInstanceRejectsInvalidVector(t *testing.T) {
	eng := twoPlaneEngine(t)
	s := mustSCR(t, eng, WithLambda(2))
	cp, c, err := eng.Optimize([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range invalidVectors {
		if err := s.SeedInstance(bad, cp, c, 1); !errors.Is(err, ErrInvalidVector) {
			t.Errorf("%s: SeedInstance err = %v, want ErrInvalidVector", name, err)
		}
	}
	if n := s.NumInstances(); n != 0 {
		t.Fatalf("%d instances cached after rejected seeds, want 0", n)
	}
}

// A snapshot whose instance vector left (0,1] is rejected whole: nothing
// is installed, and the cache still imports a valid snapshot afterwards.
func TestImportRejectsInvalidVector(t *testing.T) {
	eng := realEngine(t)
	src := mustSCR(t, eng, WithLambda(2))
	if _, err := src.Process(context.Background(), []float64{0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	good, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	var snap cacheJSON
	if err := json.Unmarshal(good, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Instances[0].V = []float64{1.5, 0.1}
	bad, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	dst := mustSCR(t, eng, WithLambda(2))
	if err := dst.Import(bad); !errors.Is(err, ErrInvalidVector) {
		t.Fatalf("Import err = %v, want ErrInvalidVector", err)
	}
	if n, p := dst.NumInstances(), dst.Stats().CurPlans; n != 0 || p != 0 {
		t.Fatalf("rejected import left %d instances, %d plans; want 0, 0", n, p)
	}
	if err := dst.Import(good); err != nil {
		t.Fatalf("valid import after rejection: %v", err)
	}
}
