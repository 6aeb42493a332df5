package stats

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// suiteCatalog is one catalog of the experiment suite with the offset the
// suite adds to its seed.
type suiteCatalog struct {
	cat    *catalog.Catalog
	offset int64
}

func suiteCatalogs() []suiteCatalog {
	return []suiteCatalog{
		{catalog.NewTPCH(0.1), 0},
		{catalog.NewTPCDS(0.1), 1},
		{catalog.NewRD1(), 2},
		{catalog.NewRD2(), 3},
	}
}

// sameHistogram reports whether a and b agree bit for bit.
func sameHistogram(a, b *Histogram) bool {
	if a.total != b.total || len(a.bounds) != len(b.bounds) || len(a.cum) != len(b.cum) {
		return false
	}
	for i := range a.bounds {
		if math.Float64bits(a.bounds[i]) != math.Float64bits(b.bounds[i]) ||
			math.Float64bits(a.cum[i]) != math.Float64bits(b.cum[i]) {
			return false
		}
	}
	return true
}

// TestBuildMatchesComparisonSortReference builds the four suite catalogs
// under three seeds and checks every histogram, bit for bit, against a
// reference that takes the same column draws, sorts them with
// sort.Float64s and buckets one column after another.
func TestBuildMatchesComparisonSortReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, sc := range suiteCatalogs() {
			gen := datagen.New(sc.cat, seed+sc.offset)
			st, err := Build(sc.cat, gen)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.cat.Name, seed, err)
			}
			n := 0
			for _, tbl := range sc.cat.Tables() {
				sample := DefaultSampleSize
				if int64(sample) > tbl.Rows {
					sample = int(tbl.Rows)
				}
				for _, col := range tbl.Columns {
					n++
					vals, err := gen.ColumnValues(tbl.Name, col.Name, sample)
					if err != nil {
						t.Fatal(err)
					}
					sort.Float64s(vals)
					want := mustHist(t, vals, DefaultBuckets)
					got := st.Histogram(tbl.Name, col.Name)
					if got == nil || !sameHistogram(got, want) {
						t.Fatalf("%s seed %d: histogram of %s.%s differs from the sort.Float64s reference",
							sc.cat.Name, seed, tbl.Name, col.Name)
					}
				}
			}
			if got := len(st.Columns()); got != n {
				t.Fatalf("%s seed %d: store has %d histograms, catalog has %d columns", sc.cat.Name, seed, got, n)
			}
		}
	}
}

// TestBuildIndependentOfWorkers: the column-parallel build gives the same
// store on one worker as on four.
func TestBuildIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(procs int) []*Store {
		runtime.GOMAXPROCS(procs)
		var out []*Store
		for _, sc := range suiteCatalogs() {
			st, err := Build(sc.cat, datagen.New(sc.cat, 7+sc.offset))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st)
		}
		return out
	}
	one, four := build(1), build(4)
	for i := range one {
		keys := one[i].Columns()
		if len(keys) != len(four[i].Columns()) {
			t.Fatalf("catalog %d: %d vs %d histograms", i, len(keys), len(four[i].Columns()))
		}
		for _, k := range keys {
			a, b := one[i].hists[k], four[i].hists[k]
			if b == nil || !sameHistogram(a, b) {
				t.Fatalf("catalog %d: histogram %s differs between GOMAXPROCS 1 and 4", i, k)
			}
		}
	}
}
