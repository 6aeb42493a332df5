package stats

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/par"
)

// Store holds the histograms for every (table, column) of a catalog and
// answers selectivity queries. It is the statistics module a database
// engine's optimizer consults during logical property derivation.
type Store struct {
	cat   *catalog.Catalog
	hists map[string]*Histogram // key: "table.column"
}

// DefaultSampleSize is the number of values sampled per column when building
// a Store; DefaultBuckets is the histogram resolution. 200 equi-depth
// buckets give ~0.5% selectivity resolution, comparable to SQL Server's
// 200-step histograms.
const (
	DefaultSampleSize = 20000
	DefaultBuckets    = 200
)

// Build constructs a statistics store for every column of every table in
// cat, sampling values with gen. Columns are sampled and bucketed in
// parallel (package par): each column's sample is seeded by its own name,
// so the store does not depend on scheduling, and the error returned is
// that of the first failing column in catalog order.
func Build(cat *catalog.Catalog, gen *datagen.Generator) (*Store, error) {
	type job struct {
		table, column string
		sample        int
	}
	var jobs []job
	for _, t := range cat.Tables() {
		sample := DefaultSampleSize
		if int64(sample) > t.Rows {
			sample = int(t.Rows)
		}
		for _, col := range t.Columns {
			jobs = append(jobs, job{t.Name, col.Name, sample})
		}
	}
	hists := make([]*Histogram, len(jobs))
	err := par.Do(len(jobs), func(i int) error {
		j := jobs[i]
		vals, err := gen.ColumnSample(j.table, j.column, j.sample)
		if err != nil {
			return fmt.Errorf("stats: sampling %s.%s: %w", j.table, j.column, err)
		}
		if hists[i], err = BuildHistogram(vals, DefaultBuckets); err != nil {
			return fmt.Errorf("stats: histogram for %s.%s: %w", j.table, j.column, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &Store{cat: cat, hists: make(map[string]*Histogram, len(jobs))}
	for i, j := range jobs {
		s.hists[j.table+"."+j.column] = hists[i]
	}
	return s, nil
}

// Histogram returns the histogram for table.column, or nil if absent.
func (s *Store) Histogram(table, column string) *Histogram {
	return s.hists[table+"."+column]
}

// SelectivityLE estimates the selectivity of the predicate column <= v.
func (s *Store) SelectivityLE(table, column string, v float64) (float64, error) {
	h := s.hists[table+"."+column]
	if h == nil {
		return 0, fmt.Errorf("stats: no histogram for %s.%s", table, column)
	}
	return h.SelectivityLE(v), nil
}

// SelectivityGE estimates the selectivity of the predicate column >= v.
func (s *Store) SelectivityGE(table, column string, v float64) (float64, error) {
	h := s.hists[table+"."+column]
	if h == nil {
		return 0, fmt.Errorf("stats: no histogram for %s.%s", table, column)
	}
	return h.SelectivityGE(v), nil
}

// ValueForSelectivityLE returns a parameter value v such that the predicate
// column <= v has approximately the requested selectivity.
func (s *Store) ValueForSelectivityLE(table, column string, sel float64) (float64, error) {
	h := s.hists[table+"."+column]
	if h == nil {
		return 0, fmt.Errorf("stats: no histogram for %s.%s", table, column)
	}
	return h.ValueAtFraction(sel), nil
}

// ValueForSelectivityGE returns a parameter value v such that the predicate
// column >= v has approximately the requested selectivity.
func (s *Store) ValueForSelectivityGE(table, column string, sel float64) (float64, error) {
	h := s.hists[table+"."+column]
	if h == nil {
		return 0, fmt.Errorf("stats: no histogram for %s.%s", table, column)
	}
	return h.ValueAtFraction(1 - sel), nil
}
