package stats

import (
	"fmt"
	"sort"

	"repro/internal/datagen"
)

// Epoch is one generation of the statistics lifecycle: a monotonically
// increasing id paired with the immutable Store that was current while the
// id was. Costs, G/L factors and recost results are all deterministic in
// (plan, sv, statistics), so an epoch id is a complete validity token for
// any derived cost: two values computed under the same epoch are mutually
// consistent, and a value tagged with an older epoch is stale — not wrong,
// just answered against the previous statistics generation.
//
// Epochs are immutable after construction. The optimizer publishes the
// current epoch through an atomic pointer (memo.Optimizer.Epoch), so a
// reader always observes a consistent (id, store) pair even while an
// AdvanceEpoch is in flight. This package deliberately records no wall
// clock — stats feed cost derivation, which must be deterministic; the
// serving layer timestamps epoch advances instead.
type Epoch struct {
	// ID is the monotonic generation number, starting at 1 for the store
	// an optimizer was constructed with. ID 0 is reserved for engines
	// without an epoch lifecycle ("epoch-less"), so a zero value never
	// collides with a real generation.
	ID uint64
	// Store is the statistics snapshot of this generation.
	Store *Store
}

// HistogramDelta replaces the histogram of one column: the raw sample
// values, which must all be finite, are sorted and rebuilt into an
// equi-depth histogram with
// DefaultBuckets resolution (or Buckets when positive). It is the unit of
// an incremental statistics update — the online alternative to rebuilding
// a full Store.
type HistogramDelta struct {
	Table   string    `json:"table"`
	Column  string    `json:"column"`
	Values  []float64 `json:"values"`
	Buckets int       `json:"buckets,omitempty"`
}

// Apply derives a new Store from s with the given histogram deltas
// applied. The receiver is not modified: unchanged histograms are shared
// structurally (they are immutable), so a delta touching one column copies
// only the map, never the per-column data. Every delta must name a column
// the store already has a histogram for — a delta cannot invent columns the
// catalog does not know.
func (s *Store) Apply(deltas []HistogramDelta) (*Store, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("stats: empty delta")
	}
	next := &Store{cat: s.cat, hists: make(map[string]*Histogram, len(s.hists))}
	for k, h := range s.hists {
		next.hists[k] = h
	}
	for _, d := range deltas {
		key := d.Table + "." + d.Column
		if _, ok := s.hists[key]; !ok {
			return nil, fmt.Errorf("stats: delta for unknown column %s", key)
		}
		if len(d.Values) == 0 {
			return nil, fmt.Errorf("stats: delta for %s has no values", key)
		}
		// Checked before sorting, so the index is the caller's.
		if err := checkFinite(d.Values); err != nil {
			return nil, fmt.Errorf("stats: delta for %s: %w", key, err)
		}
		vals := append([]float64(nil), d.Values...)
		datagen.SortFloat64s(vals)
		buckets := d.Buckets
		if buckets <= 0 {
			buckets = DefaultBuckets
		}
		h, err := BuildHistogram(vals, buckets)
		if err != nil {
			return nil, fmt.Errorf("stats: delta for %s: %w", key, err)
		}
		next.hists[key] = h
	}
	return next, nil
}

// Columns lists every "table.column" key the store holds a histogram for,
// sorted for deterministic output.
func (s *Store) Columns() []string {
	keys := make([]string, 0, len(s.hists))
	for k := range s.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
