// Package workload generates the query-instance sequences the paper's
// evaluation runs on (§7.1): selectivity-space bucketization into d+2
// regions, fixed-length instance sets, and the five orderings of Appendix
// H.1 (random, decreasing optimal cost, round-robin by optimal plan,
// inside-out and outside-in by optimal cost).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/query"
)

// Instance is one query instance of a sequence: its selectivity vector plus
// the ground truth (optimal cost and optimal plan fingerprint) filled in by
// Prepare.
type Instance struct {
	SV      []float64
	OptCost float64
	OptFP   string
}

// Sequence is an ordered workload for one template.
type Sequence struct {
	Name      string
	Tpl       *query.Template
	Instances []Instance
}

// Region bounds used by the bucketization: "small" selectivities are
// log-uniform in [SmallLo, SmallHi], "large" ones uniform in [LargeLo,
// LargeHi].
const (
	SmallLo = 1e-4
	SmallHi = 0.05
	LargeLo = 0.2
	LargeHi = 0.9
)

// GenerateSet produces m selectivity vectors for a d-dimensional template
// using the paper's bucketization: m/(d+2) instances from each of Region0
// (all small), Region1 (all large) and Region_di (only dimension i large),
// in random order.
func GenerateSet(d, m int, seed int64) ([]Instance, error) {
	if d <= 0 {
		return nil, fmt.Errorf("workload: dimensions %d must be positive", d)
	}
	if m <= 0 {
		return nil, fmt.Errorf("workload: length %d must be positive", m)
	}
	rng := rand.New(rand.NewSource(seed))
	regions := d + 2
	out := make([]Instance, 0, m)
	for r := 0; r < regions; r++ {
		count := m / regions
		if r < m%regions {
			count++
		}
		for i := 0; i < count; i++ {
			sv := make([]float64, d)
			for dim := 0; dim < d; dim++ {
				large := r == 1 || (r >= 2 && r-2 == dim)
				if large {
					sv[dim] = LargeLo + rng.Float64()*(LargeHi-LargeLo)
				} else {
					sv[dim] = logUniform(rng, SmallLo, SmallHi)
				}
			}
			out = append(out, Instance{SV: sv})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// fpBufs holds the fingerprint buffers Prepare's workers write into.
var fpBufs = sync.Pool{New: func() any { return new([]byte) }}

// Prepare fills in each instance's ground truth — optimal cost and optimal
// plan fingerprint — by optimizing it (the paper does the same offline pass
// to construct orderings, Appendix H.1). It asks the engine for the
// optimum only (TemplateEngine.OptimalCost), so no plan tree or recost
// representation is built, and instances with the same optimal plan share
// one fingerprint string. Instances are optimized in parallel (package
// par) and each result is written by index, so the output is in input
// order and equals that of a sequential Optimize loop; on failure the
// error names the lowest-index failing instance. The engine's accounting
// is left untouched beyond the calls themselves; callers that need clean
// technique accounting should use a separate engine or reset timings
// afterwards.
func Prepare(eng *engine.TemplateEngine, insts []Instance) ([]Instance, error) {
	out := make([]Instance, len(insts))
	var (
		mu  sync.Mutex
		fps = make(map[string]string)
	)
	err := par.Do(len(insts), func(i int) error {
		buf := fpBufs.Get().(*[]byte)
		defer fpBufs.Put(buf)
		q := insts[i]
		c, fp, err := eng.OptimalCost(q.SV, *buf)
		*buf = fp
		if err != nil {
			return fmt.Errorf("workload: preparing instance %d: %w", i, err)
		}
		q.OptCost = c
		mu.Lock()
		s, ok := fps[string(fp)]
		if !ok {
			s = string(fp)
			fps[s] = s
		}
		mu.Unlock()
		q.OptFP = s
		out[i] = q
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Ordering selects one of the Appendix H.1 sequence orderings.
type Ordering int

const (
	// Random shuffles instances uniformly.
	Random Ordering = iota
	// DecreasingCost orders by descending optimal cost (adversarial for
	// PCM, which then never sees a dominating pair in time).
	DecreasingCost
	// RoundRobinByPlan deals instances from the optimality region of each
	// distinct plan in turn.
	RoundRobinByPlan
	// InsideOut starts at instances with near-median optimal cost and
	// diverges towards the extremes.
	InsideOut
	// OutsideIn alternates extreme-cost instances first, converging to the
	// median.
	OutsideIn
)

// AllOrderings lists every ordering, in the order experiments report them.
var AllOrderings = []Ordering{Random, DecreasingCost, RoundRobinByPlan, InsideOut, OutsideIn}

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case Random:
		return "random"
	case DecreasingCost:
		return "decreasing-cost"
	case RoundRobinByPlan:
		return "round-robin"
	case InsideOut:
		return "inside-out"
	case OutsideIn:
		return "outside-in"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// Order returns a new slice with the instances arranged per the ordering.
// DecreasingCost, RoundRobinByPlan, InsideOut and OutsideIn require
// Prepare to have been run (they consult OptCost/OptFP).
func Order(insts []Instance, o Ordering, seed int64) ([]Instance, error) {
	out := make([]Instance, len(insts))
	copy(out, insts)
	switch o {
	case Random:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out, nil

	case DecreasingCost:
		if err := requirePrepared(out); err != nil {
			return nil, err
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].OptCost > out[j].OptCost })
		return out, nil

	case RoundRobinByPlan:
		if err := requirePrepared(out); err != nil {
			return nil, err
		}
		byPlan := make(map[string][]Instance)
		var planOrder []string
		for _, q := range out {
			if _, seen := byPlan[q.OptFP]; !seen {
				planOrder = append(planOrder, q.OptFP)
			}
			byPlan[q.OptFP] = append(byPlan[q.OptFP], q)
		}
		sort.Strings(planOrder)
		result := out[:0]
		for len(result) < len(insts) {
			for _, fp := range planOrder {
				if len(byPlan[fp]) > 0 {
					result = append(result, byPlan[fp][0])
					byPlan[fp] = byPlan[fp][1:]
				}
			}
		}
		return result, nil

	case InsideOut, OutsideIn:
		if err := requirePrepared(out); err != nil {
			return nil, err
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].OptCost < out[j].OptCost })
		n := len(out)
		result := make([]Instance, 0, n)
		lo, hi := 0, n-1
		if o == OutsideIn {
			// Alternate extremes: lowest, highest, next-lowest, ...
			for lo <= hi {
				result = append(result, out[lo])
				lo++
				if lo <= hi {
					result = append(result, out[hi])
					hi--
				}
			}
			return result, nil
		}
		// InsideOut: start at the median and spiral outwards.
		mid := n / 2
		result = append(result, out[mid])
		for step := 1; len(result) < n; step++ {
			if mid-step >= 0 {
				result = append(result, out[mid-step])
			}
			if mid+step < n {
				result = append(result, out[mid+step])
			}
		}
		return result, nil

	default:
		return nil, fmt.Errorf("workload: unknown ordering %d", int(o))
	}
}

func requirePrepared(insts []Instance) error {
	for i := range insts {
		if insts[i].OptCost <= 0 || insts[i].OptFP == "" {
			return fmt.Errorf("workload: ordering requires Prepare (instance %d lacks ground truth)", i)
		}
	}
	return nil
}

// BuildSequences generates, prepares and orders a full experiment input:
// one sequence per requested ordering over a common m-instance set.
func BuildSequences(eng *engine.TemplateEngine, tpl *query.Template, m int, seed int64,
	orderings []Ordering) ([]*Sequence, error) {

	base, err := GenerateSet(tpl.Dimensions(), m, seed)
	if err != nil {
		return nil, err
	}
	base, err = Prepare(eng, base)
	if err != nil {
		return nil, err
	}
	seqs := make([]*Sequence, 0, len(orderings))
	for _, o := range orderings {
		ordered, err := Order(base, o, seed+int64(o)+1)
		if err != nil {
			return nil, err
		}
		seqs = append(seqs, &Sequence{
			Name:      fmt.Sprintf("%s/%s", tpl.Name, o),
			Tpl:       tpl,
			Instances: ordered,
		})
	}
	return seqs, nil
}

// DistinctOptimalPlans reports n, the number of distinct optimal plans over
// the (prepared) instance set — the paper's |P| per workload.
func DistinctOptimalPlans(insts []Instance) int {
	seen := make(map[string]bool)
	for _, q := range insts {
		if q.OptFP != "" {
			seen[q.OptFP] = true
		}
	}
	return len(seen)
}
