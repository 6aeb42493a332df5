package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/memo"
)

// PreparedInstance is a per-query-instance recosting context: the pooled
// selectivity environment, built once and used to recost any number of
// candidate plans. This is the batched form of TemplateEngine.Recost —
// SCR's top-k scan, ProbeCheck and the redundancy sweep recost N plans per
// instance, and pay for selectivity-state construction once instead of N
// times.
//
// The instance also memoizes its own results (plan → cost): getPlan's cost
// check often tries several candidate instances bound to the same plan,
// and every one of those recosts goes through one PreparedInstance. The
// memo lives exactly as long as the instance, so it can never outlive the
// vector or the statistics epoch its costs were derived under.
//
// A PreparedInstance is single-goroutine state; concurrent instances each
// prepare their own. Release returns it (and its environment) to the pool.
type PreparedInstance struct {
	eng   *TemplateEngine
	env   *memo.Env
	costs []planCost
}

// planCost is one memoized recost result, keyed by plan pointer.
type planCost struct {
	cp   *CachedPlan
	cost float64
}

// EpochID returns the statistics-epoch id this instance was prepared
// under. Every Recost through the instance is computed against exactly
// this generation.
func (pi *PreparedInstance) EpochID() uint64 { return pi.env.EpochID() }

var preparedPool = sync.Pool{New: func() any { return new(PreparedInstance) }}

// PrepareRecost builds a recosting context for one instance's selectivity
// vector. The instance keeps no reference to sv.
func (e *TemplateEngine) PrepareRecost(sv []float64) (*PreparedInstance, error) {
	//lint:allow envpool pool manager: PreparedInstance owns the env until its own Release
	env, err := e.Opt.PrepareEnv(e.Tpl, sv)
	if err != nil {
		return nil, err
	}
	pi := preparedPool.Get().(*PreparedInstance)
	pi.eng = e
	//lint:allow envpool pool manager: Release returns this env to the pool
	pi.env = env
	return pi, nil
}

// Recost computes the cost of a cached plan at this instance's selectivity
// vector, reusing the result if this instance already recosted cp.
func (pi *PreparedInstance) Recost(cp *CachedPlan) (float64, error) {
	if cp == nil {
		return 0, fmt.Errorf("engine: recost of nil cached plan")
	}
	e := pi.eng
	for i := range pi.costs {
		if pi.costs[i].cp == cp {
			e.memoCtr.Add(memoHit, 1)
			return pi.costs[i].cost, nil
		}
	}
	e.memoCtr.Add(memoMiss, 1)
	start := time.Now()
	c, err := cp.SM.RecostWith(e.Opt, pi.env)
	if err != nil {
		return 0, err
	}
	e.recostNanos.Add(time.Since(start).Nanoseconds())
	e.recostCalls.Add(1)
	pi.costs = append(pi.costs, planCost{cp: cp, cost: c}) //lint:allow hotalloc amortized growth, pooled instances keep the memo's capacity
	return c, nil
}

// Release returns the instance's pooled state. The memo keeps its capacity
// but drops its plan pointers, so a pooled instance pins no plans. The
// instance must not be used afterwards.
func (pi *PreparedInstance) Release() {
	if pi == nil {
		return
	}
	pi.eng.Opt.ReleaseEnv(pi.env)
	clear(pi.costs)
	pi.costs = pi.costs[:0]
	pi.eng, pi.env = nil, nil
	preparedPool.Put(pi)
}
