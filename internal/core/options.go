package core

import (
	"fmt"
	"time"

	"repro/internal/stripe"
)

// Option configures an SCR built with New. Options validate their inputs
// and return errors instead of silently substituting defaults; an invalid
// option fails New with an error wrapping ErrInvalidConfig.
type Option func(*config) error

// DefaultLambda is the sub-optimality bound New uses when no WithLambda
// option is given (the λ=2 operating point the paper evaluates most).
const DefaultLambda = 2.0

// New builds an SCR over eng from functional options, the only way to
// build one. Every knob is an explicit option with validation, and omitted
// options take the documented defaults (λ=2, λr=√λ, cost-check limit 8, no
// plan budget, no violation detection).
func New(eng Engine, opts ...Option) (*SCR, error) {
	cfg := config{Lambda: DefaultLambda, CostCheckLimit: 8, ViolationTolerance: 0.01, SkewBound: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	// The one check no single option can make: an explicit λr must not
	// exceed λ, whichever of WithRedundancyThreshold and WithLambda came
	// first.
	if cfg.LambdaR > cfg.Lambda {
		return nil, optErr("lambdaR %v must lie in [1, lambda %v]", cfg.LambdaR, cfg.Lambda)
	}
	s := &SCR{cfg: cfg, eng: eng}
	s.ctr.hot = stripe.NewSet()
	if ee, ok := eng.(EpochEngine); ok {
		s.epochEng = ee
	}
	if cfg.BreakerThreshold > 0 {
		s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	s.dom.init(s)
	return s, nil
}

func optErr(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
}

// WithLambda sets the cost sub-optimality bound λ ≥ 1 every processed
// instance must satisfy.
func WithLambda(lambda float64) Option {
	return func(c *config) error {
		if !(lambda >= 1) { // also rejects NaN
			return optErr("lambda %v must be >= 1", lambda)
		}
		c.Lambda = lambda
		return nil
	}
}

// WithDynamicLambda enables Appendix D's per-instance λ: cheap instances
// get a bound near max, expensive ones near min, decaying exponentially on
// the refCost scale.
func WithDynamicLambda(min, max, refCost float64) Option {
	return func(c *config) error {
		if !(min >= 1 && max >= min) {
			return optErr("dynamic lambda range [%v, %v] invalid", min, max)
		}
		if !(refCost > 0) {
			return optErr("dynamic lambda refCost %v must be > 0", refCost)
		}
		c.Dynamic = &DynamicLambda{Min: min, Max: max, RefCost: refCost}
		return nil
	}
}

// WithRedundancyThreshold sets the redundancy-check threshold λr in
// [1, λ] (Appendix E). Without this option λr defaults to √λ.
func WithRedundancyThreshold(lambdaR float64) Option {
	return func(c *config) error {
		if !(lambdaR >= 1) {
			return optErr("lambdaR %v must be >= 1", lambdaR)
		}
		c.LambdaR = lambdaR
		return nil
	}
}

// WithStoreAlways disables the redundancy check entirely: every newly
// optimized plan is kept (λr = 1).
func WithStoreAlways() Option {
	return func(c *config) error {
		c.StoreAlways = true
		return nil
	}
}

// WithPlanBudget sets the hard limit k ≥ 1 on cached plans (§6.3.1),
// enforced by LFU eviction. Without this option the cache is unbounded.
func WithPlanBudget(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return optErr("plan budget %d must be >= 1 (omit the option for unlimited)", k)
		}
		c.PlanBudget = k
		return nil
	}
}

// WithCostCheckLimit bounds the number of Recost calls per getPlan to
// n ≥ 1 (§6.2's pruning heuristic). Without this option the limit is 8.
func WithCostCheckLimit(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return optErr("cost-check limit %d must be >= 1", n)
		}
		c.CostCheckLimit = n
		return nil
	}
}

// WithCandidateOrderByL sorts cost-check candidates by increasing L
// instead of the paper's increasing G·L (see config.OrderCandidatesByL).
func WithCandidateOrderByL() Option {
	return func(c *config) error {
		c.OrderCandidatesByL = true
		return nil
	}
}

// WithDegradedFallback enables degraded-mode serving: when the optimizer
// is unavailable (error, panic, deadline expiry, open circuit breaker)
// Process serves the cheapest cached plan and flags the Decision as
// Degraded with a DegradedReason, instead of returning an error. Degraded
// decisions explicitly relax the λ guarantee — see docs/ROBUSTNESS.md for
// the full degradation ladder. Context cancellation is never absorbed:
// a cancelled caller still gets an ErrCancelled error.
func WithDegradedFallback() Option {
	return func(c *config) error {
		c.DegradedFallback = true
		return nil
	}
}

// WithOptimizerDeadline bounds each full optimizer call to d > 0. A call
// exceeding the deadline is abandoned — it keeps running detached and
// still populates the plan cache if it completes — and the waiting
// instance is served degraded (with WithDegradedFallback) or fails with
// ErrOptimizerTimeout.
func WithOptimizerDeadline(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return optErr("optimizer deadline %v must be > 0", d)
		}
		c.OptimizerDeadline = d
		return nil
	}
}

// WithCircuitBreaker arms a circuit breaker on the optimizer: after
// failures >= 1 consecutive optimizer failures/timeouts the breaker opens
// and optimizer calls are skipped for cooldown > 0, after which a single
// half-open probe decides whether to close it again. While open, instances
// that miss the cache are served degraded (with WithDegradedFallback) or
// fail with ErrBreakerOpen.
func WithCircuitBreaker(failures int, cooldown time.Duration) Option {
	return func(c *config) error {
		if failures < 1 {
			return optErr("breaker threshold %d must be >= 1", failures)
		}
		if cooldown <= 0 {
			return optErr("breaker cooldown %v must be > 0", cooldown)
		}
		c.BreakerThreshold = failures
		c.BreakerCooldown = cooldown
		return nil
	}
}

// WithClusterSkewBound sets how many statistics generations n ≥ 1 the node
// may lag the observed cluster epoch (ObserveClusterEpoch) before Process
// flags every decision as ViaFallback/"epoch-skew". Without this option the
// bound is 1: adjacent generations only, matching the epoch coordinator's
// default withhold rule (docs/ROBUSTNESS.md).
func WithClusterSkewBound(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return optErr("cluster skew bound %d must be >= 1", n)
		}
		c.SkewBound = n
		return nil
	}
}

// WithViolationDetection enables Appendix G's BCG-violation quarantine
// with the given relative tolerance in (0, 1).
func WithViolationDetection(tolerance float64) Option {
	return func(c *config) error {
		if !(tolerance > 0 && tolerance < 1) {
			return optErr("violation tolerance %v must be in (0, 1)", tolerance)
		}
		c.DetectViolations = true
		c.ViolationTolerance = tolerance
		return nil
	}
}
