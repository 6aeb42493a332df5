package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memo"
)

// counts are the public counters of the layers, as deltas over one timed
// phase (cachedInstances and maxPlans are end-of-phase values).
type counts struct {
	scr                 scrTotals
	eng                 engTotals
	envGets, envReuses  int64
	via                 [core.ViaFallback + 1]int64 // decisions by the check that made them
	installs            []installStat
	mallocs, allocBytes int64
}

// scrTotals sums SCR.Stats over a workload's plan caches.
type scrTotals struct {
	instances, optCalls, sharedOpt int64
	getPlanRecosts, manageRecosts  int64
	selChecks, degraded            int64
	publishTotal, publishCoalesced int64
	writerWait                     time.Duration
	maxPlans, cachedInstances      int64
}

func scrSum(scrs []*core.SCR) scrTotals {
	var t scrTotals
	for _, s := range scrs {
		st := s.Stats()
		t.instances += st.Instances
		t.optCalls += st.OptCalls
		t.sharedOpt += st.SharedOptCalls
		t.getPlanRecosts += st.GetPlanRecosts
		t.manageRecosts += st.ManageRecosts
		t.selChecks += st.SelChecks
		t.degraded += st.DegradedDecisions
		t.publishTotal += st.PublishTotal
		t.publishCoalesced += st.PublishCoalesced
		t.writerWait += st.WriteLockWait
		t.maxPlans += int64(st.MaxPlans)
		t.cachedInstances += int64(s.NumInstances())
	}
	return t
}

// since returns the counter deltas from b to t, keeping t's end-of-phase
// sizes.
func (t scrTotals) since(b scrTotals) scrTotals {
	t.instances -= b.instances
	t.optCalls -= b.optCalls
	t.sharedOpt -= b.sharedOpt
	t.getPlanRecosts -= b.getPlanRecosts
	t.manageRecosts -= b.manageRecosts
	t.selChecks -= b.selChecks
	t.degraded -= b.degraded
	t.publishTotal -= b.publishTotal
	t.publishCoalesced -= b.publishCoalesced
	t.writerWait -= b.writerWait
	return t
}

// add accumulates the counters of o, a later set of caches, and takes its
// sizes.
func (t *scrTotals) add(o scrTotals) {
	t.instances += o.instances
	t.optCalls += o.optCalls
	t.sharedOpt += o.sharedOpt
	t.getPlanRecosts += o.getPlanRecosts
	t.manageRecosts += o.manageRecosts
	t.selChecks += o.selChecks
	t.degraded += o.degraded
	t.publishTotal += o.publishTotal
	t.publishCoalesced += o.publishCoalesced
	t.writerWait += o.writerWait
	t.maxPlans = o.maxPlans
	t.cachedInstances = o.cachedInstances
}

// engTotals sums TemplateEngine.Timing and RecostCacheCounters.
type engTotals struct {
	optNs, recostNs, optCalls, recostCalls, rcHits, rcMisses int64
}

func engSum(engs []*engine.TemplateEngine) engTotals {
	var t engTotals
	for _, e := range engs {
		opt, rec, oc, rc := e.Timing()
		h, m := e.RecostCacheCounters()
		t.add(engTotals{int64(opt), int64(rec), oc, rc, h, m})
	}
	return t
}

func (t *engTotals) add(o engTotals) {
	t.optNs += o.optNs
	t.recostNs += o.recostNs
	t.optCalls += o.optCalls
	t.recostCalls += o.recostCalls
	t.rcHits += o.rcHits
	t.rcMisses += o.rcMisses
}

func (t engTotals) since(b engTotals) engTotals {
	b.optNs, b.recostNs, b.optCalls = -b.optNs, -b.recostNs, -b.optCalls
	b.recostCalls, b.rcHits, b.rcMisses = -b.recostCalls, -b.rcHits, -b.rcMisses
	t.add(b)
	return t
}

// envSum sums the pooled-environment counters of distinct optimizers.
func envSum(opts []*memo.Optimizer) (gets, reuses int64) {
	for _, o := range opts {
		g, r := o.EnvPoolCounters()
		gets += g
		reuses += r
	}
	return gets, reuses
}

// installStat times one statistics-epoch install.
type installStat struct {
	resample, advance, drain time.Duration
	entries                  int64 // lagging entries the revalidation runs took on
}

// pendingInstall is an installed epoch whose revalidation is running.
type pendingInstall struct {
	epoch    uint64 // id of the installed epoch
	stat     installStat
	advanced time.Time
	revals   map[string]*core.Revalidation
	tr       *tracer
	trStart  int64
}

// installEpoch installs one statistics generation the way the server's
// statistics admin does: ResampleStats, AdvanceEpoch, then
// Directory.Revalidate in the background.
func installEpoch(sys *engine.System, dir *core.Directory, seed int64, tr *tracer) (*pendingInstall, error) {
	p := &pendingInstall{tr: tr}
	start := time.Now()
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	st, err := sys.ResampleStats(seed)
	if err != nil {
		return nil, err
	}
	resampled := time.Now()
	var t1 int64
	if tr != nil {
		t1 = tr.now()
		tr.record(span{kind: kResample, id: tr.newID(), start: t0, end: t1})
	}
	p.epoch = sys.AdvanceEpoch(st).ID
	p.advanced = time.Now()
	if tr != nil {
		p.trStart = tr.now()
		tr.record(span{kind: kAdvance, id: tr.newID(), start: t1, end: p.trStart})
	}
	p.stat.resample = resampled.Sub(start)
	p.stat.advance = p.advanced.Sub(resampled)
	p.revals, err = dir.Revalidate(context.Background(), 0)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// wait blocks until every revalidation run is done and returns the
// install's timings, drain measured from AdvanceEpoch.
func (p *pendingInstall) wait() installStat {
	for _, r := range p.revals {
		<-r.Done()
		p.stat.entries += r.Progress().Total
	}
	p.stat.drain = time.Since(p.advanced)
	if p.tr != nil {
		p.tr.record(span{kind: kRevalidate, id: p.tr.newID(), start: p.trStart, end: p.tr.now()})
	}
	return p.stat
}

// drainProbe installs n epochs on sys one after another, each waited to
// drain, and returns the median drain in ms. Seeds come from seed.
func drainProbe(sys *engine.System, scrs map[string]*core.SCR, n int, seed int64, tr *tracer) (float64, []installStat, error) {
	dir := core.NewDirectory()
	for name, s := range scrs {
		if err := dir.Attach(name, s); err != nil {
			return 0, nil, err
		}
	}
	var stats []installStat
	drains := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		p, err := installEpoch(sys, dir, subSeed(seed, 0x9e, int64(i)), tr)
		if err != nil {
			return 0, nil, err
		}
		st := p.wait()
		stats = append(stats, st)
		drains = append(drains, float64(st.drain)/1e6)
	}
	return median(drains), stats, nil
}

// subSeed derives a seed from a parent seed and a path of integers
// (splitmix64 finalizer), so each template, worker and chunk gets its own
// reproducible stream.
func subSeed(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// layerMetrics computes the per-layer metrics of a traced phase. A
// metric whose layer the workload does not exercise reads 0.
func layerMetrics(ph *phase, tr *tracer) metrics {
	st := tr.summarize()
	c := &ph.c
	n := float64(ph.decisions)
	m := metrics{}

	// server: the request envelope (hits-http).
	m.set("server.handler_us", "us", div(float64(st.handlerNs), float64(st.requests))/1e3)
	m.set("server.self_us", "us", div(float64(st.selfNs), float64(st.requests))/1e3)
	m.set("http.transport_us", "us", div(float64(st.transpNs), float64(st.requests))/1e3)

	// proc: the whole process, client included on hits-http.
	m.set("proc.allocs_per_op", "count", div(float64(c.mallocs), n))
	m.set("proc.alloc_bytes_per_op", "B", div(float64(c.allocBytes), n))

	// core, read path and decision mix.
	s := c.scr
	m.set("core.process_us", "us", st.meanUs(kProcess))
	// Self time needs optimizer spans attributed to their Process call,
	// which only the single-goroutine suite-replay has.
	self := 0.0
	if st.optimizeInProcess > 0 {
		self = float64(st.total[kProcess]-st.optimizeInProcess-c.eng.recostNs) / float64(st.count[kProcess]) / 1e3
	}
	m.set("core.self_us", "us", self)
	m.set("core.sel_checks_per_op", "count", div(float64(s.selChecks), float64(s.instances)))
	m.set("core.cost_recosts_per_op", "count", div(float64(s.getPlanRecosts), float64(s.instances)))
	m.set("core.via_selectivity_frac", "fraction", div(float64(c.via[core.ViaSelectivity]), n))
	m.set("core.via_cost_frac", "fraction", div(float64(c.via[core.ViaCost]), n))
	m.set("core.via_optimizer_frac", "fraction", div(float64(c.via[core.ViaOptimizer]), n))
	m.set("core.manage_recosts_per_opt", "count", div(float64(s.manageRecosts), float64(s.optCalls)))

	// core, write path and revalidation.
	m.set("core.writer_wait_ms", "ms", float64(s.writerWait)/1e6)
	m.set("core.publish_per_mark", "fraction", div(float64(s.publishTotal), float64(s.publishTotal+s.publishCoalesced)))
	m.set("core.shared_opt_frac", "fraction", div(float64(s.sharedOpt), float64(s.optCalls+s.sharedOpt)))
	m.set("core.degraded_frac", "fraction", div(float64(s.degraded), float64(s.instances)))
	var entries, drainNs, resampleNs, advanceNs float64
	for _, in := range c.installs {
		entries += float64(in.entries)
		drainNs += float64(in.drain)
		resampleNs += float64(in.resample)
		advanceNs += float64(in.advance)
	}
	installs := float64(len(c.installs))
	m.set("core.reval_entries", "count", div(entries, installs))
	m.set("core.reval_us_per_entry", "us", div(drainNs, entries)/1e3)
	m.set("core.instances_cached", "count", float64(s.cachedInstances))

	// engine: Optimize and Recost under the memo optimizer.
	e := c.eng
	optUs := st.meanUs(kOptimize)
	recostUs := div(float64(e.recostNs), float64(e.recostCalls)) / 1e3
	m.set("engine.optimize_us", "us", optUs)
	m.set("engine.optimize_calls", "count", float64(e.optCalls))
	m.set("engine.recost_us", "us", recostUs)
	m.set("engine.recost_calls", "count", float64(e.recostCalls))
	m.set("engine.recost_cache_hit_frac", "fraction", div(float64(e.rcHits), float64(e.rcHits+e.rcMisses)))
	m.set("engine.env_reuse_frac", "fraction", div(float64(c.envReuses), float64(c.envGets)))
	m.set("engine.recost_speedup", "x", div(optUs, recostUs))

	// stats: epoch install.
	m.set("stats.resample_ms", "ms", div(resampleNs, installs)/1e6)
	m.set("stats.advance_us", "us", div(advanceNs, installs)/1e3)
	return m
}
