package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/stats"
	"repro/internal/suite"
	"repro/internal/workload"
)

// freshFrac is the share of churn-mixed decisions on instances the warm
// caches have never seen; the rest repeat warm instances.
const freshFrac = 0.3

// episodeInstalls is the number of churnK-operation stretches in one
// episode; an epoch is installed between consecutive stretches.
const episodeInstalls = 3

// sampleEvery keeps every sampleEvery-th decision of each worker for the
// ground-truth check after its episode.
const sampleEvery = 16

// churn is the churn-mixed workload: the TPC-H templates under one
// Directory with warm caches, nproc closed-loop workers mixing repeats
// with fresh instances, and a statistics epoch installed every churnK
// operations while the reads continue.
//
// Fresh instances grow the caches, so the timed phase is cut into
// episodes of episodeInstalls×churnK operations. Every episode starts from
// the same warm caches under the set-up statistics, with operations drawn
// afresh from the workload seed and the episode's number. The work per
// second therefore does not drift with how many operations a run manages,
// and the per-episode figures are independent draws.
type churn struct {
	cfg   config
	sys   *engine.System
	base  *stats.Store // the set-up statistics, reinstalled by every episode
	ents  []suite.Entry
	ces   []core.Engine // the engines the caches use, traced or not
	engs  []*engine.TemplateEngine
	gts   []*engine.TemplateEngine // ground-truth engines
	warm  []churnInst
	snaps [][]byte // each template's warm cache, exported

	dir   *core.Directory
	scrs  []*core.SCR
	seeds map[uint64]int64 // statistics epoch id → its resample seed
	// stores caches the verification stores by resample seed.
	stores map[int64]*stats.Store
}

type churnInst struct {
	tpl int
	sv  []float64
}

// churnSample is one decision kept for verification.
type churnSample struct {
	churnInst
	plan     *engine.CachedPlan
	epoch    uint64
	degraded bool
}

func setupChurn(cfg config, tr *tracer) (bench, error) {
	systems, all, err := buildSuite(scale{})
	if err != nil {
		return nil, err
	}
	c := &churn{
		cfg:    cfg,
		sys:    systems.TPCH,
		base:   systems.TPCH.Stats,
		seeds:  make(map[uint64]int64),
		stores: make(map[int64]*stats.Store),
	}
	for _, e := range all {
		if e.Sys == c.sys && (cfg.sc.templates == 0 || len(c.ents) < cfg.sc.templates) {
			c.ents = append(c.ents, e)
		}
	}
	ctx := context.Background()
	for i, e := range c.ents {
		eng, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			return nil, err
		}
		gt, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			return nil, err
		}
		ce := traceEngine(eng, tr)
		s, err := core.New(ce, core.WithLambda(lambda))
		if err != nil {
			return nil, err
		}
		set, err := workload.GenerateSet(e.Tpl.Dimensions(), cfg.sc.churnWarm, subSeed(cfg.seed, 4, int64(i)))
		if err != nil {
			return nil, err
		}
		for _, in := range set {
			if _, err := s.Process(ctx, in.SV); err != nil {
				return nil, fmt.Errorf("warming %s: %w", e.Tpl.Name, err)
			}
			c.warm = append(c.warm, churnInst{tpl: i, sv: in.SV})
		}
		snap, err := s.Export()
		if err != nil {
			return nil, err
		}
		c.ces = append(c.ces, ce)
		c.engs = append(c.engs, eng)
		c.gts = append(c.gts, gt)
		c.snaps = append(c.snaps, snap)
	}
	return c, c.reset()
}

func (c *churn) close() {}

// reset reinstalls the set-up statistics as a new epoch and gives every
// template a fresh cache imported from its warm snapshot, under a fresh
// Directory.
func (c *churn) reset() error {
	c.seeds[c.sys.AdvanceEpoch(c.base).ID] = dbSeed
	c.dir = core.NewDirectory()
	c.scrs = c.scrs[:0]
	for i, e := range c.ents {
		s, err := core.New(c.ces[i], core.WithLambda(lambda))
		if err != nil {
			return err
		}
		if err := s.Import(c.snaps[i]); err != nil {
			return fmt.Errorf("restoring %s: %w", e.Tpl.Name, err)
		}
		if err := c.dir.Attach(e.Tpl.Name, s); err != nil {
			return err
		}
		c.scrs = append(c.scrs, s)
	}
	return nil
}

// churnWorker is one closed-loop worker's state and tally in an episode.
type churnWorker struct {
	rng               *rand.Rand
	fresh             []freshGen
	order             []int
	win               *windows
	attempted, failed int64
	decisions         int64
	via               [core.ViaFallback + 1]int64
	samples           []churnSample
}

// freshGen yields a template's fresh instances, generated in chunks with
// the paper's region bucketization.
type freshGen struct {
	d     int
	seed  int64
	chunk int64
	buf   []workload.Instance
}

func (g *freshGen) next() ([]float64, error) {
	if len(g.buf) == 0 {
		set, err := workload.GenerateSet(g.d, 64, subSeed(g.seed, g.chunk))
		if err != nil {
			return nil, err
		}
		g.buf = set
		g.chunk++
	}
	sv := g.buf[0].SV
	g.buf = g.buf[1:]
	return sv, nil
}

// churnShared is the state the workers of one episode share.
type churnShared struct {
	ops       atomic.Int64
	installMu sync.Mutex // orders epoch installs, as the server's admin does
	pending   sync.WaitGroup
	mu        sync.Mutex
	installs  []installStat
	err       error
}

// quality accumulates the verified decisions' costs.
type quality struct {
	chosenSum, optSum, mso float64
}

func (c *churn) run(d time.Duration, tr *tracer) (*phase, error) {
	opts := []*memo.Optimizer{c.sys.Opt}
	e0 := engSum(c.engs)
	g0, u0 := envSum(opts)
	wins := make([]*windows, runtime.NumCPU())
	for w := range wins {
		wins[w] = newWindows(d)
	}
	ph := &phase{}
	q := &quality{mso: 1}
	var plans []float64
	for episode := 0; episode == 0 || ph.busy < d; episode++ {
		if episode > 0 {
			if err := c.reset(); err != nil {
				return nil, err
			}
		}
		complete, err := c.episode(int64(episode), ph, wins, d, tr, q)
		if err != nil {
			return nil, err
		}
		if complete || episode == 0 {
			plans = append(plans, float64(scrSum(c.scrs).maxPlans))
		}
	}
	ph.win = wins
	ph.c.eng = engSum(c.engs).since(e0)
	g1, u1 := envSum(opts)
	ph.c.envGets, ph.c.envReuses = g1-g0, u1-u0
	drains := make([]float64, 0, len(ph.c.installs))
	for _, in := range ph.c.installs {
		drains = append(drains, float64(in.drain)/1e6)
	}
	ph.drainMs = median(drains)
	ph.paper = paperMetrics{
		optFrac:     div(float64(ph.c.scr.optCalls), float64(ph.c.scr.instances)),
		plansCached: median(plans),
		tc:          div(q.chosenSum, q.optSum),
		mso:         q.mso,
	}
	return ph, nil
}

// episode runs one episode on the current caches until its operations
// are done or the phase clock reaches d, then verifies its samples. It
// reports whether the episode ran all its operations.
func (c *churn) episode(epi int64, ph *phase, wins []*windows, d time.Duration, tr *tracer, q *quality) (bool, error) {
	ops := int64(c.cfg.sc.churnK) * episodeInstalls
	sh := &churnShared{}
	workers := make([]*churnWorker, len(wins))
	start := time.Now()
	offset := ph.busy
	deadline := start.Add(d - offset)
	var wg sync.WaitGroup
	for w := range workers {
		cw := &churnWorker{
			rng:   rand.New(rand.NewSource(subSeed(c.cfg.seed, 5, epi, int64(w)))),
			order: rand.New(rand.NewSource(subSeed(c.cfg.seed, 7, epi, int64(w)))).Perm(len(c.warm)),
			win:   wins[w],
		}
		for i, e := range c.ents {
			cw.fresh = append(cw.fresh, freshGen{d: e.Tpl.Dimensions(), seed: subSeed(c.cfg.seed, 8, epi, int64(w), int64(i))})
		}
		workers[w] = cw
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(cw, sh, ops, start, offset, deadline, tr)
		}()
	}
	wg.Wait()
	ph.busy += time.Since(start)
	sh.pending.Wait()
	if sh.err != nil {
		return false, sh.err
	}

	var samples []churnSample
	for _, cw := range workers {
		ph.attempted += cw.attempted
		ph.failed += cw.failed
		ph.decisions += cw.decisions
		for v, n := range cw.via {
			ph.c.via[v] += n
		}
		samples = append(samples, cw.samples...)
	}
	ph.c.scr.add(scrSum(c.scrs))
	ph.c.installs = append(ph.c.installs, sh.installs...)
	return sh.ops.Load() >= ops, c.verify(ph, samples, q)
}

func (c *churn) loop(cw *churnWorker, sh *churnShared, ops int64, start time.Time, offset time.Duration, deadline time.Time, tr *tracer) {
	ctx := context.Background()
	k := int64(c.cfg.sc.churnK)
	for i := 0; time.Now().Before(deadline); {
		n := sh.ops.Add(1)
		if n > ops {
			break
		}
		if n%k == 0 && n < ops {
			if err := c.install(sh, n/k, tr); err != nil {
				sh.mu.Lock()
				sh.err = err
				sh.mu.Unlock()
				break
			}
			continue
		}
		var q churnInst
		if cw.rng.Float64() < freshFrac {
			q.tpl = cw.rng.Intn(len(c.ents))
			sv, err := cw.fresh[q.tpl].next()
			if err != nil {
				cw.attempted++
				cw.failed++
				continue
			}
			q.sv = sv
		} else {
			q = c.warm[cw.order[i%len(cw.order)]]
			i++
		}
		cw.attempted++
		t0 := time.Now()
		var dec *core.Decision
		var err error
		if tr != nil {
			dec, err = tr.process(ctx, c.scrs[q.tpl], q.sv, false)
		} else {
			dec, err = c.scrs[q.tpl].Process(ctx, q.sv)
		}
		done := time.Now()
		cw.win.add(offset+done.Sub(start), int64(done.Sub(t0)))
		if err != nil {
			cw.failed++
			continue
		}
		cw.decisions++
		cw.via[dec.Via]++
		if cw.decisions%sampleEvery == 0 {
			cw.samples = append(cw.samples, churnSample{churnInst: q, plan: dec.Plan, epoch: dec.Epoch, degraded: dec.Degraded})
		}
	}
}

// install installs the episode's statistics epoch number j and leaves its
// revalidation draining in the background, as the server's statistics
// admin does.
func (c *churn) install(sh *churnShared, j int64, tr *tracer) error {
	seed := subSeed(c.cfg.seed, 6, j)
	sh.installMu.Lock()
	p, err := installEpoch(c.sys, c.dir, seed, tr)
	if err == nil {
		c.seeds[p.epoch] = seed
	}
	sh.installMu.Unlock()
	if err != nil {
		return err
	}
	sh.pending.Add(1)
	go func() {
		defer sh.pending.Done()
		st := p.wait()
		sh.mu.Lock()
		sh.installs = append(sh.installs, st)
		sh.mu.Unlock()
	}()
	return nil
}

// verify re-installs each epoch's statistics from its recorded resample
// seed and checks up to churnVerify sampled decisions stated at that
// epoch against ground truth. tc and mso cover the verified non-degraded
// decisions.
func (c *churn) verify(ph *phase, samples []churnSample, q *quality) error {
	byEpoch := make(map[uint64][]churnSample)
	for _, s := range samples {
		byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for id := range byEpoch {
		epochs = append(epochs, id)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, id := range epochs {
		group := byEpoch[id]
		seed, ok := c.seeds[id]
		if !ok {
			// A decision stated against an epoch nobody installed.
			ph.failed += int64(len(group))
			continue
		}
		st, ok := c.stores[seed]
		if !ok {
			var err error
			if st, err = c.sys.ResampleStats(seed); err != nil {
				return err
			}
			c.stores[seed] = st
		}
		c.sys.AdvanceEpoch(st)
		if len(group) > c.cfg.sc.churnVerify {
			group = group[:c.cfg.sc.churnVerify]
		}
		for _, s := range group {
			gt := c.gts[s.tpl]
			_, opt, err := gt.Optimize(s.sv)
			if err != nil {
				return err
			}
			chosen, err := gt.Recost(s.plan, s.sv)
			if err != nil {
				return err
			}
			so := subOpt(chosen, opt)
			if violates(so, s.degraded) {
				ph.failed++
			}
			if s.degraded {
				continue
			}
			q.chosenSum += chosen
			q.optSum += opt
			if so > q.mso {
				q.mso = so
			}
		}
	}
	return nil
}
