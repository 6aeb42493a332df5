package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/suite"
	"repro/internal/workload"
)

// buildSuite builds the four databases and the 90 suite templates, or a
// spread of sc.templates of them.
func buildSuite(sc scale) (*suite.Systems, []suite.Entry, error) {
	sys, err := suite.NewSystems(dbSeed)
	if err != nil {
		return nil, nil, err
	}
	ents, err := suite.Build(sys)
	if err != nil {
		return nil, nil, err
	}
	if sc.templates > 0 && sc.templates < len(ents) {
		stride := len(ents) / sc.templates
		picked := make([]suite.Entry, 0, sc.templates)
		for i := 0; i < len(ents) && len(picked) < sc.templates; i += stride {
			picked = append(picked, ents[i])
		}
		ents = picked
	}
	return sys, ents, nil
}

func optimizers(sys *suite.Systems) []*memo.Optimizer {
	return []*memo.Optimizer{sys.TPCH.Opt, sys.TPCDS.Opt, sys.RD1.Opt, sys.RD2.Opt}
}

// groundTruth generates m instances for e with the paper's region
// bucketization and optimizes each on an engine of its own, so the
// workload's engines start with clean accounting.
func groundTruth(e suite.Entry, m int, seed int64) ([]workload.Instance, *engine.TemplateEngine, error) {
	gt, err := e.Sys.EngineFor(e.Tpl)
	if err != nil {
		return nil, nil, err
	}
	set, err := workload.GenerateSet(e.Tpl.Dimensions(), m, seed)
	if err != nil {
		return nil, nil, err
	}
	set, err = workload.Prepare(gt, set)
	return set, gt, err
}

// subOpt is the sub-optimality of a plan costing chosen against the
// optimum, clamped at 1 for ties and float noise.
func subOpt(chosen, opt float64) float64 {
	if so := chosen / opt; so > 1 {
		return so
	}
	return 1
}

// violates reports a decision outside its λ guarantee. Degraded decisions
// carry no guarantee and are counted in core.degraded_frac instead.
func violates(so float64, degraded bool) bool {
	return !degraded && so > lambda*(1+1e-9)
}

// replay is the suite-replay workload: the paper's experiment (§6,
// Appendix H). Each pass gives every suite template a fresh engine and a
// fresh SCR at λ=2 and processes its random-order instance sequence one
// instance after another. Passes repeat until the time is up.
type replay struct {
	cfg  config
	sys  *suite.Systems
	seqs []replaySeq
	last map[string]*core.SCR // caches of the last complete pass
}

type replaySeq struct {
	e     suite.Entry
	insts []workload.Instance // with ground truth
	gt    *engine.TemplateEngine
}

func setupReplay(cfg config, _ *tracer) (bench, error) {
	sys, ents, err := buildSuite(cfg.sc)
	if err != nil {
		return nil, err
	}
	r := &replay{cfg: cfg, sys: sys}
	for i, e := range ents {
		insts, gt, err := groundTruth(e, cfg.sc.replayM, subSeed(cfg.seed, 1, int64(i)))
		if err != nil {
			return nil, err
		}
		r.seqs = append(r.seqs, replaySeq{e: e, insts: insts, gt: gt})
	}
	return r, nil
}

func (r *replay) close() {}

func (r *replay) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	win := newWindows(d)
	opts := optimizers(r.sys)
	g0, u0 := envSum(opts)
	deadline := time.Now().Add(d)
	var first *paperMetrics
	for first == nil || time.Now().Before(deadline) {
		pm, complete, err := r.pass(ph, win, tr, deadline, first == nil)
		if err != nil {
			return nil, err
		}
		if !complete {
			break
		}
		if first == nil {
			first = &pm
		} else if pm != *first {
			// Sequential processing is deterministic: a pass that
			// disagrees with the first is a wrong result.
			ph.failed++
		}
	}
	g1, u1 := envSum(opts)
	ph.c.envGets, ph.c.envReuses = g1-g0, u1-u0
	ph.paper = *first
	ph.win = []*windows{win}

	drain, installs, err := drainProbe(r.sys.TPCH, r.last, r.cfg.sc.probeEpochs, r.cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	ph.drainMs, ph.c.installs = drain, installs
	return ph, nil
}

// pass replays every template once. It stops early, reporting an
// incomplete pass, when the deadline passes and must is false. The phase
// clock (ph.busy) runs only while decisions are being made, not while
// they are verified.
func (r *replay) pass(ph *phase, win *windows, tr *tracer, deadline time.Time, must bool) (paperMetrics, bool, error) {
	ctx := context.Background()
	scrs := make(map[string]*core.SCR, len(r.seqs))
	list := make([]*core.SCR, 0, len(r.seqs))
	var chosenSum, optSum float64
	mso := 1.0
	decs := make([]*core.Decision, 0, r.cfg.sc.replayM)
	for _, q := range r.seqs {
		if !must && time.Now().After(deadline) {
			return paperMetrics{}, false, nil
		}
		start := time.Now()
		eng, err := q.e.Sys.EngineFor(q.e.Tpl)
		if err != nil {
			return paperMetrics{}, false, err
		}
		ce := traceEngine(eng, tr)
		if r.cfg.wrap != nil {
			ce = r.cfg.wrap(eng)
		}
		s, err := core.New(ce, core.WithLambda(lambda))
		if err != nil {
			return paperMetrics{}, false, err
		}
		decs = decs[:0]
		for _, in := range q.insts {
			t0 := time.Now()
			var dec *core.Decision
			if tr != nil {
				dec, err = tr.process(ctx, s, in.SV, true)
			} else {
				dec, err = s.Process(ctx, in.SV)
			}
			done := time.Now()
			win.add(ph.busy+done.Sub(start), int64(done.Sub(t0)))
			if err != nil {
				dec = nil
			}
			decs = append(decs, dec)
		}
		ph.busy += time.Since(start)

		// Verify every decision against the set-up ground truth.
		for i, dec := range decs {
			ph.attempted++
			if dec == nil {
				ph.failed++
				continue
			}
			ph.decisions++
			ph.c.via[dec.Via]++
			in := q.insts[i]
			c, err := q.gt.Recost(dec.Plan, in.SV)
			if err != nil {
				ph.failed++
				continue
			}
			so := subOpt(c, in.OptCost)
			if violates(so, dec.Degraded) {
				ph.failed++
			}
			chosenSum += c
			optSum += in.OptCost
			if so > mso {
				mso = so
			}
		}
		ph.c.eng.add(engSum([]*engine.TemplateEngine{eng}))
		scrs[q.e.Tpl.Name] = s
		list = append(list, s)
	}
	tot := scrSum(list)
	ph.c.scr.add(tot)
	r.last = scrs
	return paperMetrics{
		optFrac:     div(float64(tot.optCalls), float64(tot.instances)),
		plansCached: float64(tot.maxPlans),
		tc:          div(chosenSum, optSum),
		mso:         mso,
	}, true, nil
}
