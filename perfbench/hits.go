package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/suite"
)

// hits is the hits-http workload: warm plan caches for the suite
// templates behind the HTTP server, and nproc closed-loop clients
// re-sending instances the caches have already processed as
// POST /v1/plan over loopback.
type hits struct {
	cfg     config
	sys     *suite.Systems
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	client  *http.Client
	url     string
	scrs    map[string]*core.SCR
	engs    []*engine.TemplateEngine
	reqs    []hitReq
	warm    paperMetrics
}

// hitReq is one pre-encoded request with its ground-truth optimal cost.
type hitReq struct {
	body []byte
	opt  float64
}

func setupHits(cfg config, tr *tracer) (bench, error) {
	sys, ents, err := buildSuite(cfg.sc)
	if err != nil {
		return nil, err
	}
	h := &hits{cfg: cfg, sys: sys, srv: server.New(server.Config{}), scrs: make(map[string]*core.SCR)}
	ctx := context.Background()
	var list []*core.SCR
	for i, e := range ents {
		insts, _, err := groundTruth(e, cfg.sc.hitsM, subSeed(cfg.seed, 2, int64(i)))
		if err != nil {
			return nil, err
		}
		eng, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			return nil, err
		}
		ce := traceEngine(eng, tr)
		s, err := core.New(ce, core.WithLambda(lambda))
		if err != nil {
			return nil, err
		}
		if err := h.srv.Register(e.Tpl.Name, "", ce, s); err != nil {
			return nil, err
		}
		for _, in := range insts {
			if _, err := s.Process(ctx, in.SV); err != nil {
				return nil, fmt.Errorf("warming %s: %w", e.Tpl.Name, err)
			}
			body, err := json.Marshal(server.PlanRequest{Template: e.Tpl.Name, SVector: in.SV})
			if err != nil {
				return nil, err
			}
			h.reqs = append(h.reqs, hitReq{body: body, opt: in.OptCost})
		}
		h.scrs[e.Tpl.Name] = s
		h.engs = append(h.engs, eng)
		list = append(list, s)
	}
	tot := scrSum(list)
	h.warm = paperMetrics{optFrac: div(float64(tot.optCalls), float64(tot.instances))}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = h.srv.Handler()
	if tr != nil {
		handler = tr.handler(handler)
	}
	h.httpSrv = &http.Server{Handler: handler}
	h.served = make(chan error, 1)
	go func() { h.served <- h.httpSrv.Serve(ln) }()
	n := runtime.NumCPU()
	h.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}}
	h.url = "http://" + ln.Addr().String() + server.APIVersion + "/plan"
	return h, nil
}

func (h *hits) close() {
	if h.httpSrv == nil {
		return
	}
	h.httpSrv.Close()
	<-h.served
	h.client.CloseIdleConnections()
	h.httpSrv = nil
}

// hitClient is one closed-loop client's tally.
type hitClient struct {
	win               *windows
	attempted, failed int64
	via               [core.ViaFallback + 1]int64
	chosenSum, optSum float64
	mso               float64
	busy              time.Duration
}

func (h *hits) run(d time.Duration, tr *tracer) (*phase, error) {
	scrs := make([]*core.SCR, 0, len(h.scrs))
	for _, s := range h.scrs {
		scrs = append(scrs, s)
	}
	opts := optimizers(h.sys)
	s0, e0 := scrSum(scrs), engSum(h.engs)
	g0, u0 := envSum(opts)

	n := runtime.NumCPU()
	clients := make([]*hitClient, n)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		c := &hitClient{win: newWindows(d), mso: 1}
		clients[w] = c
		order := rand.New(rand.NewSource(subSeed(h.cfg.seed, 3, int64(w)))).Perm(len(h.reqs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.loop(c, order, deadline, tr)
		}()
	}
	wg.Wait()

	ph := &phase{}
	var chosenSum, optSum float64
	mso := 1.0
	for _, c := range clients {
		ph.attempted += c.attempted
		ph.failed += c.failed
		ph.decisions += c.attempted - c.failed
		ph.busy += c.busy
		ph.win = append(ph.win, c.win)
		chosenSum += c.chosenSum
		optSum += c.optSum
		if c.mso > mso {
			mso = c.mso
		}
	}
	ph.busy /= time.Duration(n)
	ph.c.scr = scrSum(scrs).since(s0)
	ph.c.eng = engSum(h.engs).since(e0)
	g1, u1 := envSum(opts)
	ph.c.envGets, ph.c.envReuses = g1-g0, u1-u0
	ph.paper = h.warm
	ph.paper.plansCached = float64(ph.c.scr.maxPlans)
	ph.paper.tc = div(chosenSum, optSum)
	ph.paper.mso = mso
	for _, c := range clients {
		for v, k := range c.via {
			ph.c.via[v] += k
		}
	}

	drain, installs, err := drainProbe(h.sys.TPCH, h.scrs, h.cfg.sc.probeEpochs, h.cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	ph.drainMs, ph.c.installs = drain, installs
	return ph, nil
}

// viaByName maps PlanResponse.Via back to the check it names.
var viaByName = func() map[string]core.Check {
	m := make(map[string]core.Check)
	for c := core.ViaOptimizer; c <= core.ViaFallback; c++ {
		m[c.String()] = c
	}
	return m
}()

// loop sends requests in order until the deadline, one at a time, and
// checks every response: status 200 and, unless degraded, an
// estimatedCost within λ of the set-up optimum.
func (h *hits) loop(c *hitClient, order []int, deadline time.Time, tr *tracer) {
	start := time.Now()
	var resp server.PlanResponse
	for i := 0; time.Now().Before(deadline); i++ {
		q := h.reqs[order[i%len(order)]]
		c.attempted++
		req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(q.body))
		if err != nil {
			c.failed++
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		var id uint64
		var trStart int64
		if tr != nil {
			id = tr.newID()
			req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
			trStart = tr.now()
		}
		t0 := time.Now()
		res, err := h.client.Do(req)
		if err != nil {
			c.failed++
			continue
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		done := time.Now()
		c.win.add(done.Sub(start), int64(done.Sub(t0)))
		var trEnd int64
		if tr != nil {
			trEnd = tr.now()
		}
		if err != nil || res.StatusCode != http.StatusOK {
			c.failed++
			continue
		}
		resp = server.PlanResponse{}
		if err := json.Unmarshal(body, &resp); err != nil || resp.CostUnavailable {
			c.failed++
			continue
		}
		if tr != nil {
			tr.record(span{kind: kClient, id: id, start: trStart, end: trEnd, attr: resp.LatencyMicros})
		}
		c.via[viaByName[resp.Via]]++
		so := subOpt(resp.EstimatedCost, q.opt)
		if violates(so, resp.Degraded) {
			c.failed++
			continue
		}
		c.chosenSum += resp.EstimatedCost
		c.optSum += q.opt
		if so > c.mso {
			c.mso = so
		}
	}
	c.busy = time.Since(start)
}
