package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pqotest"
	"repro/pqo"
)

// newTestServer builds a Server over one synthetic 2-dimensional template
// named "t1".
func newTestServer(t testing.TB, cfg Config) (*Server, *pqotest.Engine) {
	t.Helper()
	eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(7)), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.Register("t1", "SELECT synthetic", eng, scr); err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func postPlan(t testing.TB, h http.Handler, req PlanRequest) (*httptest.ResponseRecorder, *PlanResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		return w, nil
	}
	var resp PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding /plan response: %v", err)
	}
	return w, &resp
}

func TestPlanEndpoint(t *testing.T) {
	s, eng := newTestServer(t, Config{})
	h := s.Handler()

	w, resp := postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	if w.Code != http.StatusOK {
		t.Fatalf("first /plan: status %d, body %s", w.Code, w.Body)
	}
	if resp.Via != "optimizer" || !resp.Optimized {
		t.Errorf("cold cache should optimize, got via=%s optimized=%v", resp.Via, resp.Optimized)
	}
	if resp.Fingerprint == "" || resp.Plan == "" || resp.EstimatedCost <= 0 {
		t.Errorf("incomplete response: %+v", resp)
	}

	w, resp = postPlan(t, h, PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	if w.Code != http.StatusOK {
		t.Fatalf("second /plan: status %d", w.Code)
	}
	if resp.Via != "selectivity-check" {
		t.Errorf("identical repeat should hit the selectivity check, got via=%s", resp.Via)
	}
	if got := eng.OptimizeCalls(); got != 1 {
		t.Errorf("optimizer calls = %d, want 1", got)
	}

	cases := []struct {
		name string
		req  *http.Request
		want int
	}{
		{"GET not allowed", httptest.NewRequest(http.MethodGet, "/v1/plan", nil), http.StatusMethodNotAllowed},
		{"bad JSON", httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader("{")), http.StatusBadRequest},
		{"unknown template", httptest.NewRequest(http.MethodPost, "/v1/plan",
			strings.NewReader(`{"template":"nope","sVector":[0.1,0.2]}`)), http.StatusNotFound},
		{"wrong dimensions", httptest.NewRequest(http.MethodPost, "/v1/plan",
			strings.NewReader(`{"template":"t1","sVector":[0.1]}`)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, tc.req)
		if w.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, w.Code, tc.want)
		}
	}
}

// A selectivity outside (0,1] is the client's mistake: 400 with the
// ErrBadRequest envelope, no optimizer call, nothing cached, and the
// template keeps serving valid vectors.
func TestPlanRejectsInvalidVector(t *testing.T) {
	s, eng := newTestServer(t, Config{})
	h := s.Handler()
	for _, sv := range [][]float64{{1.5, 0.1}, {0, 0.1}, {0.1, -0.2}} {
		w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: sv})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%v: status %d, want 400 (body %s)", sv, w.Code, w.Body)
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Sentinel != "ErrBadRequest" {
			t.Fatalf("%v: envelope = %s, want ErrBadRequest", sv, w.Body)
		}
	}
	if got := eng.OptimizeCalls(); got != 0 {
		t.Fatalf("optimizer calls = %d after rejected vectors, want 0", got)
	}
	for _, sv := range [][]float64{{1e-4, 1e-4}, {0.9, 0.9}} {
		if w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: sv}); w.Code != http.StatusOK {
			t.Fatalf("valid %v after rejections: status %d (body %s)", sv, w.Code, w.Body)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	// A 1ns budget is always expired by the time Process checks its
	// context, so the request must fail as a timeout, not a 400.
	s, _ := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	w, _ := postPlan(t, s.Handler(), PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want %d (body %s)", w.Code, http.StatusGatewayTimeout, w.Body)
	}
}

func TestTemplatesStatsMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	vectors := [][]float64{{0.1, 0.2}, {0.1, 0.2}, {0.1, 0.2}, {0.8, 0.9}}
	for _, sv := range vectors {
		if w, _ := postPlan(t, h, PlanRequest{Template: "t1", SVector: sv}); w.Code != http.StatusOK {
			t.Fatalf("/plan: status %d", w.Code)
		}
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/templates", nil))
	var tpls []TemplateInfo
	if err := json.Unmarshal(w.Body.Bytes(), &tpls); err != nil {
		t.Fatalf("/templates: %v", err)
	}
	if len(tpls) != 1 || tpls[0].Name != "t1" || tpls[0].Dimensions != 2 {
		t.Errorf("/templates = %+v", tpls)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var rows []StatsRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("/stats rows = %d", len(rows))
	}
	st := rows[0]
	if st.Instances != int64(len(vectors)) {
		t.Errorf("instances = %d, want %d", st.Instances, len(vectors))
	}
	if st.NumOpt == 0 || st.ReadPathHits == 0 {
		t.Errorf("expected optimizer calls and read-path hits, got %+v", st)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		`pqo_instances_total{template="t1"} 4`,
		`pqo_opt_calls_total{template="t1"}`,
		`pqo_read_path_hits_total{template="t1"}`,
		`pqo_check_latency_seconds_bucket{template="t1",via="optimizer",le="+Inf"}`,
		`pqo_check_latency_seconds_count{template="t1",via="selectivity-check"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The per-via histogram counts must account for every /plan request.
	total := int64(0)
	for _, via := range checkLabels {
		total += promValue(t, body, fmt.Sprintf(`pqo_check_latency_seconds_count{template="t1",via=%q}`, via))
	}
	if total != int64(len(vectors)) {
		t.Errorf("histogram total = %d, want %d", total, len(vectors))
	}
}

// promValue extracts the value of a series line from Prometheus text.
func promValue(t *testing.T, body, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v int64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found", series)
	return 0
}

// TestSnapshotRoundTrip uses a real template engine (the synthetic test
// engine cannot rehydrate plans) and verifies the cache survives a
// restart via POST /snapshot + Register-time restore.
func TestSnapshotRoundTrip(t *testing.T) {
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := pqo.ParseTemplate("q", `
		SELECT * FROM lineitem, orders
		WHERE lineitem.l_orderkey = orders.o_orderkey
		  AND lineitem.l_shipdate <= ?0
		  AND orders.o_totalprice >= ?1`, sys.Cat)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	build := func() (*Server, *pqo.SCR) {
		eng, err := sys.EngineFor(tpl)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{SnapshotDir: dir})
		if err := s.Register("q", tpl.SQL(), eng, scr); err != nil {
			t.Fatal(err)
		}
		return s, scr
	}

	s1, scr1 := build()
	h := s1.Handler()
	for _, sv := range [][]float64{{0.02, 0.1}, {0.6, 0.5}} {
		if w, _ := postPlan(t, h, PlanRequest{Template: "q", SVector: sv}); w.Code != http.StatusOK {
			t.Fatalf("/plan: status %d body %s", w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/snapshot: status %d body %s", w.Code, w.Body)
	}
	if _, err := os.Stat(dir + "/q.json"); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	wantPlans := scr1.Stats().CurPlans

	s2, scr2 := build()
	if got := scr2.Stats().CurPlans; got != wantPlans {
		t.Errorf("restored plans = %d, want %d", got, wantPlans)
	}
	// A previously-seen instance should now hit the restored cache.
	w2, resp := postPlan(t, s2.Handler(), PlanRequest{Template: "q", SVector: []float64{0.02, 0.1}})
	if w2.Code != http.StatusOK {
		t.Fatalf("/plan on restored server: status %d", w2.Code)
	}
	if resp.Via == "optimizer" {
		t.Errorf("restored cache should serve without optimizing, got via=%s", resp.Via)
	}
}

// TestRegisterIgnoresUnframedSnapshot: a snapshot file without the
// PQOSNAP1 framing — here a raw Export JSON — is logged as unreadable and
// ignored, and the template starts with a cold cache.
func TestRegisterIgnoresUnframedSnapshot(t *testing.T) {
	eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(7)), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	sv := []float64{0.1, 0.2}
	if _, err := warm.Process(context.Background(), sv); err != nil {
		t.Fatal(err)
	}
	data, err := warm.Export()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	s := New(Config{SnapshotDir: dir, Logger: log.New(&logs, "", 0)})
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("t1", "SELECT synthetic", eng, scr); err != nil {
		t.Fatalf("Register with an unframed snapshot: %v", err)
	}
	if got := logs.String(); !strings.Contains(got, "snapshot for t1 unreadable") || !strings.Contains(got, pqo.ErrSnapshotCorrupt.Error()) {
		t.Errorf("log = %q, want the unreadable snapshot reported as corrupt", got)
	}
	if n := scr.Stats().CurPlans; n != 0 {
		t.Errorf("cache holds %d plans, want a cold start", n)
	}
	if w, resp := postPlan(t, s.Handler(), PlanRequest{Template: "t1", SVector: sv}); w.Code != http.StatusOK || resp.Via != "optimizer" {
		t.Errorf("first plan: status %d, response %+v, want via=optimizer", w.Code, resp)
	}
}

// TestMetricsSeriesUnique asserts that /metrics prints every metric name
// exactly once per template: each family is declared once, and no series
// (name plus label set) repeats. It also pins the retired alias of
// pqo_writer_wait_seconds_total, which used to print the same counter
// under a second name.
func TestMetricsSeriesUnique(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	eng2, err := pqotest.RandomEngine(rand.New(rand.NewSource(8)), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	scr2, err := pqo.New(eng2, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("t2", "SELECT synthetic", eng2, scr2); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, req := range []PlanRequest{
		{Template: "t1", SVector: []float64{0.1, 0.2}},
		{Template: "t2", SVector: []float64{0.1, 0.2, 0.3}},
	} {
		if w, _ := postPlan(t, h, req); w.Code != http.StatusOK {
			t.Fatalf("/plan %s: status %d", req.Template, w.Code)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))

	declared := map[string]bool{}
	perTemplate := map[string]map[string]bool{} // family -> templates with a series
	seen := map[string]bool{}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			if declared[name] {
				t.Errorf("metric %s declared twice", name)
			}
			declared[name] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if seen[series] {
			t.Errorf("series %s printed twice", series)
		}
		seen[series] = true
		name, labels, _ := strings.Cut(series, "{")
		for _, tpl := range []string{"t1", "t2"} {
			if strings.HasPrefix(labels, fmt.Sprintf("template=%q", tpl)) {
				if perTemplate[name] == nil {
					perTemplate[name] = map[string]bool{}
				}
				perTemplate[name][tpl] = true
			}
		}
	}
	for name, tpls := range perTemplate {
		if len(tpls) != 2 {
			t.Errorf("metric %s has series for templates %v, want t1 and t2", name, tpls)
		}
	}
	if declared["pqo_write_lock_wait_seconds_total"] {
		t.Error("/metrics still prints the pqo_write_lock_wait_seconds_total alias")
	}
	if !declared["pqo_writer_wait_seconds_total"] || !perTemplate["pqo_writer_wait_seconds_total"]["t1"] {
		t.Error("/metrics lacks pqo_writer_wait_seconds_total")
	}
}

// countingEngine is a synthetic engine that reports recost cache counters
// and counts how often they are read.
type countingEngine struct {
	*pqotest.Engine
	counterReads atomic.Int64
}

var _ pqo.CacheReporter = (*countingEngine)(nil)

func (e *countingEngine) RecostCacheCounters() (hits, misses int64) {
	e.counterReads.Add(1)
	return 0, 0
}

func (e *countingEngine) EnvPoolCounters() (gets, reuses int64) { return 0, 0 }

// TestMetricsReadsStatsOncePerTemplate pins the cost of a /v1/metrics
// scrape: one Stats snapshot per template, so a CacheReporter engine is
// asked for its counters exactly once per template, not once per metric.
func TestMetricsReadsStatsOncePerTemplate(t *testing.T) {
	s := New(Config{})
	var engs []*countingEngine
	for i, name := range []string{"a", "b", "c"} {
		base, err := pqotest.RandomEngine(rand.New(rand.NewSource(int64(20+i))), 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		eng := &countingEngine{Engine: base}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(name, "SELECT synthetic", eng, scr); err != nil {
			t.Fatal(err)
		}
		engs = append(engs, eng)
	}
	h := s.Handler()
	if w, _ := postPlan(t, h, PlanRequest{Template: "a", SVector: []float64{0.1, 0.2}}); w.Code != http.StatusOK {
		t.Fatalf("/plan: status %d", w.Code)
	}
	before := make([]int64, len(engs))
	for i, eng := range engs {
		before[i] = eng.counterReads.Load()
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d", w.Code)
	}
	for i, eng := range engs {
		if got := eng.counterReads.Load() - before[i]; got != 1 {
			t.Errorf("template %d: one scrape read the recost cache counters %d times, want 1", i, got)
		}
	}
}

// TestRecostCacheMetrics drives a real template engine through /plan and
// asserts that /metrics, /stats and RecostCacheCounters agree on the recost
// memo's hits and misses, and that the memo hits: a cost check that tries
// several candidate instances bound to one plan recosts it once.
func TestRecostCacheMetrics(t *testing.T) {
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := pqo.ParseTemplate("q", `
		SELECT * FROM lineitem, orders
		WHERE lineitem.l_orderkey = orders.o_orderkey
		  AND lineitem.l_shipdate <= ?0
		  AND orders.o_totalprice >= ?1`, sys.Cat)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("q", tpl.SQL(), eng, scr); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// Every vector is distinct, so no request repeats another: a memo hit
	// can only come from one instance's cost check recosting a plan shared
	// by two or more candidate instances.
	rng := rand.New(rand.NewSource(5))
	var hits, misses int64
	for i := 0; i < 400 && hits == 0; i++ {
		sv := []float64{math.Pow(10, -3*rng.Float64()), math.Pow(10, -3*rng.Float64())}
		before := scr.Stats().GetPlanRecosts
		if w, _ := postPlan(t, h, PlanRequest{Template: "q", SVector: sv}); w.Code != http.StatusOK {
			t.Fatalf("/plan %d: status %d body %s", i, w.Code, w.Body)
		}
		hits, misses = eng.RecostCacheCounters()
		if n := scr.Stats().GetPlanRecosts - before; hits > 0 && n < 2 {
			t.Errorf("first memo hit came from a request with %d cost-check recosts, want >= 2", n)
		}
	}
	if hits == 0 {
		t.Errorf("recost memo hits = 0 (misses = %d), want > 0", misses)
	}
	if misses == 0 {
		t.Errorf("recost memo misses = 0, want > 0 (first recost must miss)")
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	body := w.Body.String()
	if got := promValue(t, body, `pqo_recost_cache_hits_total{template="q"}`); got != hits {
		t.Errorf("/metrics recost cache hits = %d, want %d", got, hits)
	}
	if got := promValue(t, body, `pqo_recost_cache_misses_total{template="q"}`); got != misses {
		t.Errorf("/metrics recost cache misses = %d, want %d", got, misses)
	}
	if got := promValue(t, body, `pqo_env_pool_gets_total{template="q"}`); got == 0 {
		t.Error("/metrics env pool gets = 0, want > 0")
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var rows []StatsRow
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if len(rows) != 1 || rows[0].RecostCacheHits != hits {
		t.Errorf("/stats recost cache hits = %+v, want %d", rows, hits)
	}

}

func TestSnapshotDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil))
	if w.Code != http.StatusConflict {
		t.Fatalf("/snapshot without SnapshotDir: status %d, want %d", w.Code, http.StatusConflict)
	}
}

func TestRegisterValidation(t *testing.T) {
	s, eng := newTestServer(t, Config{})
	scr, err := pqo.New(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("", "", eng, scr); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Register("t2", "", nil, scr); err == nil {
		t.Error("nil engine accepted")
	}
	if err := s.Register("t1", "", eng, scr); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Config{SnapshotDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	body, _ := json.Marshal(PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	url := "http://" + ln.Addr().String()
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/plan over TCP: status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	// Shutdown with SnapshotDir set must flush the caches.
	if _, err := os.Stat(dir + "/t1.json"); err != nil {
		t.Errorf("shutdown snapshot: %v", err)
	}
	if _, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body)); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}
