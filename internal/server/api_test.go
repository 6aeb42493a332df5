package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/pqotest"
	"repro/pqo"
)

// TestLegacyRedirects asserts the pre-versioning redirects are retired and
// no route answers outside /v1: the unversioned form of every registered
// path, POSTed with a plan body or fetched with the route's own method,
// gets 404 with the ErrNotFound envelope naming the /v1 prefix, and no
// Location header.
func TestLegacyRedirects(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	body, _ := json.Marshal(PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	for _, rt := range s.routes() {
		path := strings.TrimPrefix(rt.path, APIVersion)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(rt.method, path, bytes.NewReader(body)))
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", rt.method, path, w.Code)
			continue
		}
		if loc := w.Header().Get("Location"); loc != "" {
			t.Errorf("%s %s: Location %q, want none", rt.method, path, loc)
		}
		if eb := decodeError(t, w); eb.Sentinel != "ErrNotFound" || !strings.Contains(eb.Error, APIVersion+"/") {
			t.Errorf("%s %s: envelope %+v, want ErrNotFound naming %s/", rt.method, path, eb, APIVersion)
		}
	}
}

// TestLegacyRedirectFollowedByClient asserts an unupdated client is told
// plainly that the old path is gone: net/http POSTing to /plan over a real
// connection is not redirected anywhere and gets the 404 ErrNotFound
// envelope naming the /v1 prefix.
func TestLegacyRedirectFollowedByClient(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(PlanRequest{Template: "t1", SVector: []float64{0.1, 0.2}})
	resp, err := http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /plan: status %d, want 404", resp.StatusCode)
	}
	if got := resp.Request.URL.Path; got != "/plan" {
		t.Errorf("POST /plan ended at %q, want no redirect", got)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Sentinel != "ErrNotFound" || !strings.Contains(eb.Error, APIVersion+"/") {
		t.Errorf("POST /plan: envelope %+v, want ErrNotFound naming %s/", eb, APIVersion)
	}
}

// TestOpenAPICoversEveryRoute asserts the served OpenAPI document and the
// route registry agree exactly: every registered route appears in the spec
// under its method, and the spec names no path the mux does not serve.
func TestOpenAPICoversEveryRoute(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/openapi.json", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/openapi.json: status %d", w.Code)
	}
	var doc struct {
		OpenAPI string                            `json:"openapi"`
		Info    struct{ Version string }          `json:"info"`
		Paths   map[string]map[string]interface{} `json:"paths"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OpenAPI == "" || doc.Info.Version != "v1" {
		t.Errorf("spec header = openapi %q, version %q", doc.OpenAPI, doc.Info.Version)
	}
	registered := make(map[string]map[string]bool)
	for _, rt := range s.routes() {
		if registered[rt.path] == nil {
			registered[rt.path] = make(map[string]bool)
		}
		registered[rt.path][strings.ToLower(rt.method)] = true
	}
	for path, methods := range registered {
		for m := range methods {
			if _, ok := doc.Paths[path][m]; !ok {
				t.Errorf("spec missing %s %s", m, path)
			}
		}
	}
	for path, ops := range doc.Paths {
		for m := range ops {
			if !registered[path][m] {
				t.Errorf("spec documents unserved operation %s %s", m, path)
			}
		}
	}
}

// TestErrorEnvelopes asserts every error path answers the uniform
// {"error","sentinel"} JSON envelope.
func TestErrorEnvelopes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name     string
		req      *http.Request
		code     int
		sentinel string
	}{
		{"unknown path", httptest.NewRequest(http.MethodGet, "/nope", nil),
			http.StatusNotFound, "ErrNotFound"},
		{"method not allowed", httptest.NewRequest(http.MethodDelete, "/v1/plan", nil),
			http.StatusMethodNotAllowed, "ErrMethodNotAllowed"},
		{"snapshots disabled", httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil),
			http.StatusConflict, "ErrSnapshotsDisabled"},
		{"unknown template", httptest.NewRequest(http.MethodPost, "/v1/plan",
			strings.NewReader(`{"template":"nope","sVector":[0.1,0.2]}`)),
			http.StatusNotFound, "ErrUnknownTemplate"},
		{"admin without system", httptest.NewRequest(http.MethodPost, "/v1/admin/stats",
			strings.NewReader(`{"resampleSeed":1}`)),
			http.StatusConflict, "ErrNoSystem"},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, tc.req)
		if w.Code != tc.code {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.code, w.Body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Errorf("%s: body is not the envelope: %q", tc.name, w.Body)
			continue
		}
		if eb.Sentinel != tc.sentinel || eb.Error == "" {
			t.Errorf("%s: envelope = %+v, want sentinel %q with a message", tc.name, eb, tc.sentinel)
		}
	}

	// A draining server's healthz uses the envelope too.
	t.Run("healthz draining", func(t *testing.T) {
		s2, _ := newTestServer(t, Config{})
		s2.draining.Store(true)
		w := httptest.NewRecorder()
		s2.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining healthz: status %d", w.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Sentinel != "ErrUnhealthy" {
			t.Fatalf("draining healthz envelope = %s (err %v), want ErrUnhealthy", w.Body, err)
		}
	})
}

// TestTemplatesAndStatsSorted registers templates in non-alphabetical
// order and asserts /v1/templates and /v1/stats list them sorted by name,
// so output is stable across runs regardless of map iteration order.
func TestTemplatesAndStatsSorted(t *testing.T) {
	s, _ := newTestServer(t, Config{}) // registers "t1"
	for _, name := range []string{"zeta", "alpha", "mid"} {
		eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(3)), 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := pqo.New(eng, pqo.WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(name, "SELECT "+name, eng, scr); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	want := []string{"alpha", "mid", "t1", "zeta"}

	for try := 0; try < 5; try++ { // map order varies run to run; sample a few
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/templates", nil))
		var tpls []TemplateInfo
		if err := json.Unmarshal(w.Body.Bytes(), &tpls); err != nil {
			t.Fatal(err)
		}
		for i, tpl := range tpls {
			if tpl.Name != want[i] {
				t.Fatalf("templates[%d] = %q, want %q (%+v)", i, tpl.Name, want[i], tpls)
			}
		}

		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var rows []StatsRow
		if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if row.Template != want[i] {
				t.Fatalf("stats[%d] = %q, want %q", i, row.Template, want[i])
			}
		}
	}
}

// adminSystem builds a real TPC-H system with two registered templates
// sharing the system optimizer, the arrangement /v1/admin/stats manages.
func adminSystem(t *testing.T) (*Server, *pqo.System) {
	t.Helper()
	sys, err := pqo.NewSystem(pqo.TPCH(0.01), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	for name, sql := range map[string]string{
		"q1": `SELECT * FROM lineitem, orders
		       WHERE lineitem.l_orderkey = orders.o_orderkey
		         AND lineitem.l_shipdate <= ?0
		         AND orders.o_totalprice >= ?1`,
		"q2": `SELECT * FROM lineitem
		       WHERE lineitem.l_shipdate <= ?0 AND lineitem.l_quantity <= ?1`,
	} {
		tpl, err := pqo.ParseTemplate(name, sql, sys.Cat)
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
		if err := s.Register(name, tpl.SQL(), eng, scr); err != nil {
			t.Fatal(err)
		}
	}
	s.SetSystem(sys)
	return s, sys
}

func postAdminStats(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, *AdminStatsResponse) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/admin/stats", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		return w, nil
	}
	var resp AdminStatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding admin response: %v (%s)", err, w.Body)
	}
	return w, &resp
}

// TestAdminStatsLifecycle drives the full admin surface: seed traffic,
// advance by full resample, advance by per-column delta, and read the
// epoch log back with revalidation progress.
func TestAdminStatsLifecycle(t *testing.T) {
	s, sys := adminSystem(t)
	h := s.Handler()
	for _, sv := range [][]float64{{0.02, 0.1}, {0.6, 0.5}, {0.3, 0.3}} {
		for _, tpl := range []string{"q1", "q2"} {
			if w, _ := postPlan(t, h, PlanRequest{Template: tpl, SVector: sv}); w.Code != http.StatusOK {
				t.Fatalf("seeding %s: status %d body %s", tpl, w.Code, w.Body)
			}
		}
	}

	// Full swap: resample with a fresh seed.
	w, resp := postAdminStats(t, h, `{"resampleSeed": 99}`)
	if resp == nil {
		t.Fatalf("resample advance: status %d body %s", w.Code, w.Body)
	}
	if resp.Epoch != 2 {
		t.Fatalf("epoch after first advance = %d, want 2", resp.Epoch)
	}
	if len(resp.Revalidation) != 2 {
		t.Fatalf("revalidation started for %d templates, want 2 (%+v)", len(resp.Revalidation), resp.Revalidation)
	}
	for name, p := range resp.Revalidation {
		if p.TargetEpoch != 2 {
			t.Errorf("%s revalidation target = %d, want 2", name, p.TargetEpoch)
		}
	}
	// Drain the background runs so the next advance starts clean.
	for _, e := range s.snapshotEntries() {
		if run := e.scr.CurrentRevalidation(); run != nil {
			<-run.Done()
		}
	}

	// Partial refresh: one column's histogram from a fresh sample.
	cols := sys.Stats.Columns()
	if len(cols) == 0 {
		t.Fatal("system has no histogram columns")
	}
	dot := strings.LastIndex(cols[0], ".")
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	delta, _ := json.Marshal(AdminStatsRequest{Deltas: []pqo.HistogramDelta{{
		Table: cols[0][:dot], Column: cols[0][dot+1:], Values: vals,
	}}})
	w, resp = postAdminStats(t, h, string(delta))
	if resp == nil {
		t.Fatalf("delta advance: status %d body %s", w.Code, w.Body)
	}
	if resp.Epoch != 3 {
		t.Fatalf("epoch after delta advance = %d, want 3", resp.Epoch)
	}

	// The epoch log lists every generation, ascending, current flagged.
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, httptest.NewRequest(http.MethodGet, "/v1/admin/epochs", nil))
	var log []EpochInfo
	if err := json.Unmarshal(w2.Body.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 {
		t.Fatalf("epoch log has %d entries, want 3: %+v", len(log), log)
	}
	wantReasons := []string{"initial", "resample", "delta"}
	for i, info := range log {
		if info.Epoch != uint64(i+1) || info.Reason != wantReasons[i] {
			t.Errorf("log[%d] = epoch %d reason %q, want %d %q", i, info.Epoch, info.Reason, i+1, wantReasons[i])
		}
		if info.Current != (i == len(log)-1) {
			t.Errorf("log[%d].Current = %v", i, info.Current)
		}
	}
	if cols0 := log[2].Columns; len(cols0) != 1 || cols0[0] != cols[0] {
		t.Errorf("delta record columns = %v, want [%s]", cols0, cols[0])
	}

	// Serving still works and reports the current epoch once revalidation
	// has caught the caches up.
	for _, e := range s.snapshotEntries() {
		if run := e.scr.CurrentRevalidation(); run != nil {
			<-run.Done()
		}
	}
	if w, pr := postPlan(t, h, PlanRequest{Template: "q1", SVector: []float64{0.02, 0.1}}); w.Code != http.StatusOK {
		t.Fatalf("post-advance plan: status %d", w.Code)
	} else if pr.Epoch != 3 {
		t.Errorf("post-revalidation decision epoch = %d, want 3", pr.Epoch)
	}

	// The epoch gauge is visible in /metrics.
	wm := httptest.NewRecorder()
	h.ServeHTTP(wm, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	body := wm.Body.String()
	if got := promValue(t, body, `pqo_stats_epoch{template="q1"}`); got != 3 {
		t.Errorf("pqo_stats_epoch = %d, want 3", got)
	}
	if !strings.Contains(body, "pqo_epoch_lag_seconds") {
		t.Error("/v1/metrics missing pqo_epoch_lag_seconds")
	}
}

// TestAdminStatsValidation covers the request-shape errors.
func TestAdminStatsValidation(t *testing.T) {
	s, _ := adminSystem(t)
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"empty body", `{}`},
		{"both set", `{"resampleSeed":1,"deltas":[{"table":"lineitem","column":"l_shipdate","values":[1,2,3]}]}`},
		{"bad JSON", `{`},
		{"unknown column", `{"deltas":[{"table":"nope","column":"nope","values":[1,2,3]}]}`},
	}
	for _, tc := range cases {
		w, _ := postAdminStats(t, h, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Sentinel != "ErrBadRequest" {
			t.Errorf("%s: envelope = %s, want ErrBadRequest", tc.name, w.Body)
		}
	}
}
