package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// tinyConfig shrinks a workload so a run takes about a second.
func tinyConfig(name string) config {
	return config{
		workload: name,
		seed:     7,
		seconds:  0.4,
		setups:   1,
		sc: scale{
			replayM:     40,
			hitsM:       10,
			churnWarm:   20,
			churnK:      4000,
			churnVerify: 50,
			probeEpochs: 1,
			templates:   6,
		},
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metric lists of the benchmark definition at the
// root of the repository.
func declared(t *testing.T) (endToEnd, perLayer []declaredMetric) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def.EndToEnd, def.PerLayer
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(name)
			cfg.trace = trace
			res, env, err := runBenchmark(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, w := range want {
				m, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", name, trace, w.Name)
				case m.Unit != w.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, w.Name, m.Unit, w.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, w.Name, m.Value)
				}
			}

			var out bytes.Buffer
			if err := emit(&out, cfg, res, env); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", name, err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[k]; !ok {
					t.Errorf("%s: last line lacks %q", name, k)
				}
			}
			if len(last) != 4 {
				t.Errorf("%s: last line has %d keys, want 4", name, len(last))
			}
			if !strings.Contains(lines[len(lines)-2], `"gomaxprocs"`) {
				t.Errorf("%s: no environment block before the result", name)
			}
		}
	}
}

// replayPaper runs suite-replay once and returns the paper's metrics.
func replayPaper(t *testing.T, cfg config, tr *tracer) (paperMetrics, *phase) {
	t.Helper()
	w, err := setupReplay(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := w.run(seconds(cfg.seconds), tr)
	if err != nil {
		t.Fatal(err)
	}
	return ph.paper, ph
}

func TestReplayPaperMetricsRepeat(t *testing.T) {
	cfg := tinyConfig("suite-replay")
	a, pa := replayPaper(t, cfg, nil)
	b, _ := replayPaper(t, cfg, nil)
	c, pc := replayPaper(t, cfg, newTracer())
	if a != b {
		t.Errorf("same seed, different paper metrics: %+v vs %+v", a, b)
	}
	if a != c {
		t.Errorf("traced run changed the paper metrics: %+v vs %+v", a, c)
	}
	if pa.failed != 0 || pc.failed != 0 {
		t.Errorf("λ violations: untraced %d, traced %d", pa.failed, pc.failed)
	}
	if a.optFrac <= 0 || a.plansCached <= 0 || a.tc < 1 || a.mso < 1 || a.mso > lambda {
		t.Errorf("implausible paper metrics %+v", a)
	}
}

// plantedEngine answers every optimizer call with the worst of the plans
// optimal at two corners of the selectivity space, at that plan's true
// cost, so SCR caches and serves plans that are far from optimal.
type plantedEngine struct {
	*engine.TemplateEngine
	corners []*engine.CachedPlan
}

func (p *plantedEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	cp, c, _, err := p.OptimizeEpoch(sv)
	return cp, c, err
}

func (p *plantedEngine) OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	if p.corners == nil {
		for _, s := range []float64{1e-4, 0.9} {
			corner := make([]float64, len(sv))
			for i := range corner {
				corner[i] = s
			}
			cp, _, err := p.TemplateEngine.Optimize(corner)
			if err != nil {
				return nil, 0, 0, err
			}
			p.corners = append(p.corners, cp)
		}
	}
	var worst *engine.CachedPlan
	worstCost := 0.0
	for _, cp := range p.corners {
		c, err := p.TemplateEngine.Recost(cp, sv)
		if err != nil {
			return nil, 0, 0, err
		}
		if c > worstCost {
			worst, worstCost = cp, c
		}
	}
	return worst, worstCost, p.StatsEpoch(), nil
}

func TestPlantedWrongPlanIsAFailure(t *testing.T) {
	cfg := tinyConfig("suite-replay")
	cfg.wrap = func(e *engine.TemplateEngine) core.Engine { return &plantedEngine{TemplateEngine: e} }
	_, ph := replayPaper(t, cfg, nil)
	if ph.failed == 0 {
		t.Fatalf("planted wrong plans passed verification (%d decisions)", ph.attempted)
	}
}

func TestTracedEngineForwardsOptionalInterfaces(t *testing.T) {
	_, ents, err := buildSuite(scale{templates: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ents[0].Sys.EngineFor(ents[0].Tpl)
	if err != nil {
		t.Fatal(err)
	}
	var bare, traced core.Engine = eng, traceEngine(eng, newTracer())
	for _, check := range []struct {
		name string
		has  func(core.Engine) bool
	}{
		{"BatchEngine", func(e core.Engine) bool { _, ok := e.(core.BatchEngine); return ok }},
		{"EpochEngine", func(e core.Engine) bool { _, ok := e.(core.EpochEngine); return ok }},
		{"CacheReporter", func(e core.Engine) bool { _, ok := e.(core.CacheReporter); return ok }},
		{"Rehydrator", func(e core.Engine) bool { _, ok := e.(core.Rehydrator); return ok }},
	} {
		if check.has(bare) != check.has(traced) {
			t.Errorf("%s: bare engine %v, traced engine %v", check.name, check.has(bare), check.has(traced))
		}
	}
}

// goLine returns the go directive of a go.mod file.
func goLine(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "go ") {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("%s has no go directive", path)
	return ""
}

// The toolchain compiles this package at the language version of its own
// go.mod, so the test running at all shows the code builds at it; this
// pins that version to the repository's.
func TestBuildsAtRepositoryGoVersion(t *testing.T) {
	if got, want := goLine(t, "go.mod"), goLine(t, "../go.mod"); got != want || want != "go 1.22" {
		t.Errorf("perfbench go.mod says %q, repository %q; want both go 1.22", got, want)
	}
}
