// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads against the real memo optimizer on the suite
// templates and prints every metric by name with its unit:
//
//	python3 perfbench/run.py --workload suite-replay --seed 1 --seconds 10 --trace 0
//
// run.py builds this package and passes its arguments through. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones: timings from an untraced phase, layer numbers from a
// traced phase of the same length. LAYERS.md explains every metric, which
// layer it belongs to and which other metric it should move.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the
// environment block. Both are also written to .bench_results/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// lambda is the sub-optimality bound every workload runs SCR at (§6).
const lambda = 2.0

// dbSeed fixes the synthetic databases: the workload seed varies the
// query instances, never the data they run against.
const dbSeed = 20170514

// scale sizes the workloads. The benchmark runs at fullScale; the tests
// shrink it.
type scale struct {
	replayM     int // instances per template in one suite-replay pass
	hitsM       int // warm instances per template on hits-http
	churnWarm   int // warm instances per template on churn-mixed
	churnK      int // churn-mixed operations between statistics epochs
	churnVerify int // most decisions verified per epoch on churn-mixed
	probeEpochs int // epochs installed by the drain probe of hits-http and suite-replay
	templates   int // suite templates used; 0 means all
}

var fullScale = scale{
	replayM:     500,
	hitsM:       300,
	churnWarm:   1000,
	churnK:      20000,
	churnVerify: 2000,
	probeEpochs: 15,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int    // set-ups per untraced run; setup_s is their median
	outDir   string // where results and spans are written; "" writes nothing
	sc       scale
	// wrap, when set, replaces each suite-replay engine; the tests use it
	// to plant wrong plans.
	wrap func(*engine.TemplateEngine) core.Engine
}

// bench is one set-up workload, ready to run timed phases.
type bench interface {
	// run measures one timed phase of length d. tr is nil when untraced.
	run(d time.Duration, tr *tracer) (*phase, error)
	close()
}

var workloads = map[string]func(config, *tracer) (bench, error){
	"hits-http":    setupHits,
	"suite-replay": setupReplay,
	"churn-mixed":  setupChurn,
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// envBlock records where and how a result was measured.
type envBlock struct {
	CPU        string  `json:"cpu"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// paperMetrics are the paper's plan-quality numbers (§2.1).
type paperMetrics struct {
	optFrac     float64 // optimizer calls ÷ decisions (numOpt / m)
	plansCached float64 // Σ MaxPlans (numPlans)
	tc          float64 // Σ chosen cost ÷ Σ optimal cost
	mso         float64 // max sub-optimality
}

// phase is what one timed phase measured.
type phase struct {
	attempted, failed int64
	decisions         int64
	busy              time.Duration // phase clock: time spent making the decisions
	win               []*windows    // per worker: decisions and latencies by window
	paper             paperMetrics
	drainMs           float64
	c                 counts
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, env, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, cfg, res, env); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, errOut io.Writer) (config, error) {
	cfg := config{setups: 3, outDir: ".bench_results", sc: fullScale}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&cfg.workload, "workload", "", "hits-http, suite-replay or churn-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = *trace != 0
	return cfg, nil
}

// runBenchmark sets the workload up and measures it. Untraced, it sets up
// cfg.setups times (setup_s is the median) and times the last set-up for
// cfg.seconds. Traced, it runs two fresh set-ups for half the time each,
// the first untraced and the second traced, so the tracing overhead is
// measured against the same work.
func runBenchmark(cfg config) (*result, envBlock, error) {
	env := environment(cfg)
	setup := workloads[cfg.workload]
	if !cfg.trace {
		w, setupS, err := setupMedian(cfg, setup)
		if err != nil {
			return nil, env, err
		}
		defer w.close()
		ph, err := w.run(seconds(cfg.seconds), nil)
		if err != nil {
			return nil, env, err
		}
		m := endToEnd(ph, setupS)
		return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, env, nil
	}

	half := seconds(cfg.seconds / 2)
	plain, err := timedOnce(cfg, setup, half, nil)
	if err != nil {
		return nil, env, err
	}
	tr := newTracer()
	traced, err := timedOnce(cfg, setup, half, tr)
	if err != nil {
		return nil, env, err
	}
	m := layerMetrics(traced, tr)
	speed(plain, m)
	m.set("trace.overhead_pct", "%", 100*(rate(plain)/rate(traced)-1))
	if cfg.outDir != "" {
		if err := tr.write(filepath.Join(cfg.outDir, "spans-"+cfg.workload+".csv")); err != nil {
			return nil, env, err
		}
	}
	failed := plain.failed + traced.failed
	return &result{Correct: failed == 0, Attempted: plain.attempted + traced.attempted, Failed: failed, Metrics: m}, env, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func setupMedian(cfg config, setup func(config, *tracer) (bench, error)) (bench, float64, error) {
	times := make([]float64, 0, cfg.setups)
	var w bench
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		// Each set-up starts from a collected heap instead of paying for
		// the previous one's garbage.
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = setup(cfg, nil); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

// timedOnce sets the workload up once and runs one timed phase.
func timedOnce(cfg config, setup func(config, *tracer) (bench, error), d time.Duration, tr *tracer) (*phase, error) {
	w, err := setup(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph, err := w.run(d, tr)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	ph.c.mallocs = int64(after.Mallocs - before.Mallocs)
	ph.c.allocBytes = int64(after.TotalAlloc - before.TotalAlloc)
	return ph, nil
}

func rate(ph *phase) float64 {
	if ph.busy <= 0 {
		return 0
	}
	return float64(ph.decisions) / ph.busy.Seconds()
}

// endToEnd computes the end-to-end metrics of an untraced phase. The live
// heap is read after a final GC, with the latency samples dropped first
// so the figure is the system's, not the benchmark's.
func endToEnd(ph *phase, setupS float64) metrics {
	m := metrics{}
	m.set("setup_s", "s", setupS)
	ph.win = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("heap_mb", "MB", float64(ms.HeapAlloc)/(1<<20))
	m.set("opt_frac", "fraction", ph.paper.optFrac)
	m.set("plans_cached", "count", ph.paper.plansCached)
	m.set("tc", "ratio", ph.paper.tc)
	m.set("mso", "ratio", ph.paper.mso)
	return m
}

// speed adds the timing metrics of an untraced phase to m. They are
// per-layer metrics, taken from the untraced half of a traced run: on a
// shared host they spread by more than a tenth from run to run, too much
// to bound end to end (LAYERS.md).
func speed(ph *phase, m metrics) {
	dps, p50, p99 := summarizeWindows(ph.win, ph.busy)
	m.set("decisions_per_s", "1/s", dps)
	m.set("latency_p50_us", "us", p50/1e3)
	m.set("latency_p99_us", "us", p99/1e3)
	m.set("reval_drain_ms", "ms", ph.drainMs)
}

// quantile returns the q-quantile of sorted ns samples, interpolating
// linearly between closest ranks.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func environment(cfg config) envBlock {
	return envBlock{
		CPU:        cpuModel(),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary at build time, or
// "unknown" when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// emit prints a readable table, the environment block and the result
// line, and writes the same to cfg.outDir.
func emit(w io.Writer, cfg config, res *result, env envBlock) error {
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	envLine, err := json.Marshal(map[string]envBlock{"env": env})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n%s\n", envLine, resLine)
	if cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	body, err := json.MarshalIndent(struct {
		Env    envBlock `json:"env"`
		Result *result  `json:"result"`
	}{env, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(body, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
