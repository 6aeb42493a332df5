package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// spanKind names a layer boundary the benchmark times.
type spanKind uint8

const (
	kClient     spanKind = iota // client.request: one POST /v1/plan round trip
	kHandler                    // server.handler: Server.Handler serving it
	kProcess                    // core.process: one SCR.Process call
	kOptimize                   // engine.optimize: one optimizer call
	kResample                   // stats.resample: building the next statistics store
	kAdvance                    // stats.advance: installing it as the next epoch
	kRevalidate                 // core.revalidate: Directory.Revalidate until every run is done
	numKinds
)

var kindNames = [numKinds]string{
	"client.request", "server.handler", "core.process", "engine.optimize",
	"stats.resample", "stats.advance", "core.revalidate",
}

// span is one timed interval. Times are ns since the tracer started.
// parent is the id of the span that caused it, 0 when unknown. attr holds
// the response's latencyMicros on client.request spans.
type span struct {
	kind       spanKind
	id, parent uint64
	start, end int64
	attr       int64
}

// maxSpans bounds the tracer's memory; spans beyond it are counted as
// dropped instead of kept.
const maxSpans = 1 << 22

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base time.Time
	ids  atomic.Uint64
	// open is the core.process span in progress on the one goroutine
	// suite-replay runs on; engine.optimize spans take it as their parent.
	// Concurrent workloads leave it 0, so their optimizer spans stay
	// unattributed.
	open atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// requestIDHeader carries the client.request span id to the server side,
// joining the two spans of one request.
const requestIDHeader = "X-Perfbench-Request-Id"

// handler wraps h with a server.handler span per request.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{kind: kHandler, id: t.newID(), parent: parent, start: start, end: t.now()})
	})
}

// tracedEngine times optimizer calls. Embedding forwards every other
// method, so SCR sees the same optional interfaces (BatchEngine,
// EpochEngine, CacheReporter, Rehydrator) as on the bare engine and takes
// the same paths. Recost runs through PreparedInstance, a concrete type
// that cannot be wrapped; its time comes from TemplateEngine.Timing.
type tracedEngine struct {
	*engine.TemplateEngine
	tr *tracer
}

var (
	_ core.BatchEngine   = (*tracedEngine)(nil)
	_ core.EpochEngine   = (*tracedEngine)(nil)
	_ core.CacheReporter = (*tracedEngine)(nil)
	_ core.Rehydrator    = (*tracedEngine)(nil)
)

// traceEngine returns eng itself when tr is nil.
func traceEngine(eng *engine.TemplateEngine, tr *tracer) core.Engine {
	if tr == nil {
		return eng
	}
	return &tracedEngine{TemplateEngine: eng, tr: tr}
}

func (e *tracedEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	cp, c, _, err := e.OptimizeEpoch(sv)
	return cp, c, err
}

func (e *tracedEngine) OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	start := e.tr.now()
	cp, c, ep, err := e.TemplateEngine.OptimizeEpoch(sv)
	e.tr.record(span{kind: kOptimize, id: e.tr.newID(), parent: e.tr.open.Load(), start: start, end: e.tr.now()})
	return cp, c, ep, err
}

// process calls s.Process inside a core.process span. single marks the
// caller as the only goroutine processing, so optimizer spans inside are
// attributed to this span.
func (t *tracer) process(ctx context.Context, s *core.SCR, sv []float64, single bool) (*core.Decision, error) {
	id := t.newID()
	if single {
		t.open.Store(id)
	}
	start := t.now()
	dec, err := s.Process(ctx, sv)
	t.record(span{kind: kProcess, id: id, start: start, end: t.now()})
	if single {
		t.open.Store(0)
	}
	return dec, err
}

// spanStats summarizes the recorded spans.
type spanStats struct {
	count [numKinds]int64
	total [numKinds]int64 // ns
	// optimizeInProcess is the optimizer time inside core.process spans.
	optimizeInProcess int64
	// requests joined client.request to server.handler spans: handler
	// time, handler time beyond the response's latencyMicros, and client
	// time beyond the handler.
	requests                    int64
	handlerNs, selfNs, transpNs int64
}

func (t *tracer) summarize() spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var st spanStats
	process := make(map[uint64]bool)
	handlers := make(map[uint64]span)
	for _, s := range t.spans {
		st.count[s.kind]++
		st.total[s.kind] += s.end - s.start
		switch s.kind {
		case kProcess:
			process[s.id] = true
		case kHandler:
			handlers[s.parent] = s
		}
	}
	for _, s := range t.spans {
		switch s.kind {
		case kOptimize:
			if process[s.parent] {
				st.optimizeInProcess += s.end - s.start
			}
		case kClient:
			h, ok := handlers[s.id]
			if !ok {
				continue
			}
			hd := h.end - h.start
			st.requests++
			st.handlerNs += hd
			st.selfNs += hd - s.attr*1000
			st.transpNs += (s.end - s.start) - hd
		}
	}
	return st
}

func (st *spanStats) meanUs(k spanKind) float64 {
	return div(float64(st.total[k]), float64(st.count[k])) / 1e3
}

// write stores the spans as CSV: kind,id,parent,start_ns,end_ns,attr.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "# dropped=%d\nkind,id,parent,start_ns,end_ns,attr\n", t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", kindNames[s.kind], s.id, s.parent, s.start, s.end, s.attr)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
