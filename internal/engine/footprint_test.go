package engine

import (
	"runtime"
	"testing"

	"repro/internal/stripe"
)

// TestTemplateEngineFootprint pins the fixed cost of a TemplateEngine
// over a shared optimizer: the struct plus its striped memo counters, one
// cache line per shard for the pair. Per-counter striping (64 lines per
// counter, 8 KiB for the two) fails this.
func TestTemplateEngineFootprint(t *testing.T) {
	sys, tpl := testSystem(t)
	keep := make([]*TemplateEngine, 256)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		e, err := NewTemplateEngine(tpl, sys.Opt)
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = e
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(keep))
	const fixed = 256
	if budget := int64(fixed + stripe.Shards()*64); per > budget {
		t.Fatalf("TemplateEngine retains %d B, budget %d B (%d fixed + %d shards x 64)",
			per, budget, fixed, stripe.Shards())
	}
	t.Logf("TemplateEngine retains %d B at %d shards", per, stripe.Shards())
}
