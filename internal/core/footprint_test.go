package core

import (
	"runtime"
	"testing"

	"repro/internal/stripe"
)

// TestSCRFootprint pins the fixed cost of an empty SCR: one template's
// plan cache before it caches anything. The striped hot counters are one
// cache line per shard for the whole set; everything else fits a small
// fixed budget. Per-counter striping (64 lines per counter, 20 KiB for
// the five hot counters) fails this.
func TestSCRFootprint(t *testing.T) {
	eng := twoPlaneEngine(t)
	keep := make([]*SCR, 256)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		s, err := New(eng)
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = s
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(keep))
	const fixed = 1024
	if budget := int64(fixed + stripe.Shards()*64); per > budget {
		t.Fatalf("empty SCR retains %d B, budget %d B (%d fixed + %d shards x 64)",
			per, budget, fixed, stripe.Shards())
	}
	t.Logf("empty SCR retains %d B at %d shards", per, stripe.Shards())
}
