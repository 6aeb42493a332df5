package stripe

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestNewSetZero(t *testing.T) {
	s := NewSet()
	for i := 0; i < width; i++ {
		if got := s.Load(i); got != 0 {
			t.Fatalf("fresh Load(%d) = %d, want 0", i, got)
		}
	}
	s.Add(3, 5)
	for i := 0; i < width; i++ {
		want := int64(0)
		if i == 3 {
			want = 5
		}
		if got := s.Load(i); got != want {
			t.Fatalf("Load(%d) after Add(3, 5) = %d, want %d", i, got, want)
		}
	}
}

func TestShardsPowerOfTwo(t *testing.T) {
	n := Shards()
	if n < 8 || n > maxShards || n&(n-1) != 0 {
		t.Fatalf("Shards() = %d, want a power of two in [8, %d]", n, maxShards)
	}
}

// A shard is exactly one cache line, and every set's lines start on a
// cache-line boundary, so no shard of one set shares a line with another
// shard or with any other object.
func TestLinesAligned(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != cacheLine {
		t.Fatalf("shard is %d bytes, want %d", got, cacheLine)
	}
	sets := make([]Set, 256)
	for i := range sets {
		sets[i] = NewSet()
		if got := len(sets[i].lines); got != Shards() {
			t.Fatalf("set has %d lines, want %d", got, Shards())
		}
		if addr := uintptr(unsafe.Pointer(&sets[i].lines[0])); addr%cacheLine != 0 {
			t.Fatalf("set %d lines start at %#x, not %d-byte aligned", i, addr, cacheLine)
		}
	}
}

// Concurrent Adds across every index of one set sum exactly, and no
// index leaks into another.
func TestConcurrentAdds(t *testing.T) {
	s := NewSet()
	const goroutines = 32
	const perG = 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perG; n++ {
				for i := 0; i < width; i++ {
					s.Add(i, int64(i+1))
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < width; i++ {
		if got, want := s.Load(i), int64(goroutines*perG*(i+1)); got != want {
			t.Fatalf("Load(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestNegativeDelta(t *testing.T) {
	s := NewSet()
	s.Add(0, 10)
	s.Add(0, -3)
	if got := s.Load(0); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
}

// The SCR hit path has a strict allocation budget (core's
// TestProcessHitPathAllocBudget); the counters it bumps must not allocate.
func TestAddDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	s := NewSet()
	allocs := testing.AllocsPerRun(1000, func() { s.Add(width-1, 1) })
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f times per call, want 0", allocs)
	}
}

func TestShardSpread(t *testing.T) {
	// Distinct goroutines should not all collapse onto one shard. This is
	// probabilistic (stack placement), so only require that *some* spread
	// exists across many goroutines.
	s := NewSet()
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Add(0, 1)
		}()
	}
	wg.Wait()
	used := 0
	for k := range s.lines {
		if s.lines[k][0].Load() != 0 {
			used++
		}
	}
	// 64 goroutines all hashing to a single shard would mean the
	// discriminator is broken; even 2 distinct shards proves spreading.
	if used < 2 {
		t.Fatalf("64 goroutines used %d shard(s), want >= 2 (GOMAXPROCS=%d)",
			used, runtime.GOMAXPROCS(0))
	}
}
