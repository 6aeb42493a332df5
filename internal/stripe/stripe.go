// Package stripe provides cache-line-striped counters for write-hot,
// read-rare statistics on concurrent serving paths.
//
// A single atomic.Int64 bumped by every request serializes all cores on
// one cache line: each Add forces the line into the local core's cache in
// exclusive state, evicting it from whichever core wrote last (MESI
// ping-pong). At production concurrency this coherence traffic — not the
// add itself — dominates, and it grows with core count, so a path that is
// otherwise lock-free stops scaling. A Set spreads a group of counters
// over several cache-line shards; concurrent writers land on different
// shards with high probability and never share a line, while readers
// (Stats, /metrics — rare) pay a short summation loop.
//
// The layout is packed by owner, not by counter: shard i is one 64-byte
// line holding shard i's copy of every counter in the set. A set of up to
// 8 counters therefore costs Shards() lines (512 B at 8 shards, 4 KiB
// at 64), not that many lines per counter, and a request that bumps
// several of its owner's counters touches one line, not one per counter.
//
// Totals are eventually consistent across shards in the same way a torn
// read of several related atomics already was.
package stripe

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// cacheLine is the coherence granularity a shard fills. 64 bytes covers
// x86-64 and most arm64 parts; the adjacent-line prefetcher on some Intel
// cores effectively pairs lines, but doubling the padding buys little
// once shards outnumber cores.
const cacheLine = 64

// width is the number of counters a Set holds: one int64 per counter in
// each shard line.
const width = cacheLine / 8

// maxShards caps the shard count. It must be a power of two.
const maxShards = 64

// nShards is the number of shards: enough to give every core its own
// line (sized to the machine's available parallelism, with a floor of 8
// so small hosts still spread oversubscribed GOMAXPROCS runs), capped at
// maxShards. Computed once — NumCPU is fixed for the process lifetime,
// unlike GOMAXPROCS which tests resize mid-run.
var nShards = func() int {
	n := runtime.NumCPU()
	if n < 8 {
		n = 8
	}
	shards := 1
	for shards < n && shards < maxShards {
		shards <<= 1
	}
	return shards
}()

// line is one shard: its copy of every counter in the set, exactly one
// cache line.
type line [width]atomic.Int64

// Set is a group of up to 8 (width) int64 counters striped over Shards()
// cache lines, addressed by index. Build it with NewSet; the zero value
// has no shards.
type Set struct {
	lines []line
}

// NewSet allocates a set with every counter at zero. The shard array is
// one nShards×64-byte allocation; the runtime serves power-of-two sizes
// of 512 B and up from size classes whose slots are multiples of 512 B in
// page-aligned spans, so every line starts on a cache-line boundary and
// no other object shares one (pinned by TestLinesAligned).
func NewSet() Set {
	return Set{lines: make([]line, nShards)}
}

// slot picks the calling goroutine's shard. There is no portable
// per-CPU id in Go, so the discriminator is the address of a stack
// local: distinct goroutines run on distinct stacks (spaced by at least
// a stack allocation span), so concurrent writers hash to different
// shards with high probability, and writers running on different cores
// are different goroutines. The address is consumed immediately as a
// uintptr, so the local never escapes and Add stays allocation-free
// (pinned by TestAddDoesNotAllocate). A goroutine's stack may move on
// growth, re-homing it to a new shard — harmless, totals are sums.
func slot() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>10) & (nShards - 1)
}

// Add adds delta to counter i (0 ≤ i < width).
func (s *Set) Add(i int, delta int64) {
	s.lines[slot()][i].Add(delta)
}

// Load returns counter i's current total: the sum over all shards.
// Shards are read individually, so a Load concurrent with Adds observes
// some subset of them — the same monotone eventual consistency a plain
// atomic counter read concurrently with writers has.
func (s *Set) Load(i int) int64 {
	var sum int64
	for k := range s.lines {
		sum += s.lines[k][i].Load()
	}
	return sum
}

// Shards reports the number of shards (for tests and docs).
func Shards() int { return nShards }
