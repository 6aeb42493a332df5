//go:build race

package engine

// raceEnabled reports whether the race detector instrumented this build.
// Its shadow-memory bookkeeping changes allocation counts (and sync.Pool
// drops items at random), so the allocation-budget tests skip themselves
// under -race.
const raceEnabled = true
