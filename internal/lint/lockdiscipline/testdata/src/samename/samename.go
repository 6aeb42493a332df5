// Fixture exercising the hot-path read-lock rule on methods that share a
// name: the call graph reaches every declaration named like a callee, so
// Dir.rank's read lock is flagged even though SCR.rank, declared after it,
// is lock-free.
package samename

import "sync"

type Dir struct {
	mu sync.RWMutex
	n  int
}

// rank takes a read lock; Process reaches it through s.dir.rank.
func (d *Dir) rank(x int) int {
	d.mu.RLock() // want `read lock acquired on the Process hot path \(in rank\)`
	defer d.mu.RUnlock()
	return d.n * x
}

type SCR struct {
	dir *Dir
	n   int
}

// rank is lock-free.
func (s *SCR) rank(x int) int { return s.n + x }

// Process is a hot root that calls both rank methods.
func (s *SCR) Process(x int) int {
	return s.rank(x) + s.dir.rank(x)
}
