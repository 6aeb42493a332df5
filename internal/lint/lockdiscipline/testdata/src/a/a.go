// Fixture exercising the lockdiscipline analyzer: the SCR RWMutex protocol.
package a

import "sync"

type Engine struct{}

func (e *Engine) Optimize(sv []float64) {}

func (e *Engine) Recost(x int) float64 { return 0 }

func (e *Engine) Lookup(x int) int { return x }

type SCR struct {
	mu  sync.RWMutex
	eng *Engine
	n   int
}

// lock is the repo's lock-wait-counting wrapper; the analyzer treats it as
// Lock on the receiver.
func (s *SCR) lock() { s.mu.Lock() }

// rlock mirrors lock for readers.
func (s *SCR) rlock() { s.mu.RLock() }

// goodDeferWrite is the idiomatic write section.
func goodDeferWrite(s *SCR) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n > 0 {
		return 1
	}
	return 0
}

// goodShortRead is a single-return manual read section: allowed.
func goodShortRead(s *SCR) int {
	s.mu.RLock()
	n := s.n
	s.mu.RUnlock()
	return n
}

// goodBlockingOutside moves the engine call outside the critical section.
func goodBlockingOutside(s *SCR) {
	sv := []float64{0.5}
	s.eng.Optimize(sv)
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// goodNonBlockingUnderLock: not every engine method is a blocking call.
func goodNonBlockingUnderLock(s *SCR) {
	s.mu.Lock()
	s.n = s.eng.Lookup(s.n)
	s.mu.Unlock()
}

// badBlockingUnderWriteLock holds the write lock across an optimizer call.
func badBlockingUnderWriteLock(s *SCR) {
	s.mu.Lock()
	s.eng.Optimize(nil) // want `Optimize called while the write lock is held`
	s.mu.Unlock()
}

// badBlockingViaWrapper: the lock() wrapper counts as Lock.
func badBlockingViaWrapper(s *SCR) {
	s.lock()
	_ = s.eng.Recost(1) // want `Recost called while the write lock is held`
	s.mu.Unlock()
}

// badUpgrade self-deadlocks under Go's writer-preferring RWMutex.
func badUpgrade(s *SCR) {
	s.mu.RLock()
	s.mu.Lock() // want `RLock→Lock upgrade`
	s.mu.Unlock()
	s.mu.RUnlock()
}

// badReturnHeld leaks the write lock on the early return.
func badReturnHeld(s *SCR, cond bool) int {
	s.mu.Lock()
	if cond {
		return 1 // want `return with the write lock still held`
	}
	s.mu.Unlock() // want `manual Unlock in badReturnHeld, which has 2 return statements`
	return 0
}

// badManualMultiReturn releases on every path today, but every new return is
// a leak waiting to happen.
func badManualMultiReturn(s *SCR, cond bool) int {
	s.mu.Lock()
	if cond {
		s.mu.Unlock() // want `manual Unlock in badManualMultiReturn, which has 2 return statements`
		return 1
	}
	s.mu.Unlock()
	return 0
}

// allowedManual is the audited tight-section pattern.
func allowedManual(s *SCR, cond bool) int {
	s.mu.Lock()
	if cond {
		//lint:allow lockdiscipline audited tight section; both paths release
		s.mu.Unlock()
		return 1
	}
	s.mu.Unlock()
	return 0
}

// badBlockingInBranch takes the write lock outside the entry block: the
// dataflow must still reach the blocks after a lock-free entry.
func badBlockingInBranch(s *SCR, cond bool) {
	if cond {
		s.mu.Lock()
		s.eng.Optimize(nil) // want `Optimize called while the write lock is held`
		s.mu.Unlock()
	}
}
