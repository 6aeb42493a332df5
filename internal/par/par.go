// Package par runs independent, index-addressed jobs on a fixed pool of
// workers, one per usable CPU.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) for every i in [0, n) on min(n, GOMAXPROCS) goroutines and
// waits for them. fn must be safe to call concurrently for distinct
// indices; each call typically writes only its own slot of a result slice
// allocated by the caller, so results land in index order whatever the
// scheduling.
//
// Do returns the error of the lowest failing index, the one a sequential
// loop would have stopped at. After a failure no new index is started, but
// every lower index has already been claimed (indices are claimed in
// increasing order), so its error, if any, is still seen.
func Do(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return first
}
