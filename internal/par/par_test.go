package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoCallsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			calls := make([]atomic.Int32, n)
			if err := Do(n, func(i int) error { calls[i].Add(1); return nil }); err != nil {
				t.Fatalf("procs=%d n=%d: %v", procs, n, err)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("procs=%d n=%d: index %d called %d times", procs, n, i, c)
				}
			}
		}
	}
}

// TestDoReturnsLowestIndexError fails indices 3 and 7 on two workers. Job
// 3 is held until job 7 has started, so both run, and the other job's
// release makes the lower index fail first in one variant and last in the
// other. Either way Do must report index 3, as a sequential loop would.
func TestDoReturnsLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, lowFirst := range []bool{true, false} {
		for trial := 0; trial < 50; trial++ {
			started7, release := make(chan struct{}), make(chan struct{})
			err := Do(20, func(i int) error {
				switch {
				case i == 3 && lowFirst:
					<-started7
					close(release)
				case i == 3:
					<-release
				case i == 7 && lowFirst:
					close(started7)
					<-release
				case i == 7:
					close(release)
				default:
					return nil
				}
				return fmt.Errorf("job %d", i)
			})
			if err == nil || err.Error() != "job 3" {
				t.Fatalf("lowFirst=%v trial %d: got %v, want job 3", lowFirst, trial, err)
			}
		}
	}
}

// TestDoStopsStartingJobsAfterFailure runs on one worker, where the
// schedule is fixed: once index 0 fails, no further index starts.
func TestDoStopsStartingJobsAfterFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var started atomic.Int64
	boom := errors.New("boom")
	err := Do(100, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if s := started.Load(); s != 1 {
		t.Fatalf("%d jobs started, want 1: Do kept going after index 0 failed", s)
	}
}
