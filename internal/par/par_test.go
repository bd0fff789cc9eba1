package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce pins the dispatch contract: every index runs
// exactly once, worker ids stay in [0, workers), and no worker id runs
// two calls at once.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
			runs := make([]atomic.Int32, n)
			busy := make([]atomic.Bool, workers)
			var badWorker, overlap atomic.Int32
			Each(context.Background(), workers, n, func(w, i int) bool {
				if w < 0 || w >= workers {
					badWorker.Add(1)
					runs[i].Add(1)
					return true
				}
				if busy[w].Swap(true) {
					overlap.Add(1)
				}
				runs[i].Add(1)
				busy[w].Store(false)
				return true
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("workers %d, n %d: index %d ran %d times", workers, n, i, got)
				}
			}
			if badWorker.Load() != 0 || overlap.Load() != 0 {
				t.Errorf("workers %d, n %d: %d calls with a worker id outside [0,%d), %d overlapping calls on one id",
					workers, n, badWorker.Load(), workers, overlap.Load())
			}
		}
	}
}

// stopCase runs Each over 1000 indices where the first workers indices
// each hold one worker: all but the last block until it has started, and
// stopAt is called on the last one (index workers-1) to stop dispatch. It
// returns the indices that started.
func stopCase(ctx context.Context, workers int, stopAt func() bool) []int {
	const n = 1000
	var mu sync.Mutex
	var started []int
	var entered sync.WaitGroup
	entered.Add(workers - 1)
	release := make(chan struct{})
	Each(ctx, workers, n, func(_, i int) bool {
		mu.Lock()
		started = append(started, i)
		mu.Unlock()
		switch {
		case i < workers-1:
			entered.Done()
			<-release
			return true
		case i == workers-1:
			entered.Wait() // every other worker holds an earlier index
			ok := stopAt()
			close(release)
			return ok
		}
		return true
	})
	return started
}

// TestEachStopsDispatch pins that a cancel, or a call returning false,
// stops dispatch: the calls in flight finish, and no later index starts.
func TestEachStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		started := stopCase(ctx, workers, func() bool { cancel(); return true })
		cancel()
		if len(started) != workers {
			t.Errorf("cancel, workers %d: started %v, want exactly indices 0..%d", workers, started, workers-1)
		}
		for _, i := range started {
			if i >= workers {
				t.Errorf("cancel, workers %d: index %d started after the cancel", workers, i)
			}
		}

		started = stopCase(context.Background(), workers, func() bool { return false })
		for _, i := range started {
			if i >= workers {
				t.Errorf("false return, workers %d: index %d started after dispatch stopped", workers, i)
			}
		}
	}
}

// TestEachCancelledBeforeStart pins that a context done before the call
// starts nothing.
func TestEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int32
		Each(ctx, workers, 100, func(_, _ int) bool { ran.Add(1); return true })
		if ran.Load() != 0 {
			t.Errorf("workers %d: %d calls ran on a cancelled context", workers, ran.Load())
		}
	}
}

// TestEachLeavesNoGoroutine pins that every goroutine Each starts has
// exited once it returns, on normal, cancelled and stopped runs.
func TestEachLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		Each(context.Background(), 8, 1000, func(_, _ int) bool { return true })
		Each(context.Background(), 8, 1000, func(_, i int) bool { return i < 10 })
		ctx, cancel := context.WithCancel(context.Background())
		Each(ctx, 8, 1000, func(_, i int) bool {
			if i == 10 {
				cancel()
			}
			return true
		})
		cancel()
	}
	// A goroutine that has called wg.Done may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Each returned, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
