// Package par is the index pool every parallel loop of the checker runs
// on (ARCHITECTURE.md, "One level of parallelism: across traces").
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(worker, i) once for every i in [0, n) on at most workers
// goroutines (≤ 0 selects GOMAXPROCS) and returns when every call has
// returned. Workers claim indices in increasing order from one atomic
// cursor, with no feeder goroutine; the caller is worker 0. No two calls
// with the same worker run at once, so fn may index per-worker state by
// it. Dispatch stops once ctx is done or a call returns false: no index
// claimed after that starts, while calls already running finish.
func Each(ctx context.Context, workers, n int, fn func(worker, i int) bool) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	done := ctx.Done()
	var next atomic.Int64
	var stop atomic.Bool
	work := func(w int) {
		for {
			select {
			case <-done: // a nil done (never cancelled) is never ready
				return
			default:
			}
			i := int(next.Add(1) - 1)
			if i >= n || stop.Load() {
				return
			}
			if !fn(w, i) {
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
