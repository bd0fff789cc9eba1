package serve

import (
	"sync"

	"repro/internal/telemetry"
)

// sched is the daemon's job queue: one FIFO under one mutex, so jobs
// start in submission order whichever worker is free. Jobs are coarse
// units (whole suites), so workers contend for the lock once per job.
type sched struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*job
	closed bool
	tel    *telemetry.Registry
}

func newSched(tel *telemetry.Registry) *sched {
	sc := &sched{tel: tel}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// push enqueues j and wakes a worker.
func (sc *sched) push(j *job) {
	sc.mu.Lock()
	sc.queue = append(sc.queue, j)
	sc.tel.Gauge("serve.queue_depth").Set(int64(len(sc.queue)))
	sc.mu.Unlock()
	sc.cond.Signal()
}

// pop blocks until a job is queued, and returns the oldest, or until the
// scheduler closes; ok is false on close.
func (sc *sched) pop() (*job, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for len(sc.queue) == 0 {
		if sc.closed {
			return nil, false
		}
		sc.cond.Wait()
	}
	j := sc.queue[0]
	sc.queue[0] = nil
	sc.queue = sc.queue[1:]
	sc.tel.Gauge("serve.queue_depth").Set(int64(len(sc.queue)))
	return j, true
}

// close wakes every blocked worker with "no more work".
func (sc *sched) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
	sc.cond.Broadcast()
}
