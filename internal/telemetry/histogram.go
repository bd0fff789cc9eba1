package telemetry

import (
	"sync/atomic"
	"time"
)

// histBuckets is the number of finite buckets; one overflow cell follows.
// Bounds are exponential: bucket i holds values ≤ 1µs·2^i (in nanoseconds
// for durations — the only unit the stack records today), spanning 1µs to
// ~134s, which covers everything from a single cache lookup to a full
// cold suite run.
const histBuckets = 28

// histBound returns the inclusive upper bound of finite bucket i.
func histBound(i int) int64 { return 1000 << uint(i) }

// Histogram is a fixed-bucket latency histogram: exponential bounds,
// atomic per-bucket counts, and percentile estimation by linear
// interpolation inside the landing bucket. Observations are lock-free;
// snapshots are only weakly consistent (count/sum/buckets may be torn by
// a few in-flight observations), which is fine for telemetry.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets + 1]atomic.Int64
}

// Observe records one value (nanoseconds, for durations).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveSince records the duration elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// bucketOf locates v's bucket by binary search over the exponential
// bounds (equivalently: the bit length of v/1000).
func bucketOf(v int64) int {
	lo, hi := 0, histBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= histBound(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // histBuckets = overflow
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// holding the target rank and interpolating linearly between its bounds.
// The overflow bucket reports the observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == histBuckets {
				return h.max.Load()
			}
			lower := int64(0)
			if i > 0 {
				lower = histBound(i - 1)
			}
			upper := histBound(i)
			if m := h.max.Load(); upper > m {
				// No observation exceeded max; tighten the bucket.
				upper = m
			}
			if upper < lower {
				return lower
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + int64(frac*float64(upper-lower))
		}
		cum += n
	}
	return h.max.Load()
}
