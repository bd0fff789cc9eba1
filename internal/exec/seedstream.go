package exec

import (
	"math/rand"
	"sync"
)

// Seeded runs draw every script's interleaving from the same scheduler
// seed, and seeding a math/rand source costs far more than the few
// hundred values a script consumes. seedStreams keeps, per seed, the
// Int63 stream rand.NewSource(seed) produces, so each script replays it
// from the start instead of re-seeding: the same values, so the same
// traces.
var seedStreams = streamCache{m: make(map[int64]*seedStream)}

// maxSeedStreams bounds the cache; a fuzz campaign drawing a fresh seed
// per run evicts the oldest stream first.
const maxSeedStreams = 64

// streamChunk is how many values a stream grows by at least.
const streamChunk = 256

type streamCache struct {
	mu    sync.Mutex
	m     map[int64]*seedStream
	order []int64 // seeds in insertion order, oldest first
}

// source returns a rand.Source replaying seed's stream from the start.
func (c *streamCache) source(seed int64) rand.Source {
	c.mu.Lock()
	st, ok := c.m[seed]
	if !ok {
		if len(c.order) == maxSeedStreams {
			delete(c.m, c.order[0])
			c.order = append(c.order[:0], c.order[1:]...)
		}
		st = &seedStream{seed: seed}
		c.m[seed] = st
		c.order = append(c.order, seed)
	}
	c.mu.Unlock()
	return &replay{st: st}
}

// seedStream is the prefix of seed's Int63 stream drawn so far. vals
// only ever grows by appending, so a reader may keep reading a snapshot
// of it without the lock.
type seedStream struct {
	seed int64
	mu   sync.Mutex
	src  rand.Source // nil until the first value is drawn
	vals []int64
}

// atLeast returns the stream with at least n values drawn.
func (st *seedStream) atLeast(n int) []int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.vals) < n {
		if st.src == nil {
			st.src = rand.NewSource(st.seed)
		}
		for want := max(n, len(st.vals)+streamChunk); len(st.vals) < want; {
			st.vals = append(st.vals, st.src.Int63())
		}
	}
	return st.vals
}

// replay reads a seedStream from its start. It is owned by one run.
type replay struct {
	st   *seedStream
	vals []int64 // snapshot of st.vals
	i    int
}

// Int63 implements rand.Source.
func (r *replay) Int63() int64 {
	if r.i == len(r.vals) {
		r.vals = r.st.atLeast(r.i + 1)
	}
	v := r.vals[r.i]
	r.i++
	return v
}

// Seed implements rand.Source; a replayed stream is bound to its seed.
func (r *replay) Seed(int64) { panic("exec: a replayed scheduler stream cannot be re-seeded") }
