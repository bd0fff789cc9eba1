package cov

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Capacity is the number of coverage points a Set holds. Point panics
// when a registration would pass it; raise it when the model grows.
const Capacity = 128

// ID is a coverage point's dense index, handed out by Point.
type ID uint16

// The point universe is process-global and append-only: model packages
// register their points at package init (var hit = cov.Point("fsspec/
// rename/subdir")), so the denominator is complete before anything is
// evaluated.
var universe struct {
	mu     sync.Mutex
	names  []string // indexed by ID
	byName map[string]ID
}

// Point registers a coverage point and returns its ID; registering a name
// twice returns the same ID. Call at package init.
func Point(name string) ID {
	u := &universe
	u.mu.Lock()
	defer u.mu.Unlock()
	if id, ok := u.byName[name]; ok {
		return id
	}
	if len(u.names) == Capacity {
		panic(fmt.Sprintf("cov: point %q is past cov.Capacity (%d)", name, Capacity))
	}
	if u.byName == nil {
		u.byName = make(map[string]ID)
	}
	id := ID(len(u.names))
	u.names = append(u.names, name)
	u.byName[name] = id
	return id
}

// points returns the registered names, indexed by ID, and their IDs in
// name order.
func points() (names []string, sorted []ID) {
	u := &universe
	u.mu.Lock()
	names = u.names[:len(u.names):len(u.names)]
	u.mu.Unlock()
	sorted = make([]ID, len(names))
	for i := range sorted {
		sorted[i] = ID(i)
	}
	sort.Slice(sorted, func(i, j int) bool { return names[sorted[i]] < names[sorted[j]] })
	return names, sorted
}

// Set is the coverage points one evaluation hit: a fixed-size bitset
// owned by that evaluation, so recording a hit is a plain store and a Set
// needs no allocation. A nil *Set records nothing.
type Set [Capacity / 64]uint64

// Hit records id in s.
func (s *Set) Hit(id ID) {
	if s != nil {
		s[id/64] |= 1 << (id % 64)
	}
}

// Has reports whether s holds id.
func (s *Set) Has(id ID) bool { return s[id/64]&(1<<(id%64)) != 0 }

// Or adds o's points to s.
func (s *Set) Or(o *Set) {
	if s != nil {
		for i := range s {
			s[i] |= o[i]
		}
	}
}

// Names returns the names of s's points, sorted.
func (s *Set) Names() []string {
	names, sorted := points()
	var out []string
	for _, id := range sorted {
		if s.Has(id) {
			out = append(out, names[id])
		}
	}
	return out
}

// SetOf returns the set of the named points. Names outside the registered
// universe are ignored: a point set recorded against an older model may
// name points that no longer exist.
func SetOf(names []string) Set {
	u := &universe
	u.mu.Lock()
	defer u.mu.Unlock()
	var s Set
	for _, n := range names {
		if id, ok := u.byName[n]; ok {
			s.Hit(id)
		}
	}
	return s
}

// Registry counts, for each point, the evaluations (traces, fuzz runs)
// whose sets hit it. It is safe for concurrent use; merging costs one
// atomic add per point of the set.
type Registry struct {
	counts [Capacity]atomic.Uint64
	// numHit counts points whose count went 0→1 since the last Reset, so
	// HitCount is O(1): the fuzzer polls it once per run.
	numHit atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// add adds n to point i's count.
func (r *Registry) add(i int, n uint64) {
	if r.counts[i].Add(n) == n {
		r.numHit.Add(1)
	}
}

// Merge counts one more evaluation for each point of s.
func (r *Registry) Merge(s *Set) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			r.add(w*64+bits.TrailingZeros64(word), 1)
		}
	}
}

// Add adds o's counts to r: a worker that merged its sets into a private
// registry hands them on in one pass.
func (r *Registry) Add(o *Registry) {
	for i := range o.counts {
		if n := o.counts[i].Load(); n > 0 {
			r.add(i, n)
		}
	}
}

// HitCount returns the number of distinct points hit since the last
// Reset, in O(1). It is monotone between Resets, which is what the
// fuzzer's cheap "did this run reach anything new?" pre-filter relies on.
func (r *Registry) HitCount() int { return int(r.numHit.Load()) }

// Snapshot returns, for every registered point sorted by name, the number
// of merged evaluations that hit it.
func (r *Registry) Snapshot() (ids []string, counts []uint64) {
	names, sorted := points()
	ids = make([]string, len(sorted))
	counts = make([]uint64, len(sorted))
	for i, id := range sorted {
		ids[i], counts[i] = names[id], r.counts[id].Load()
	}
	return ids, counts
}

// Stats returns (hit, total) point counts.
func (r *Registry) Stats() (hit, total int) {
	ids, counts := r.Snapshot()
	for i := range ids {
		if counts[i] > 0 {
			hit++
		}
	}
	return hit, len(ids)
}

// Reset zeroes r's counts (between experiment runs).
func (r *Registry) Reset() {
	for i := range r.counts {
		r.counts[i].Store(0)
	}
	r.numHit.Store(0)
}

// Unhit returns the sorted ids of registered points r has never seen hit.
func (r *Registry) Unhit() []string {
	ids, counts := r.Snapshot()
	var out []string
	for i, id := range ids {
		if counts[i] == 0 {
			out = append(out, id)
		}
	}
	return out
}
