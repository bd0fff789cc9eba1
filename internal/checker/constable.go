package checker

import (
	"encoding/binary"

	"repro/internal/cov"
	"repro/internal/osspec"
	"repro/internal/types"
)

// ConsTable memoises fused call/return pairs (Checker.fuse) across
// traces. The key observation: every combinatorial script opens with the
// identical fixture prelude, so the same states recur suite-wide. The
// table interns the successors of a (source state, call and return) pair,
// with the τ outcome counts the checker reports for it, once, and replays
// them for every later trace that reaches the same state with the same
// pair. Each entry keeps the coverage points computing it hit, and a
// replay records them again, so a trace's coverage set does not depend on
// whether its pairs were computed or replayed. Single labels and τ
// expansions are not interned: they hit on about 6% of their lookups.
//
// Entries are keyed by the source state's *pointer identity*, not by
// StateEqual: StateEqual deliberately ignores fields a transition depends
// on (pending commands, allocation counters, descriptor capability flags,
// LastSeen snapshots — ignorable within one trace, where merged states
// never differ in them, but not across traces). Pointer identity makes a
// replay trivially sound — it is CallReturn applied to that very object —
// and still captures the suite-wide sharing: a checker publishes one
// initial state, interned successors feed back into every trace's state
// set, so all its traces walk the same object graph along shared script
// prefixes and divergence re-interns fresh objects at the first new pair.
//
// Ownership: a table belongs to one checker, and a checker to one
// goroutine, so the table takes no lock and a hit writes no cache line
// another core reads. pipeline.Run gives every worker a checker and table
// of its own; each worker still walks the shared fixture prefix through
// its own interned objects, and sharing one table across workers was
// measured to add under 0.5% of hits, while its lock made every lookup
// write a cache line that both cores wrote. Successor states are stored
// hashed and frozen (Hash() then Freeze()), so every later trace shares
// them without copying. Callers must treat returned successor slices as
// immutable.
//
// Memory is bounded by an epoch reset: once the retained-state count
// passes the cap the whole table is cleared (the shared initial state
// lives outside the table, so the next trace re-seeds the hot fixture
// prefix within a few steps — a reset costs one trace's worth of
// recomputation, not a shard's).
type ConsTable struct {
	// m is made at the first Put, sized for hint entries, so a table that
	// never misses (a warm run's) allocates nothing; an epoch reset clears
	// it in place and keeps the buckets for the next epoch.
	m    map[consKey]consEntry
	hint int
	// retained counts the *OsState pointers the table keeps alive (the
	// interned successors); the epoch reset triggers when it passes cap.
	retained int
	cap      int

	hits, misses, resets int64
}

type consKey struct {
	src *osspec.OsState
	key string
}

// consEntry is one interned pair: its successors, the coverage points
// computing them hit and CallReturn's τ outcome counts, so a replay
// reports what computing the pair again would.
type consEntry struct {
	succs                []*osspec.OsState
	hits                 cov.Set
	expansions, distinct int32
}

// DefaultConsCap bounds the states a run's cons tables may retain in total
// before an epoch reset; pipeline.Run splits it evenly across its
// workers' tables. 64k states is ~tens of MB of copy-on-write structure —
// far above what one suite's shared fixture prefix needs, far below a
// leak.
const DefaultConsCap = 1 << 16

// NewConsTable returns an empty table; maxStates ≤ 0 selects
// DefaultConsCap. sizeHint is the number of entries the table's map is
// made for at its first Put (≤ 0: grow from empty): a table sized once
// skips the rehashes of growing to its working size, which a cold run
// otherwise pays for on every worker.
func NewConsTable(maxStates, sizeHint int) *ConsTable {
	if maxStates <= 0 {
		maxStates = DefaultConsCap
	}
	return &ConsTable{cap: maxStates, hint: max(0, sizeHint)}
}

// Get returns the interned successors of (src, key), key from
// AppendPairKey, with the τ outcome counts Put stored with them, and
// whether the pair was present, adding the entry's coverage points to
// hits on a hit. The lookup converts key in place (the compiler elides
// the string conversion of a map index), so a hit allocates nothing;
// callers may reuse key's storage as soon as Get returns.
func (t *ConsTable) Get(src *osspec.OsState, key []byte, hits *cov.Set) (succs []*osspec.OsState, expansions, distinct int, ok bool) {
	e, ok := t.m[consKey{src, string(key)}]
	if !ok {
		t.misses++
		return nil, 0, 0, false
	}
	t.hits++
	hits.Or(&e.hits)
	return e.succs, int(e.expansions), int(e.distinct), true
}

// Put interns succs, with CallReturn's τ outcome counts, as the
// successors of (src, key), with the coverage points computing them hit
// (copied; hits may be reused once Put returns), hashing and freezing
// every successor first. The pair must have just missed: its owner
// computes a pair only after Get found none. src must already be frozen.
// key is copied into the entry.
func (t *ConsTable) Put(src *osspec.OsState, key []byte, succs []*osspec.OsState, hits *cov.Set, expansions, distinct int) {
	for _, ns := range succs {
		ns.Hash()
		ns.Freeze()
	}
	if t.m == nil {
		t.m = make(map[consKey]consEntry, t.hint)
	}
	if t.retained+len(succs) > t.cap && t.retained > 0 {
		// Epoch reset: drop everything rather than evict piecemeal. The
		// table refills from the live frontier within one trace.
		clear(t.m)
		t.retained = 0
		t.resets++
	}
	e := consEntry{succs: succs, expansions: int32(expansions), distinct: int32(distinct)}
	if hits != nil {
		e.hits = *hits
	}
	t.m[consKey{src, string(key)}] = e
	t.retained += len(succs)
}

// ConsStats is a snapshot of a table's effectiveness counters.
type ConsStats struct {
	Hits, Misses, Resets int64
	Retained             int
	// Mapped reports that the table has made its map, which it does at
	// its first Put.
	Mapped bool
}

// Stats snapshots the table's counters (telemetry; never affects
// results). Like every other method, it runs on the owner's goroutine.
func (t *ConsTable) Stats() ConsStats {
	return ConsStats{
		Hits:     t.hits,
		Misses:   t.misses,
		Resets:   t.resets,
		Retained: t.retained,
		Mapped:   t.m != nil,
	}
}

// AppendPairKey appends the ConsTable key of a fused call/return pair to
// dst: a 'p' tag, the call label's trace rendering behind its length as
// four big-endian bytes, then the return label's. The length makes the
// concatenation injective: `1: mkdir "a" 0o755` then `12: RV_none` would
// otherwise render as `1: mkdir "a" 0o7551` then `2: RV_none`. It takes
// the labels unboxed, so rendering a key allocates nothing.
func AppendPairKey(dst []byte, call types.CallLabel, ret types.ReturnLabel) []byte {
	dst = append(dst, 'p', 0, 0, 0, 0)
	n := len(dst)
	dst = call.Append(dst)
	binary.BigEndian.PutUint32(dst[n-4:n], uint32(len(dst)-n))
	return ret.Append(dst)
}
