package osspec

import (
	"strconv"

	"repro/internal/cov"
	"repro/internal/types"
)

// ConsTable memoises transition fan-outs across traces. The key
// observation: every combinatorial script opens with the identical
// fixture prelude, so the same states recur suite-wide — the per-trace
// hash-cons tables recompute the same clones and digests tens of thousands
// of times per run. The table interns the successor set of a (source state,
// label) pair once and replays it for every later trace that reaches the
// same state. Each entry keeps the coverage points its fan-out hit, and a
// replay records them again, so a trace's coverage set does not depend on
// whether its transitions were computed or replayed.
//
// Entries are keyed by the source state's *pointer identity*, not by
// StateEqual: StateEqual deliberately ignores fields Trans depends on
// (pending commands, allocation counters, descriptor capability flags,
// LastSeen snapshots — ignorable within one trace, where merged states
// never differ in them, but not across traces). Pointer identity makes a
// replay trivially sound — it is Trans applied to that very object — and
// still captures the suite-wide sharing: a checker publishes one initial
// state, interned successors feed back into every trace's state set, so
// all its traces walk the same object graph along shared script
// prefixes and divergence re-interns fresh objects at the first new label.
//
// Ownership: a table belongs to one checker, and a checker to one
// goroutine (see checker.Checker), so the table takes no lock and a hit
// writes no cache line another core reads. pipeline.Run gives every worker
// a checker and table of its own; each worker still walks the shared
// fixture prefix through its own interned objects, and sharing one table
// across workers was measured to add under 0.5% of hits, while its lock
// made every lookup write a cache line that both cores wrote.
// Successor states are stored hashed and frozen (Hash() then Freeze()),
// so every later trace shares them without copying. Callers must treat
// returned successor slices as immutable.
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
	src *OsState
	lbl string
}

// consEntry is one interned fan-out: the successors and the coverage
// points computing them hit.
type consEntry struct {
	succs []*OsState
	hits  cov.Set
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

// Get returns the interned successors of (src, key) and whether the pair
// was present, adding the entry's coverage points to hits on a hit. The
// lookup converts key in place (the compiler elides the string conversion
// of a map index), so a hit allocates nothing; callers may reuse key's
// storage as soon as Get returns.
func (t *ConsTable) Get(src *OsState, key []byte, hits *cov.Set) ([]*OsState, bool) {
	e, ok := t.m[consKey{src, string(key)}]
	if ok {
		t.hits++
		hits.Or(&e.hits)
		return e.succs, true
	}
	t.misses++
	return nil, false
}

// Put interns succs as the fan-out of (src, key), with the coverage
// points computing it hit (copied; hits may be reused once Put returns),
// hashing and freezing every successor first. The pair must have just
// missed: its owner computes a fan-out only after Get found none. src
// must already be frozen. key is copied into the entry.
func (t *ConsTable) Put(src *OsState, key []byte, succs []*OsState, hits *cov.Set) {
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
	e := consEntry{succs: succs}
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

// tauExpandKey is the ConsTable key for the whole-state τ expansion
// (expandOne: every calling pid's fan-out, concatenated in pid order).
// NUL-prefixed so it can never collide with a rendered label key.
var tauExpandKey = []byte("\x00tau*")

// AppendLabelKey appends lbl's ConsTable key to dst. A leading type tag
// keeps the key space injective across label kinds even where the human
// renderings could overlap.
func AppendLabelKey(dst []byte, lbl types.Label) []byte {
	switch l := lbl.(type) {
	case types.CallLabel:
		return l.Cmd.Append(appendPidKey(dst, 'c', l.Pid))
	case types.ReturnLabel:
		return l.Ret.Append(appendPidKey(dst, 'r', l.Pid))
	case types.TauLabel:
		return append(dst, 't')
	case types.CreateLabel:
		dst = strconv.AppendInt(append(dst, 'n'), int64(l.Pid), 10)
		dst = strconv.AppendInt(append(dst, ','), int64(l.Uid), 10)
		return strconv.AppendInt(append(dst, ','), int64(l.Gid), 10)
	case types.DestroyLabel:
		return strconv.AppendInt(append(dst, 'd'), int64(l.Pid), 10)
	case types.CrashLabel:
		// One key for every keep count: the oracle ignores Keep (it admits
		// the whole crash-state set), so the fan-outs are identical.
		return append(dst, 'x')
	}
	return append(append(dst, '?'), lbl.String()...)
}

// appendPidKey appends a call or return key's prefix: the tag, the pid
// and a NUL separator.
func appendPidKey(b []byte, tag byte, pid types.Pid) []byte {
	return append(strconv.AppendInt(append(b, tag), int64(pid), 10), 0)
}
