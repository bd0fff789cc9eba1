package osspec

// Hash-consed state identity. Hash is a 64-bit digest of exactly the
// observational content the legacy Fingerprint string renders — the file
// system (delegated to the heap's incremental hash), and per process the
// credentials, cwd, run state, pending-return description, resolved
// descriptor table and directory-handle sets. Fields Fingerprint omits
// (group table, allocation counters, descriptor capability flags, pending
// commands, LastSeen snapshots) are omitted here too: dedup must merge the
// same states the string dedup merged, or checker statistics drift.
//
// Hash is an accelerator, not an identity: StateSet buckets by hash and
// confirms candidates with StateEqual, so a collision can never merge two
// distinguishable states.

import (
	"bytes"
	"sync"

	"repro/internal/state"
	"repro/internal/types"
)

const (
	seedProc = 0x8f14e45fceea1681
	seedPend = 0x3b9d3f2e6c1d82a7
	seedFd   = 0x517cc1b727220a95
	seedDh   = 0x2545f4914f6cdd1d
	seedMust = 0x9561e1f1a2b3c4d5
	seedMay  = 0x6a09e667f3bcc909
	seedRet  = 0xbb67ae8584caa73b
	seedDur  = 0x7f4a7c159e3779b9
)

// Hash returns the state's 64-bit identity digest. The non-heap part is
// memoised (mut* accessors invalidate it); the heap part is maintained
// incrementally by the heap itself, so hashing a freshly cloned-and-
// mutated state re-hashes only what the transition touched. Computing the
// hash mutates memoisation fields: hash a state before sharing it across
// goroutines (the checker's serial merge points do).
func (s *OsState) Hash() uint64 {
	if !s.hvOK {
		s.hv = s.osHash()
		s.hvOK = true
	} else if s.hvDirty != 0 {
		for _, e := range s.procs {
			if s.hvDirty&PidBit(e.pid) != 0 {
				s.hv ^= s.procContrib(e.pid, e.p)
			}
		}
		s.hvDirty = 0
	}
	h := state.Mix(s.hv, s.H.Hash())
	if s.durable != nil {
		// Crash mode folds the persistence history in (order-sensitive:
		// the pending log is ordered). Heap hashes are maintained
		// incrementally, so this is O(len(pend)) mixes, not tree walks.
		h = state.Mix(h, seedDur)
		h = state.Mix(h, s.durable.Hash())
		for _, p := range s.pend {
			h = state.Mix(h, p.Hash())
		}
	}
	return h
}

// osHash is the process-table hash: the XOR of every process's
// contribution, so one process's can be swapped out and back in alone
// (unhashProc).
func (s *OsState) osHash() uint64 {
	var acc uint64
	for _, e := range s.procs {
		acc ^= s.procContrib(e.pid, e.p)
	}
	return acc
}

// procContrib is one process's share of osHash: its credentials, cwd,
// run state, pending-return description, descriptor table (through the
// open-file table) and directory handles. A process without descriptors
// memoises it (ProcState.hv) while this state owns it, so a frozen
// process is hashed once however many states share it.
func (s *OsState) procContrib(pid types.Pid, p *ProcState) uint64 {
	if p.hvOK {
		return p.hv
	}
	v := s.procContribOf(pid, p)
	if len(p.Fds) == 0 && s.tok != nil && p.owner == s.tok {
		p.hv, p.hvOK = v, true
	}
	return v
}

// procContribOf computes procContrib, ignoring and leaving the memo.
func (s *OsState) procContribOf(pid types.Pid, p *ProcState) uint64 {
	v := state.Mix(seedProc, uint64(pid))
	v = state.Mix(v, uint64(p.Euid))
	v = state.Mix(v, uint64(p.Egid))
	v = state.Mix(v, uint64(p.Umask))
	v = state.Mix(v, uint64(p.Cwd))
	v = state.Mix(v, boolU64(p.CwdValid))
	v = state.Mix(v, uint64(p.Run))
	if p.Run == RsReturning && p.PendingRet != nil {
		v = state.Mix(v, pendingHash(p.PendingRet))
	}
	var fdAcc uint64
	for fd, ref := range p.Fds {
		fv := state.Mix(seedFd, uint64(fd))
		if fid := s.fids[ref]; fid != nil {
			fv = state.Mix(fv, uint64(fid.File))
			fv = state.Mix(fv, uint64(fid.Dir))
			fv = state.Mix(fv, uint64(fid.Offset))
		}
		fdAcc ^= state.Mix(0, fv)
	}
	v = state.Mix(v, fdAcc)
	var dhAcc uint64
	for dh, h := range p.Dhs {
		dv := state.Mix(seedDh, uint64(dh))
		dv = state.Mix(dv, uint64(h.Dir))
		dv = state.Mix(dv, setHash(seedMust, h.Must))
		dv = state.Mix(dv, setHash(seedMay, h.May))
		dv = state.Mix(dv, setHash(seedRet, h.Returned))
		dhAcc ^= state.Mix(0, dv)
	}
	v = state.Mix(v, dhAcc)
	return state.Mix(0, v)
}

func setHash(seed uint64, m map[string]bool) uint64 {
	var acc uint64
	for k := range m {
		acc ^= state.HashString(seed, k)
	}
	return acc
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// StateEqual reports observational equality per the Fingerprint contract:
// it distinguishes two states exactly when their Fingerprint strings
// differ. Structurally shared (pointer-equal) components compare in O(1),
// which makes confirming a duplicate cheap for copy-on-write siblings.
func StateEqual(a, b *OsState) bool {
	if a == b {
		return true
	}
	if len(a.procs) != len(b.procs) {
		return false
	}
	for i, ea := range a.procs {
		eb := b.procs[i]
		if ea.pid != eb.pid {
			return false
		}
		pa, pb := ea.p, eb.p
		if pa.Euid != pb.Euid || pa.Egid != pb.Egid || pa.Umask != pb.Umask ||
			pa.Cwd != pb.Cwd || pa.CwdValid != pb.CwdValid || pa.Run != pb.Run {
			return false
		}
		if pa.Run == RsReturning && !pendingEqual(pa.PendingRet, pb.PendingRet) {
			return false
		}
		if len(pa.Fds) != len(pb.Fds) {
			return false
		}
		for fd, ra := range pa.Fds {
			rb, ok := pb.Fds[fd]
			if !ok {
				return false
			}
			fa, fb := a.fids[ra], b.fids[rb]
			if (fa == nil) != (fb == nil) {
				return false
			}
			if fa != nil && (fa.File != fb.File || fa.Dir != fb.Dir || fa.Offset != fb.Offset) {
				return false
			}
		}
		if len(pa.Dhs) != len(pb.Dhs) {
			return false
		}
		for dh, ha := range pa.Dhs {
			hb, ok := pb.Dhs[dh]
			if !ok {
				return false
			}
			if ha == hb {
				continue
			}
			if ha.Dir != hb.Dir || !setEqual(ha.Must, hb.Must) ||
				!setEqual(ha.May, hb.May) || !setEqual(ha.Returned, hb.Returned) {
				return false
			}
		}
	}
	if (a.durable == nil) != (b.durable == nil) {
		return false
	}
	if a.durable != nil {
		if len(a.pend) != len(b.pend) {
			return false
		}
		if !state.HeapEqual(a.durable, b.durable) {
			return false
		}
		for i := range a.pend {
			if !state.HeapEqual(a.pend[i], b.pend[i]) {
				return false
			}
		}
	}
	return state.HeapEqual(a.H, b.H)
}

// describeBufs holds the scratch buffers pending identity renders into;
// it is a pool because every checking goroutine hashes and compares
// states, and no state knows the checker it belongs to.
var describeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// pendingHash hashes a pending's rendered description without
// allocating: the same digest as hashing the Describe string. A
// PendingExact built by succExact carries it already.
func pendingHash(p Pending) uint64 {
	if e, ok := p.(PendingExact); ok && e.h != 0 {
		return e.h
	}
	bp := describeBufs.Get().(*[]byte)
	*bp = p.AppendDescribe((*bp)[:0])
	h := state.HashBytes(seedPend, *bp)
	describeBufs.Put(bp)
	return h
}

// exactPending is PendingExact{Rv: rv} with its description hash
// cached, so hashing a state never renders it again. It hashes the
// rendering itself rather than through pendingHash, which would box the
// value into a Pending.
func exactPending(rv types.RetValue) PendingExact {
	bp := describeBufs.Get().(*[]byte)
	*bp = PendingExact{Rv: rv}.AppendDescribe((*bp)[:0])
	h := state.HashBytes(seedPend, *bp)
	describeBufs.Put(bp)
	return PendingExact{Rv: rv, h: h}
}

// pendingEqual follows the fingerprint contract to the letter: pendings
// are identified by the bytes of their rendered description (a nil
// pending renders as nothing), rendered into one pooled buffer. Two
// PendingExacts with different cached hashes render differently, so they
// are told apart without rendering.
func pendingEqual(a, b Pending) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if ea, ok := a.(PendingExact); ok && ea.h != 0 {
		if eb, ok := b.(PendingExact); ok && eb.h != 0 && ea.h != eb.h {
			return false
		}
	}
	bp := describeBufs.Get().(*[]byte)
	*bp = a.AppendDescribe((*bp)[:0])
	n := len(*bp)
	*bp = b.AppendDescribe(*bp)
	eq := bytes.Equal((*bp)[:n], (*bp)[n:])
	describeBufs.Put(bp)
	return eq
}

func setEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// StateSet is a deduplicating set of states keyed by Hash and confirmed by
// StateEqual — the replacement for fingerprint-string deduplication.
// Not safe for concurrent use; the checker's merge points are serial.
//
// Sequential traces never track more than a handful of states, so the
// first stateSetInline members live in an inline array searched by linear
// hash compare; only a set that outgrows it spills into the bucket map,
// so resetting a small set never pays for clearing a map. The map holds
// the first state of each hash; distinct states sharing a hash (a true
// collision) go to the collisions map, so a new state costs no bucket
// slice.
type StateSet struct {
	inline     [stateSetInline]hashedState
	buckets    map[uint64]*OsState   // nil until the first spill
	collisions map[uint64][]*OsState // nil until the first collision
	spilled    bool                  // members live in buckets, not inline
	n          int
}

type hashedState struct {
	h uint64
	s *OsState
}

// stateSetInline is the inline capacity: above the measured sequential
// peak (6 states), far below where linear search loses to a map.
const stateSetInline = 8

// NewStateSet returns an empty set sized for capacity states.
func NewStateSet(capacity int) *StateSet {
	ss := &StateSet{}
	if capacity > stateSetInline {
		ss.buckets = make(map[uint64]*OsState, capacity)
	}
	return ss
}

// Add inserts s unless an equal state is already present; it reports
// whether s was new. Hashing memoises into s (see Hash).
func (ss *StateSet) Add(s *OsState) bool {
	return ss.add(s.Hash(), s)
}

// add is Add with the digest supplied (tests force collisions through it).
func (ss *StateSet) add(h uint64, s *OsState) bool {
	if !ss.spilled {
		for _, e := range ss.inline[:ss.n] {
			if e.h == h && StateEqual(e.s, s) {
				return false
			}
		}
		if ss.n < stateSetInline {
			ss.inline[ss.n] = hashedState{h, s}
			ss.n++
			return true
		}
		ss.spill()
	}
	if !ss.insert(h, s) {
		return false
	}
	ss.n++
	return true
}

// insert adds s to the bucket map unless an equal state is there.
func (ss *StateSet) insert(h uint64, s *OsState) bool {
	first, ok := ss.buckets[h]
	if !ok {
		ss.buckets[h] = s
		return true
	}
	if StateEqual(first, s) {
		return false
	}
	for _, t := range ss.collisions[h] {
		if StateEqual(t, s) {
			return false
		}
	}
	if ss.collisions == nil {
		ss.collisions = make(map[uint64][]*OsState)
	}
	ss.collisions[h] = append(ss.collisions[h], s)
	return true
}

// spill moves the full inline array into the bucket map.
func (ss *StateSet) spill() {
	if ss.buckets == nil {
		ss.buckets = make(map[uint64]*OsState, 4*stateSetInline)
	}
	for i, e := range ss.inline {
		ss.insert(e.h, e.s)
		ss.inline[i] = hashedState{}
	}
	ss.spilled = true
}

// Len reports the number of distinct states added.
func (ss *StateSet) Len() int { return ss.n }

// Reset empties the set, keeping its storage for reuse (the checker resets
// one scratch set per step instead of reallocating it) and dropping every
// state reference. The bucket map is cleared only if this use spilled
// into it: clear() sweeps the map's full capacity regardless of
// population.
func (ss *StateSet) Reset() {
	if ss.spilled {
		clear(ss.buckets)
		if len(ss.collisions) > 0 {
			clear(ss.collisions)
		}
		ss.spilled = false
	} else {
		clear(ss.inline[:ss.n])
	}
	ss.n = 0
}
