package osspec

// The persistence layer (crash-consistency extension). With Spec.Crash set,
// every OsState carries a durable file-system image alongside the live heap,
// plus a log of pending (volatile) effects: one frozen COW heap snapshot per
// transition that changed the file system since the last sync barrier.
// fsync/sync (and O_SYNC descriptors) flush the log into the durable image;
// CrashStates enumerates the durable states a power failure may leave
// behind — the durable image plus every pending-log prefix, remounted.
//
// The model is deliberately the strict "ordered global log" one: effects
// persist in the order they were applied, and any sync barrier flushes the
// whole log (fsync(fd) is not scoped to fd's file). Real file systems are
// allowed to reorder unrelated writes; a spec that admits only ordered
// prefixes is *stricter*, so an implementation that reorders would be
// flagged — which is exactly the conservative default an oracle should
// start from (cf. the FERRITE line of work on weaker persistency models).

import (
	"sync/atomic"

	"repro/internal/state"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// crashStatesEnumerated counts remounted candidate states built by
// CrashStates process-wide, before deduplication (PR-6 style engine-global
// counter, like osspec.state_clones).
var crashStatesEnumerated atomic.Int64

// CrashStatesEnumerated returns the process-wide count of crash candidate
// states enumerated.
func CrashStatesEnumerated() int64 { return crashStatesEnumerated.Load() }

func init() {
	telemetry.Default.Func("osspec.crash_states", CrashStatesEnumerated)
}

// persistNote records a pending durable effect: called after a transition's
// effects have been applied, it appends a snapshot of the live heap to the
// pending log iff the file system actually changed. No-op outside crash
// mode. The hash comparison is an accelerator only — unequal hashes prove a
// change, equal hashes are confirmed with HeapEqual so a collision can
// never drop an effect.
func (s *OsState) persistNote() {
	if s.durable == nil {
		return
	}
	last := s.durable
	if n := len(s.pend); n > 0 {
		last = s.pend[n-1]
	}
	if s.H.Hash() == last.Hash() && state.HeapEqual(s.H, last) {
		return
	}
	s.appendPend(snapshotHeap(s.H))
}

// snapshotHeap takes an O(1) frozen copy of h. Freezing the copy up front
// makes every later read (Hash, Clone at remount time) a pure read, so
// snapshots can be shared across the checker's τ-closure workers.
func snapshotHeap(h *state.Heap) *state.Heap {
	c := h.Clone()
	c.Freeze()
	return c
}

// appendPend appends one snapshot copy-on-write: the backing array is
// copied the first time this state (rather than an ancestor) extends it.
func (s *OsState) appendPend(h *state.Heap) {
	if !s.ownsPend {
		np := make([]*state.Heap, len(s.pend), len(s.pend)+1)
		copy(np, s.pend)
		s.pend = np
		s.ownsPend = true
		s.frozen = false
	}
	s.pend = append(s.pend, h)
}

// flushPending is the sync barrier: the live image becomes durable and the
// pending log empties. Models fsync/sync and each O_SYNC write. No-op when
// nothing is pending (in particular outside crash mode).
func (s *OsState) flushPending() {
	if s.durable == nil || len(s.pend) == 0 {
		return
	}
	s.durable = snapshotHeap(s.H)
	s.pend = nil
	s.ownsPend = true
}

// PendingEffects reports the number of unsynced durable effects (0 outside
// crash mode).
func (s *OsState) PendingEffects() int { return len(s.pend) }

// DurableImage returns the last-synced heap image (nil outside crash mode).
// The returned heap is frozen; callers must not mutate it.
func (s *OsState) DurableImage() *state.Heap { return s.durable }

// PendingImage returns the heap snapshot after the first i+1 pending
// effects (i in [0, PendingEffects())). Frozen; read-only.
func (s *OsState) PendingImage(i int) *state.Heap { return s.pend[i] }

// CrashStates enumerates the durable states a crash at this point may leave
// behind: the durable image plus each pending-log prefix, each remounted
// (fresh process table, no descriptors, orphaned inodes swept) and deduped
// through the hash-consed StateSet. Returns nil outside crash mode. The
// result order is deterministic: shortest surviving prefix first.
func CrashStates(s *OsState) []*OsState {
	if s.durable == nil {
		return nil
	}
	candidates := make([]*state.Heap, 0, len(s.pend)+1)
	candidates = append(candidates, s.durable)
	candidates = append(candidates, s.pend...)
	seen := NewStateSet(len(candidates))
	out := make([]*OsState, 0, len(candidates))
	for _, h := range candidates {
		crashStatesEnumerated.Add(1)
		rs := remountState(h, s.Spec)
		if seen.Add(rs) {
			out = append(out, rs)
		}
	}
	return out
}

// CrashWithKeep returns the remounted state in which exactly the first
// keep pending effects survived (keep clamped to the log length) — the
// deterministic counterpart of CrashStates, used by the determinized model
// (fsimpl.SpecFS) to mirror the executor's chosen crash outcome. Returns
// nil outside crash mode.
func CrashWithKeep(s *OsState, keep int) *OsState {
	if s.durable == nil {
		return nil
	}
	if keep < 0 {
		keep = 0
	}
	if keep > len(s.pend) {
		keep = len(s.pend)
	}
	h := s.durable
	if keep > 0 {
		h = s.pend[keep-1]
	}
	crashStatesEnumerated.Add(1)
	return remountState(h, s.Spec)
}

// remountState builds the post-remount model state for one durable heap
// image: the same file tree, a fresh initial process (the pre-crash process
// table, descriptors and directory handles die with the power), and no
// pending effects — the chosen image is durable by construction. Files with
// no remaining links were reachable only through (now dead) descriptors, so
// the remount sweeps them, as fsck would.
func remountState(h *state.Heap, spec types.Spec) *OsState {
	s := &OsState{
		H:          h.Clone(),
		fids:       make(map[FidRef]*FidState),
		NextFid:    1,
		groups:     make(map[types.Gid]map[types.Uid]bool),
		Spec:       spec,
		tok:        &cowTok{},
		ownsFids:   true,
		ownsProcs:  true,
		ownsGroups: true,
		ownsPend:   true,
	}
	for _, fr := range s.H.SortedFileRefs() {
		if f := s.H.File(fr); f != nil && f.Nlink == 0 {
			s.H.FreeFile(fr)
		}
	}
	uid, gid := types.RootUid, types.RootGid
	if !spec.RootUser {
		uid, gid = 1000, 1000
	}
	s.addProcess(InitialPid, uid, gid)
	s.durable = snapshotHeap(s.H)
	return s
}

// fsyncCall implements fsync(2): EBADF on an unknown descriptor, otherwise
// a sync barrier (the model flushes the whole pending log — see the package
// comment above for why per-file granularity is intentionally absent).
func fsyncCall(s *OsState, pid types.Pid, cmd types.Fsync) []*OsState {
	p := s.procs.get(pid)
	if _, ok := p.Fds[cmd.FD]; !ok {
		return succErrors(s, pid, types.NewErrnoSet(types.EBADF))
	}
	return []*OsState{succExact(s, pid, types.RvNone{}, func(c *OsState) {
		c.flushPending()
	})}
}

// syncCall implements sync(): flush everything; never fails.
func syncCall(s *OsState, pid types.Pid) []*OsState {
	return []*OsState{succExact(s, pid, types.RvNone{}, func(c *OsState) {
		c.flushPending()
	})}
}
