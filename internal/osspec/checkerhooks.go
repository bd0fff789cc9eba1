package osspec

import (
	"context"

	"repro/internal/cov"
	"repro/internal/types"
)

// TauFor processes the pending call of exactly pid (the checker linearises
// call processing at return time, which is sound for traces where each
// return is observed: the τ can occur at any point between call and return,
// and choosing the latest allowed point never excludes behaviour for the
// sequentially-executed traces the harness produces — §6.3). Coverage is
// recorded in hits, osspec/trans/tau included.
func TauFor(s *OsState, pid types.Pid, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	if p == nil || p.Run != RsCalling {
		return nil
	}
	hits.Hit(covTransTau)
	return processCall(s, pid, p.PendingCmd, hits)
}

// Fusable reports whether pid's call from s and the return after it can
// be checked as one step (CallReturn): s is not in crash mode and pid is
// its only process, running. From such a state the call draws one
// calling state, the closure before the return processes exactly that
// call, and the return finds no other process to account for.
func Fusable(s *OsState, pid types.Pid) bool {
	return s.durable == nil && len(s.procs) == 1 && s.procs[0].pid == pid &&
		s.procs[0].p.Run == RsRunning
}

// CallReturn is Trans(call), the τ-closure and Trans(ret) taken as one
// step from a state Fusable admits for call.Pid, with ret a return of the
// same pid: it returns the successors the stepwise path's return step
// draws, in its order and not yet deduplicated. The τ outcomes are built
// from s itself: a running process's state differs from its calling one
// only in fields no τ step reads, and the return rewrites them. Outcomes
// are deduplicated in set (Reset first) as the closure would, each
// outcome that matches ret is finalized in place, being its own clone,
// and the rest are dropped. expansions and distinct are the raw and the
// deduplicated outcome counts, which the stepwise closure counts as its
// expansions and adds to its one input state. hits receives the points
// the stepwise path records, the return's bad_pid included: that return
// is offered to the calling state too, which has no pending return.
func CallReturn(s *OsState, call types.CallLabel, ret types.ReturnLabel, set *StateSet, hits *cov.Set) (succs []*OsState, expansions, distinct int) {
	hits.Hit(covTransCall)
	hits.Hit(covTransTau)
	outs := processCall(s, call.Pid, call.Cmd, hits)
	hits.Hit(covTransReturn)
	hits.Hit(covTransBadPid)
	set.Reset()
	succs = outs[:0]
	for _, c := range outs {
		if !set.Add(c) {
			continue
		}
		distinct++
		if p := c.procs.get(ret.Pid); p.PendingRet != nil && p.PendingRet.Match(c, ret.Ret) {
			finishReturn(c, ret.Pid, ret.Ret)
			succs = append(succs, c)
		}
	}
	clear(outs[len(succs):])
	return succs, len(outs), distinct
}

// ClosureOpts configures TauClosureWith.
type ClosureOpts struct {
	// Cap > 0 stops further expansion rounds once the closure reaches it.
	Cap int
	// Cov records the coverage points of the closure's transitions,
	// replayed ones included; nil records nothing.
	Cov *cov.Set
	// Ctx, when non-nil, is consulted between expansion rounds: a
	// cancelled context stops the closure early and returns whatever has
	// been computed. Callers that pass a Ctx must treat the result as
	// unusable once Ctx is cancelled (the checker abandons the trace).
	Ctx context.Context
	// Stats, when non-nil, receives the closure's work split (telemetry;
	// never affects results).
	Stats *ClosureStats
	// Memo, when non-nil, interns each state's τ fan-out in the suite-level
	// ConsTable: traces sharing a prefix (every combinatorial script does)
	// replay interned successors, and their coverage points, instead of
	// re-running the spec. Its successors are the ones the closure would
	// build and hash itself.
	Memo *ConsTable
	// Scratch, when non-nil, is caller-owned storage the closure reuses
	// instead of allocating its working buffers (see ClosureScratch); nil
	// gives the call a fresh one.
	Scratch *ClosureScratch
	// Buf, when non-nil, is caller-owned storage the closure builds its
	// output in (from Buf[:0]) instead of allocating a fresh slice; the
	// returned slice reuses it while it has room. The input states must
	// not alias it.
	Buf []*OsState
	// Covered, when non-nil, holds one covered mask per input state
	// (Covered[i] belongs to states[i]): bit q (PidBit) promises that
	// every τ_q-successor of the state is already among the input
	// states, so the closure does not generate them. See ReturnCovered
	// for where masks come from. Inside the closure the same masks carry
	// sleep sets: a successor reached by a local τ (see localStep) is
	// born with the bits of the local τs that commute with it and whose
	// successors are already in the output. Either way a masked
	// successor would only deduplicate against an earlier output state,
	// so the output, its order, Rounds and capHit are exactly what they
	// are without masks; only the expansion count falls.
	Covered []uint64
}

// ClosureScratch is the storage a τ-closure works in: the dedup set
// (Reset on entry), the per-state covered masks, the sleep bits of one
// expansion and the coverage set of one memo miss, which its cons-table
// entry copies. It belongs to one owner, which passes it to one closure
// at a time and may reuse Set between closures (the
// checker's reduce does).
type ClosureScratch struct {
	Set   StateSet
	masks []uint64
	sleep []uint64
	fan   cov.Set
}

// ClosureStats describes how one τ-closure spent its effort.
type ClosureStats struct {
	// Rounds is the number of frontier-expansion rounds run.
	Rounds int
}

// TauClosureWith returns every state reachable from the set by zero or
// more τ steps: all orders in which the pending calls of the calling
// processes may have been processed in the kernel. Pre-τ states stay in
// the set (a τ may not have happened yet from the real system's point of
// view). States are collapsed by hash-consed identity (Hash confirmed by
// StateEqual) so equivalent interleavings merge. Cap > 0 stops further
// rounds once the set reaches it (capHit reports a cut-short closure),
// but at least one round always runs and nothing generated is dropped:
// truncating would preferentially evict the τ-advanced states — the only
// ones able to match an observed return — since the pre-τ originals sit
// at the front, and skipping the first round would leave a cap-saturated
// set with no advanced states at all.
// expansions counts the τ-successors generated, before deduplication.
func TauClosureWith(states []*OsState, o ClosureOpts) (out []*OsState, expansions int, capHit bool) {
	sc := o.Scratch
	if sc == nil {
		sc = new(ClosureScratch)
	}
	out = append(o.Buf[:0], states...)
	set := &sc.Set
	set.Reset()
	// sc.masks[i] is out[i]'s covered mask: the input's, then each
	// successor's sleep bits. The output is frozen throughout: the seed
	// states here, each successor as it is added.
	sc.masks = sc.masks[:0]
	for i, s := range out {
		set.Add(s)
		sc.masks = append(sc.masks, maskAt(o.Covered, i))
		s.Freeze()
	}
	// Each round's frontier is out[lo:hi], the states the previous round
	// added; successors append behind it. Appending may move out's
	// storage, but the frontier slice keeps the states it was taken over.
	for lo := 0; lo < len(out); {
		if o.Ctx != nil && o.Ctx.Err() != nil {
			return out, expansions, capHit
		}
		hi := len(out)
		if o.Stats != nil {
			o.Stats.Rounds++
		}
		for i, s := range out[lo:hi] {
			var succs []*OsState
			succs, sc.sleep = expandOne(s, maskAt(sc.masks, lo+i), o.Memo, sc.sleep[:0], o.Cov, &sc.fan)
			for j, ns := range succs {
				expansions++
				if !set.Add(ns) {
					continue
				}
				ns.Freeze()
				out = append(out, ns)
				sc.masks = append(sc.masks, maskAt(sc.sleep, j))
			}
		}
		lo = hi
		if o.Cap > 0 && len(out) >= o.Cap {
			// Only flag a truncation when a further round could actually
			// have produced states: a frontier with no pending calls left
			// means the closure is already complete despite the cap.
			// (Conservative the other way: survivors whose successors
			// would all have deduplicated away still count as a hit.)
			for _, s := range out[hi:] {
				if hasCallingProc(s) {
					capHit = true
					break
				}
			}
			break
		}
	}
	return out, expansions, capHit
}

// maskAt returns masks[i], or 0 past the end of masks.
func maskAt(masks []uint64, i int) uint64 {
	if i < len(masks) {
		return masks[i]
	}
	return 0
}

// PidBit is pid's bit in a covered mask, 0 for pids outside [0, 64): such
// a pid is never covered, so its τ-successors are always generated.
func PidBit(pid types.Pid) uint64 {
	if pid < 0 || pid >= 64 {
		return 0
	}
	return 1 << uint(pid)
}

// ReturnCovered is the covered mask (see ClosureOpts.Covered) of the state
// Trans(x, return of pid) yields, for an x taken from a complete
// τ-closure C (no cap hit, not cancelled): the bits of x's calling pids.
// For a calling q, the return commutes with τ_q — ret(τ_q x) = τ_q(ret x)
// — and τ_q x lies in C, so every τ_q-successor of ret x is in the set
// the return step yields. That holds only when the return is a pure
// process-table update: pid's pending is PendingExact or PendingAny
// (Match ignores the state, Finalize does nothing) and x is not in crash
// mode (the return notes persistence there). Every other return gets 0.
// A call label's successor inherits its source's mask (τ_q commutes with
// the call as well); any other label's successors get 0.
func ReturnCovered(x *OsState, pid types.Pid) uint64 {
	if x.durable != nil {
		return 0
	}
	p := x.procs.get(pid)
	if p == nil {
		return 0
	}
	switch p.PendingRet.(type) {
	case PendingExact, PendingAny:
	default:
		return 0
	}
	var m uint64
	for _, e := range x.procs {
		if e.p.Run == RsCalling {
			m |= PidBit(e.pid)
		}
	}
	return m
}

// hasCallingProc reports whether any process of s still holds an
// unprocessed pending call.
func hasCallingProc(s *OsState) bool {
	for _, e := range s.procs {
		if e.p.Run == RsCalling {
			return true
		}
	}
	return false
}

// expandOne generates s's τ-successors, except those of the pids whose
// bit is set in skip (the state's covered mask), and pre-hashes them, so
// the closure's dedup set only compares digests. For a state with two
// calling pids it also appends each successor's sleep bits to sleep, one
// per successor (a caller reads missing bits as 0): a successor of a
// local τ_p gets
//
//   - every calling q < p expanded here whose τ is local too: its
//     successors precede τ_p's in the output, and τ_p commutes with them;
//   - every bit of skip whose τ is local at s whatever the state
//     (staticLocal): its successors are in the output already.
//
// So bit q on a state always means its τ_q-successors are in the output
// before the state itself is expanded (see ClosureOpts.Covered).
//
// With a memo, the whole fan-out is interned per source state, with its
// coverage points (collected in fan, the closure's scratch, on a miss),
// and replayed for equal states in later traces; interned successors are
// already hashed and frozen, and the returned slice must not be mutated.
// Either way the fan-out's points land in hits, osspec/trans/tau for
// each pid expanded.
// A masked state bypasses the memo: it wants only part of the fan-out,
// and generating that part costs the same work with the table on or off.
// So does a state with two calling pids, whose successors' sleep bits
// depend on how they were built. A state with no calling process has no
// τ-successors: it returns nil before touching the memo (every closure's
// last round is made of such states).
func expandOne(s *OsState, skip uint64, memo *ConsTable, sleep []uint64, hits, fan *cov.Set) ([]*OsState, []uint64) {
	calling := 0
	for _, e := range s.procs {
		if e.p.Run == RsCalling {
			calling++
		}
	}
	if calling == 0 {
		return nil, sleep
	}
	if skip != 0 || calling > 1 {
		memo = nil
	}
	rec := hits // where the fan-out's coverage points go
	if memo != nil {
		if succs, ok := memo.Get(s, tauExpandKey, hits); ok {
			return succs, sleep
		}
		*fan = cov.Set{} // the entry's own set, replayed with it
		rec = fan
	}
	var out []*OsState
	var local, inherited uint64
	track := calling > 1
	if track {
		inherited = skip & staticLocal(s)
	}
	for _, e := range s.procs {
		bit := PidBit(e.pid)
		if e.p.Run != RsCalling || skip&bit != 0 {
			continue
		}
		start := len(out)
		rec.Hit(covTransTau)
		if succs := processCall(s, e.pid, e.p.PendingCmd, rec); out == nil {
			out = succs // a fresh slice: the first fan-out needs no copy
		} else {
			out = append(out, succs...)
		}
		if !track {
			continue
		}
		isLocal := bit != 0 && len(out) > start
		for _, ns := range out[start:] {
			isLocal = isLocal && localStep(s, ns, e.pid)
		}
		var m uint64
		if isLocal {
			m = local | inherited
			local |= bit
		}
		for range out[start:] {
			sleep = append(sleep, m)
		}
	}
	if memo != nil {
		hits.Or(rec)
		memo.Put(s, tauExpandKey, out, rec) // hashes and freezes out
		return out, sleep
	}
	for _, ns := range out {
		ns.Hash()
	}
	return out, sleep
}

// localStep reports whether c, built from s by a τ of pid, is local: it
// changed nothing but pid's own process entry — no heap write, no
// open-file, NextFid or group change — and s is not in crash mode. Two
// local τs of different pids commute exactly, since no τ reads another
// process's entry. It must run before c is frozen, which forgets the
// ownership flags it reads.
func localStep(s, c *OsState, pid types.Pid) bool {
	if c.durable != nil || c.ownsFids || c.ownsGroups || c.NextFid != s.NextFid ||
		c.H.Written() || len(c.procs) != len(s.procs) {
		return false
	}
	for i, e := range c.procs {
		if se := s.procs[i]; e.pid != se.pid || (e.pid != pid && e.p != se.p) {
			return false
		}
	}
	return true
}

// staticLocal is the mask of s's calling pids whose τ is local in every
// state: calls that only read (stat, lstat, readlink) change nothing but
// the caller's pending return. The closure needs it for pids a mask
// skipped, whose successors it never sees.
func staticLocal(s *OsState) uint64 {
	if s.durable != nil {
		return 0
	}
	var m uint64
	for _, e := range s.procs {
		if e.p.Run != RsCalling {
			continue
		}
		switch e.p.PendingCmd.(type) {
		case types.Stat, types.Lstat, types.Readlink:
			m |= PidBit(e.pid)
		}
	}
	return m
}

// AllowedReturn describes the return value(s) a state in RsReturning allows
// for pid, for diagnostics.
func AllowedReturn(s *OsState, pid types.Pid) (string, bool) {
	p := s.procs.get(pid)
	if p == nil || p.Run != RsReturning || p.PendingRet == nil {
		return "", false
	}
	if rd, ok := p.PendingRet.(PendingReaddir); ok {
		return rd.DescribeAgainst(s), true
	}
	return p.PendingRet.Describe(), true
}

// RecoverReturns synthesises successor states as if an allowed return value
// had been observed — the Fig 4 behaviour ("continuing with EEXIST,
// ENOTEMPTY") that lets the checker proceed past a non-conformant step.
// Coverage is recorded in hits.
func RecoverReturns(s *OsState, pid types.Pid, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	if p == nil || p.Run != RsReturning || p.PendingRet == nil {
		return nil
	}
	var rvs []types.RetValue
	switch pend := p.PendingRet.(type) {
	case PendingExact:
		rvs = []types.RetValue{pend.Rv}
	case PendingAny:
		rvs = []types.RetValue{types.RvNone{}}
	case PendingReadPrefix:
		rvs = []types.RetValue{types.RvBytes{Data: pend.Data}}
	case PendingWriteUpTo:
		rvs = []types.RetValue{types.RvNum{N: int64(len(pend.Data))}}
	case PendingReaddir:
		h := pend.handle(s)
		if h == nil {
			rvs = []types.RetValue{types.RvDirent{End: true}}
			break
		}
		must, _ := refreshedSets(s, h)
		if len(must) == 0 {
			rvs = append(rvs, types.RvDirent{End: true})
		}
		for n := range must {
			rvs = append(rvs, types.RvDirent{Name: n})
		}
	default:
		rvs = []types.RetValue{types.RvNone{}}
	}
	var out []*OsState
	for _, rv := range rvs {
		out = AppendTrans(out, s, types.ReturnLabel{Pid: pid, Ret: rv}, hits)
	}
	return out
}

// ResetToRunning returns a copy of s with pid forced back to the running
// state, discarding any pending call — the last-resort recovery when no
// state can explain an observation at all.
func ResetToRunning(s *OsState, pid types.Pid) *OsState {
	c := s.Clone()
	if p := c.mutProc(pid); p != nil {
		p.Run = RsRunning
		p.PendingCmd = nil
		p.PendingRet = nil
	}
	return c
}
