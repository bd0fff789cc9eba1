package osspec

import (
	"repro/internal/cov"
	"repro/internal/types"
)

var (
	covTransCall    = cov.Point("osspec/trans/call")
	covTransReturn  = cov.Point("osspec/trans/return")
	covTransTau     = cov.Point("osspec/trans/tau")
	covTransCreate  = cov.Point("osspec/trans/create")
	covTransDestroy = cov.Point("osspec/trans/destroy")
	covTransCrash   = cov.Point("osspec/trans/crash")
	covTransBadPid  = cov.Point("osspec/trans/bad_pid")
)

// Trans is os_trans: the transition function of the LTS. Given a state and
// a label it returns the finite set of possible next states; an empty
// result means the label is not allowed from this state. The coverage
// points the evaluation hits are recorded in hits (nil: nowhere). The
// function never mutates s.
func Trans(s *OsState, lbl types.Label, hits *cov.Set) []*OsState {
	return AppendTrans(nil, s, lbl, hits)
}

// AppendTrans is Trans appending the next states to dst, so a caller
// collecting many states' successors (the checker's union) needs no
// slice per state.
func AppendTrans(dst []*OsState, s *OsState, lbl types.Label, hits *cov.Set) []*OsState {
	switch l := lbl.(type) {
	case types.CallLabel:
		hits.Hit(covTransCall)
		p := s.procs.get(l.Pid)
		if p == nil || p.Run != RsRunning {
			hits.Hit(covTransBadPid)
			return dst
		}
		// Receptivity: a running process may always issue a call; the call
		// blocks the process until its return.
		c := s.Clone()
		cp := c.mutProc(l.Pid)
		cp.Run = RsCalling
		cp.PendingCmd = l.Cmd
		return append(dst, c)

	case types.TauLabel:
		hits.Hit(covTransTau)
		// An internal step processes the pending call of any one calling
		// process — the concurrency nondeterminism of §3. Deterministic pid
		// order, so every later dedup decision is deterministic too.
		for _, e := range s.procs {
			if e.p.Run == RsCalling {
				dst = append(dst, processCall(s, e.pid, e.p.PendingCmd, hits)...)
			}
		}
		return dst

	case types.ReturnLabel:
		hits.Hit(covTransReturn)
		p := s.procs.get(l.Pid)
		if p == nil || p.Run != RsReturning || p.PendingRet == nil {
			hits.Hit(covTransBadPid)
			return dst
		}
		if !p.PendingRet.Match(s, l.Ret) {
			return dst
		}
		c := s.Clone()
		finishReturn(c, l.Pid, l.Ret)
		return append(dst, c)

	case types.CreateLabel:
		hits.Hit(covTransCreate)
		if s.procs.get(l.Pid) != nil {
			return dst
		}
		c := s.Clone()
		c.addProcess(l.Pid, l.Uid, l.Gid)
		return append(dst, c)

	case types.DestroyLabel:
		hits.Hit(covTransDestroy)
		p := s.procs.get(l.Pid)
		if p == nil || p.Run != RsRunning {
			return dst
		}
		c := s.Clone()
		fds := make([]types.FD, 0, len(p.Fds))
		for fd := range p.Fds {
			fds = append(fds, fd)
		}
		for _, fd := range fds {
			c.closeFD(l.Pid, fd)
		}
		c.deleteProc(l.Pid)
		c.persistNote()
		return append(dst, c)

	case types.CrashLabel:
		hits.Hit(covTransCrash)
		// The oracle ignores l.Keep: a single crash label admits every
		// durable state the persistence model allows here, and later
		// observations prune the set. Outside crash mode the label is
		// simply not enabled, which surfaces misconfigured runs as an
		// immediate deviation instead of silently passing.
		return append(dst, CrashStates(s)...)
	}
	return dst
}

// finishReturn completes pid's return of rv in c, whose pending return
// matched it: the process runs again and the pending's rv-dependent
// effects land.
func finishReturn(c *OsState, pid types.Pid, rv types.RetValue) {
	cp := c.mutProc(pid)
	pend := cp.PendingRet
	cp.Run = RsRunning
	cp.PendingRet = nil
	cp.PendingCmd = nil
	pend.Finalize(c, rv)
	c.persistNote()
}

// processCall evaluates the pending command of pid against s, returning one
// successor per allowed behaviour, each in RsReturning with the pending
// return recorded. s itself is not mutated.
func processCall(s *OsState, pid types.Pid, cmd types.Command, hits *cov.Set) []*OsState {
	return dispatch(s, pid, cmd, hits)
}

// succExact builds a successor where pid will return exactly rv; apply (if
// non-nil) mutates the successor before it is frozen.
func succExact(s *OsState, pid types.Pid, rv types.RetValue, apply func(*OsState)) *OsState {
	c := s.Clone()
	if apply != nil {
		apply(c)
		c.persistNote()
	}
	p := c.mutProc(pid)
	p.Run = RsReturning
	p.PendingRet = pendingFor(rv)
	return c
}

// pendingFor is the PendingExact of rv, boxed as a Pending. Error and
// RV_none returns — the result of most successors — share prebuilt
// values, so building one allocates and renders nothing.
func pendingFor(rv types.RetValue) Pending {
	switch r := rv.(type) {
	case types.RvErr:
		if r.Err >= 0 && int(r.Err) < len(errPendings) {
			return errPendings[r.Err]
		}
	case types.RvNone:
		return nonePending
	}
	return exactPending(rv)
}

var (
	errPendings = func() (t [types.ENOSYS + 1]Pending) {
		for e := range t {
			t[e] = exactPending(types.RvErr{Err: types.Errno(e)})
		}
		return t
	}()
	nonePending Pending = exactPending(types.RvNone{})
)

// succPending builds a successor with an arbitrary pending pattern; apply
// (if non-nil) mutates the successor first.
func succPending(s *OsState, pid types.Pid, pend Pending, apply func(*OsState)) *OsState {
	c := s.Clone()
	if apply != nil {
		apply(c)
		c.persistNote()
	}
	p := c.mutProc(pid)
	p.Run = RsReturning
	p.PendingRet = pend
	return c
}

// succErrors builds one successor per allowed errno (error returns leave
// the file-system state unchanged — the paper's proved invariant).
func succErrors(s *OsState, pid types.Pid, errs types.ErrnoSet) []*OsState {
	return appendErrors(make([]*OsState, 0, errs.Len()), s, pid, errs)
}

// appendErrors is succErrors appending to out, in ascending errno order.
func appendErrors(out []*OsState, s *OsState, pid types.Pid, errs types.ErrnoSet) []*OsState {
	for rest := errs; rest != 0; {
		var e types.Errno
		e, rest = rest.Pop()
		out = append(out, succExact(s, pid, types.RvErr{Err: e}, nil))
	}
	return out
}
