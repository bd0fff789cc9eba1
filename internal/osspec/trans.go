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
// result means the label is not allowed from this state. The function
// never mutates s.
func Trans(s *OsState, lbl types.Label) []*OsState {
	switch l := lbl.(type) {
	case types.CallLabel:
		cov.Hit(covTransCall)
		p := s.procs.get(l.Pid)
		if p == nil || p.Run != RsRunning {
			cov.Hit(covTransBadPid)
			return nil
		}
		// Receptivity: a running process may always issue a call; the call
		// blocks the process until its return.
		c := s.Clone()
		cp := c.mutProc(l.Pid)
		cp.Run = RsCalling
		cp.PendingCmd = l.Cmd
		return []*OsState{c}

	case types.TauLabel:
		cov.Hit(covTransTau)
		// An internal step processes the pending call of any one calling
		// process — the concurrency nondeterminism of §3. Deterministic pid
		// order so a memoised fan-out replays exactly what a fresh
		// computation would produce.
		var out []*OsState
		for _, e := range s.procs {
			if e.p.Run == RsCalling {
				out = append(out, processCall(s, e.pid, e.p.PendingCmd)...)
			}
		}
		return out

	case types.ReturnLabel:
		cov.Hit(covTransReturn)
		p := s.procs.get(l.Pid)
		if p == nil || p.Run != RsReturning || p.PendingRet == nil {
			cov.Hit(covTransBadPid)
			return nil
		}
		if !p.PendingRet.Match(s, l.Ret) {
			return nil
		}
		c := s.Clone()
		cp := c.mutProc(l.Pid)
		pend := cp.PendingRet
		cp.Run = RsRunning
		cp.PendingRet = nil
		cp.PendingCmd = nil
		pend.Finalize(c, l.Ret)
		c.persistNote()
		return []*OsState{c}

	case types.CreateLabel:
		cov.Hit(covTransCreate)
		if s.procs.get(l.Pid) != nil {
			return nil
		}
		c := s.Clone()
		c.addProcess(l.Pid, l.Uid, l.Gid)
		return []*OsState{c}

	case types.DestroyLabel:
		cov.Hit(covTransDestroy)
		p := s.procs.get(l.Pid)
		if p == nil || p.Run != RsRunning {
			return nil
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
		return []*OsState{c}

	case types.CrashLabel:
		cov.Hit(covTransCrash)
		// The oracle ignores l.Keep: a single crash label admits every
		// durable state the persistence model allows here, and later
		// observations prune the set. Outside crash mode the label is
		// simply not enabled, which surfaces misconfigured runs as an
		// immediate deviation instead of silently passing.
		return CrashStates(s)
	}
	return nil
}

// processCall evaluates the pending command of pid against s, returning one
// successor per allowed behaviour, each in RsReturning with the pending
// return recorded. s itself is not mutated.
func processCall(s *OsState, pid types.Pid, cmd types.Command) []*OsState {
	return dispatch(s, pid, cmd)
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
	p.PendingRet = exactPending(rv)
	return c
}

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
	out := make([]*OsState, 0, len(errs))
	for _, e := range errs.Sorted() {
		out = append(out, succExact(s, pid, types.RvErr{Err: e}, nil))
	}
	return out
}
