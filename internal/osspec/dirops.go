package osspec

import (
	"repro/internal/cov"
	"repro/internal/fsspec"
	"repro/internal/types"
)

var (
	covOpendirAlloc = cov.Point("osspec/opendir/alloc")
	covReaddirBad   = cov.Point("osspec/readdir/ebadf")
	covReaddirOk    = cov.Point("osspec/readdir/ok")
	covClosedirBad  = cov.Point("osspec/closedir/ebadf")
	covClosedirOk   = cov.Point("osspec/closedir/ok")
	covRewindBad    = cov.Point("osspec/rewinddir/ebadf")
	covRewindOk     = cov.Point("osspec/rewinddir/ok")
)

// opendirCall implements opendir(3): the file-system module validates the
// path; the OS layer allocates the handle and takes the must-set snapshot.
func opendirCall(s *OsState, pid types.Pid, cmd types.Opendir, hits *cov.Set) []*OsState {
	dir, res := fsspec.OpendirSpec(ctxFor(s, pid, hits), cmd)
	if len(res.Oks) == 0 {
		return fromResult(s, pid, res)
	}
	hits.Hit(covOpendirAlloc)
	dh := s.procs.get(pid).NextDH
	return []*OsState{succExact(s, pid, types.RvDH{DH: dh}, func(c *OsState) {
		p := c.mutProc(pid)
		snap := currentEntries(c, dir)
		c.mutDhs(pid)[dh] = &DirHandleState{
			Dir:      dir,
			Must:     cloneSet(snap),
			May:      make(map[string]bool),
			Returned: make(map[string]bool),
			LastSeen: snap,
			owner:    c.ensureTok(),
		}
		p.NextDH++
	})}
}

// readdirCall implements readdir(3): the successor carries the must/may
// pattern; the concrete entry (or end-of-stream) observed in the trace
// resolves the nondeterminism at the next step, exactly as described in §3.
func readdirCall(s *OsState, pid types.Pid, cmd types.Readdir, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	if _, ok := p.Dhs[cmd.DH]; !ok {
		hits.Hit(covReaddirBad)
		return succErrors(s, pid, types.NewErrnoSet(types.EBADF))
	}
	hits.Hit(covReaddirOk)
	return []*OsState{succPending(s, pid, PendingReaddir{Pid: pid, DH: cmd.DH}, nil)}
}

// closedirCall implements closedir(3).
func closedirCall(s *OsState, pid types.Pid, cmd types.Closedir, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	if _, ok := p.Dhs[cmd.DH]; !ok {
		hits.Hit(covClosedirBad)
		return succErrors(s, pid, types.NewErrnoSet(types.EBADF))
	}
	hits.Hit(covClosedirOk)
	return []*OsState{succExact(s, pid, types.RvNone{}, func(c *OsState) {
		delete(c.mutDhs(pid), cmd.DH)
	})}
}

// rewinddirCall implements rewinddir(3): the stream restarts from the
// directory's current contents; previous bookkeeping is discarded.
func rewinddirCall(s *OsState, pid types.Pid, cmd types.Rewinddir, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	if _, ok := p.Dhs[cmd.DH]; !ok {
		hits.Hit(covRewindBad)
		return succErrors(s, pid, types.NewErrnoSet(types.EBADF))
	}
	hits.Hit(covRewindOk)
	return []*OsState{succExact(s, pid, types.RvNone{}, func(c *OsState) {
		h := c.mutDh(pid, cmd.DH)
		snap := currentEntries(c, h.Dir)
		h.Must = cloneSet(snap)
		h.May = make(map[string]bool)
		h.Returned = make(map[string]bool)
		h.LastSeen = snap
	})}
}
