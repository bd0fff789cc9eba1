package osspec

// Copy-on-write plumbing for OsState. The pattern mirrors the heap's: the
// state owns a table or object exactly when the object's owner token equals
// the state's current token; Clone/Freeze drop the token, making every
// surviving reference copy on first write. All transition code mutates
// through these accessors — writing through a pointer obtained before a
// Clone would corrupt the structural sharing.

import (
	"repro/internal/types"
)

// dirty invalidates the whole memoised process-table hash: fid-table and
// process-table shape changes land here.
func (s *OsState) dirty() { s.hvOK, s.hvDirty = false, 0 }

// unhashProc is how a change to pid's process entry (p, before the
// change) reaches the memoised hash: its contribution is XORed out now,
// while it still describes p, and Hash folds the new one back in. A pid
// already out, or a memo already invalid, needs nothing; a pid with no
// mask bit invalidates the memo.
func (s *OsState) unhashProc(pid types.Pid, p *ProcState) {
	if !s.hvOK {
		return
	}
	bit := PidBit(pid)
	if bit == 0 {
		s.dirty()
		return
	}
	if s.hvDirty&bit == 0 {
		s.hv ^= s.procContrib(pid, p)
		s.hvDirty |= bit
	}
}

func (s *OsState) ensureTok() *cowTok {
	if s.tok == nil {
		s.tok = &cowTok{}
		s.frozen = false
	}
	return s.tok
}

// mutProcs makes the process table private (one slice copy, with room
// for a new row) before any row changes. Callers account for the hash.
func (s *OsState) mutProcs() procTable {
	if !s.ownsProcs {
		t := make(procTable, len(s.procs), len(s.procs)+1)
		copy(t, s.procs)
		s.procs = t
		s.ownsProcs = true
		s.frozen = false
	}
	return s.procs
}

// setProc installs p as pid's process, inserting a row in pid order if
// pid is new.
func (s *OsState) setProc(pid types.Pid, p *ProcState) {
	t := s.mutProcs()
	i, ok := t.lookup(pid)
	if ok {
		s.unhashProc(pid, t[i].p)
	} else {
		s.dirty()
		t = append(t, procEntry{})
		copy(t[i+1:], t[i:])
		s.procs = t
	}
	t[i] = procEntry{pid, p}
}

// deleteProc removes pid's row, if any.
func (s *OsState) deleteProc(pid types.Pid) {
	s.dirty()
	t := s.mutProcs()
	if i, ok := t.lookup(pid); ok {
		copy(t[i:], t[i+1:])
		t[len(t)-1] = procEntry{}
		s.procs = t[:len(t)-1]
	}
}

// mutFidsMap makes the open-file table private for structural changes:
// description allocation and release.
func (s *OsState) mutFidsMap() map[FidRef]*FidState {
	s.dirty()
	if !s.ownsFids {
		m := make(map[FidRef]*FidState, len(s.fids)+1)
		for r, f := range s.fids {
			m[r] = f
		}
		s.fids = m
		s.ownsFids = true
		s.frozen = false
	}
	return s.fids
}

// mutProc returns a ProcState that is safe to mutate, copying it (sharing
// its fd/handle tables copy-on-write) unless this state already owns it.
func (s *OsState) mutProc(pid types.Pid) *ProcState {
	p := s.procs.get(pid)
	if p == nil {
		return nil
	}
	s.unhashProc(pid, p)
	if s.tok != nil && p.owner == s.tok {
		p.hvOK = false
		return p
	}
	np := s.newProcForRow()
	*np = ProcState{
		Cwd:      p.Cwd,
		CwdValid: p.CwdValid,
		Umask:    p.Umask,
		Euid:     p.Euid,
		Egid:     p.Egid,
		Fds:      p.Fds,
		Dhs:      p.Dhs,
		NextFD:   p.NextFD,
		NextDH:   p.NextDH,
		Run:      p.Run,
		// Commands and pendings are immutable values; share them.
		PendingCmd: p.PendingCmd,
		PendingRet: p.PendingRet,
		owner:      s.ensureTok(),
	}
	s.setProc(pid, np)
	return np
}

// procBlock is a private process-table copy laid out with a new row's
// process, for the common write: the first change to one process of a
// fresh clone, which needs both.
type procBlock struct {
	p    ProcState
	rows [procBlockRows]procEntry
}

// procBlockRows bounds the tables copied into a procBlock; scripts run
// a handful of processes.
const procBlockRows = 6

// newProcForRow returns storage for a process about to replace a row.
// When the table is still shared and small, the private copy mutProcs
// would make and the process come from one allocation.
func (s *OsState) newProcForRow() *ProcState {
	if s.ownsProcs || len(s.procs) >= procBlockRows {
		return new(ProcState)
	}
	b := new(procBlock)
	s.procs = b.rows[:copy(b.rows[:], s.procs)]
	s.ownsProcs = true
	s.frozen = false
	return &b.p
}

// mutFds returns pid's descriptor table ready for insertion/deletion.
func (s *OsState) mutFds(pid types.Pid) map[types.FD]FidRef {
	p := s.mutProc(pid)
	if !p.ownsFds {
		m := make(map[types.FD]FidRef, len(p.Fds)+1)
		for fd, r := range p.Fds {
			m[fd] = r
		}
		p.Fds = m
		p.ownsFds = true
	}
	return p.Fds
}

// mutDhs returns pid's directory-handle table ready for insertion/deletion.
func (s *OsState) mutDhs(pid types.Pid) map[types.DH]*DirHandleState {
	p := s.mutProc(pid)
	if !p.ownsDhs {
		m := make(map[types.DH]*DirHandleState, len(p.Dhs)+1)
		for dh, h := range p.Dhs {
			m[dh] = h
		}
		p.Dhs = m
		p.ownsDhs = true
	}
	return p.Dhs
}

// mutDh returns a directory-handle state safe to mutate. Must/May/LastSeen
// are shared (their writers replace them wholesale); Returned is cloned
// because readdir marks entries returned in place.
func (s *OsState) mutDh(pid types.Pid, dh types.DH) *DirHandleState {
	dhs := s.mutDhs(pid)
	h := dhs[dh]
	if h == nil {
		return nil
	}
	if h.owner == s.tok {
		return h
	}
	nh := &DirHandleState{
		Dir:      h.Dir,
		Must:     h.Must,
		May:      h.May,
		Returned: cloneSet(h.Returned),
		LastSeen: h.LastSeen,
		owner:    s.tok,
	}
	dhs[dh] = nh
	return nh
}

// mutFid returns an open-file description safe to mutate.
func (s *OsState) mutFid(r FidRef) *FidState {
	f := s.fids[r]
	if f == nil {
		return nil
	}
	s.dirty()
	if s.tok != nil && f.owner == s.tok {
		return f
	}
	nf := *f
	nf.owner = s.ensureTok()
	s.mutFidsMap()[r] = &nf
	return &nf
}

// addGroupMember records uid as a member of gid, copy-on-write on both the
// outer table and the member set.
func (s *OsState) addGroupMember(gid types.Gid, uid types.Uid) {
	if !s.ownsGroups {
		m := make(map[types.Gid]map[types.Uid]bool, len(s.groups)+1)
		for g, set := range s.groups {
			m[g] = set
		}
		s.groups = m
		s.ownsGroups = true
		s.frozen = false
	}
	set := make(map[types.Uid]bool, len(s.groups[gid])+1)
	for u := range s.groups[gid] {
		set[u] = true
	}
	set[uid] = true
	s.groups[gid] = set
}

func cloneSet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k := range m {
		c[k] = true
	}
	return c
}
