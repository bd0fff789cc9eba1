package osspec

import (
	"repro/internal/cov"
	"repro/internal/fsspec"
	"repro/internal/state"
	"repro/internal/types"
)

// ctxFor builds the file-system module's evaluation context for one
// process: the process's view of the world (cwd, umask, credentials) plus
// the shared heap and spec, recording coverage in hits. Without
// supplementary groups InGroup stays nil, which means the same and spares
// a method value per call.
func ctxFor(s *OsState, pid types.Pid, hits *cov.Set) *fsspec.Ctx {
	p := s.procs.get(pid)
	c := &fsspec.Ctx{
		Spec:     s.Spec,
		H:        s.H,
		Cwd:      p.Cwd,
		CwdValid: p.CwdValid,
		Umask:    p.Umask,
		Euid:     p.Euid,
		Egid:     p.Egid,
		Cov:      hits,
	}
	if len(s.groups) > 0 {
		c.InGroup = s.InGroup
	}
	return c
}

// fromResult converts a file-system module Result into LTS successors.
func fromResult(s *OsState, pid types.Pid, res fsspec.Result) []*OsState {
	if res.Undefined {
		return []*OsState{succPending(s, pid, PendingAny{Why: "implementation-defined"}, nil)}
	}
	out := appendErrors(make([]*OsState, 0, res.Errors.Len()+len(res.Oks)), s, pid, res.Errors)
	for _, ok := range res.Oks {
		apply := ok.Apply
		var f func(*OsState)
		if apply != nil {
			f = func(c *OsState) { apply(c.H) }
		}
		out = append(out, succExact(s, pid, ok.Ret, f))
	}
	return out
}

// dispatch is the per-command core of os_trans's τ step: it evaluates cmd
// for process pid in state s, recording coverage in hits, and returns the
// successor states.
func dispatch(s *OsState, pid types.Pid, cmd types.Command, hits *cov.Set) []*OsState {
	c := ctxFor(s, pid, hits)
	switch cm := cmd.(type) {
	// Path-based commands: delegate to the file-system module.
	case types.Mkdir:
		return fromResult(s, pid, fsspec.MkdirSpec(c, cm))
	case types.Rmdir:
		return fromResult(s, pid, fsspec.RmdirSpec(c, cm))
	case types.Link:
		return fromResult(s, pid, fsspec.LinkSpec(c, cm))
	case types.Unlink:
		return fromResult(s, pid, fsspec.UnlinkSpec(c, cm))
	case types.Rename:
		return fromResult(s, pid, fsspec.RenameSpec(c, cm))
	case types.Symlink:
		return fromResult(s, pid, fsspec.SymlinkSpec(c, cm))
	case types.Readlink:
		return fromResult(s, pid, fsspec.ReadlinkSpec(c, cm))
	case types.Stat:
		return fromResult(s, pid, fsspec.StatSpec(c, cm))
	case types.Lstat:
		return fromResult(s, pid, fsspec.LstatSpec(c, cm))
	case types.Truncate:
		return fromResult(s, pid, fsspec.TruncateSpec(c, cm))
	case types.Chmod:
		return fromResult(s, pid, fsspec.ChmodSpec(c, cm))
	case types.Chown:
		return fromResult(s, pid, fsspec.ChownSpec(c, cm))

	// Commands that touch per-process OS state.
	case types.Chdir:
		dir, res := fsspec.ChdirSpec(c, cm)
		if len(res.Oks) > 0 {
			return []*OsState{succExact(s, pid, types.RvNone{}, func(cl *OsState) {
				p := cl.mutProc(pid)
				p.Cwd = dir
				p.CwdValid = true
			})}
		}
		return fromResult(s, pid, res)
	case types.Umask:
		old := s.procs.get(pid).Umask
		mask := cm.Mask & types.PermMask
		return []*OsState{succExact(s, pid, types.RvPerm{Perm: old}, func(cl *OsState) {
			cl.mutProc(pid).Umask = mask
		})}
	case types.AddUserToGroup:
		return []*OsState{succExact(s, pid, types.RvNone{}, func(cl *OsState) {
			cl.addGroupMember(cm.Gid, cm.Uid)
		})}

	// Descriptor-based commands.
	case types.Open:
		return openCall(s, pid, cm, hits)
	case types.Close:
		return closeCall(s, pid, cm, hits)
	case types.Read:
		return readCall(s, pid, cm.FD, cm.Size, -1, true, hits)
	case types.Pread:
		return readCall(s, pid, cm.FD, cm.Size, cm.Off, false, hits)
	case types.Write:
		return writeCall(s, pid, cm.FD, cm.Data, cm.Size, -1, true, hits)
	case types.Pwrite:
		return writeCall(s, pid, cm.FD, cm.Data, cm.Size, cm.Off, false, hits)
	case types.Lseek:
		return lseekCall(s, pid, cm, hits)
	case types.Fsync:
		return fsyncCall(s, pid, cm)
	case types.Sync:
		return syncCall(s, pid)

	// Directory-stream commands.
	case types.Opendir:
		return opendirCall(s, pid, cm, hits)
	case types.Readdir:
		return readdirCall(s, pid, cm, hits)
	case types.Closedir:
		return closedirCall(s, pid, cm, hits)
	case types.Rewinddir:
		return rewinddirCall(s, pid, cm, hits)
	}
	// Unknown command: treat as undefined behaviour rather than crashing
	// the oracle (forward compatibility with extended scripts).
	return []*OsState{succPending(s, pid, PendingAny{Why: "unmodelled command"}, nil)}
}

// closeFD drops one descriptor, releasing the description and any
// unreferenced, fully-unlinked file object.
func (s *OsState) closeFD(pid types.Pid, fd types.FD) {
	p := s.procs.get(pid)
	if p == nil {
		return
	}
	fidRef, ok := p.Fds[fd]
	if !ok {
		return
	}
	delete(s.mutFds(pid), fd)
	fid := s.mutFid(fidRef)
	if fid == nil {
		return
	}
	fid.Refs--
	if fid.Refs > 0 {
		return
	}
	s.dirty()
	delete(s.mutFidsMap(), fidRef)
	if !fid.IsDir {
		if f := s.H.File(fid.File); f != nil && f.Nlink == 0 && !anyFidFor(s, fid.File) {
			s.H.FreeFile(fid.File)
		}
	}
}

func anyFidFor(s *OsState, f state.FileRef) bool {
	for _, fid := range s.fids {
		if !fid.IsDir && fid.File == f {
			return true
		}
	}
	return false
}
