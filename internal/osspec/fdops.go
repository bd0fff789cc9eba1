package osspec

import (
	"repro/internal/cov"
	"repro/internal/fsspec"
	"repro/internal/types"
)

var (
	covOpenFd       = cov.Point("osspec/open/fd_alloc")
	covCloseBad     = cov.Point("osspec/close/ebadf")
	covCloseOk      = cov.Point("osspec/close/ok")
	covReadBad      = cov.Point("osspec/read/ebadf")
	covReadDir      = cov.Point("osspec/read/eisdir")
	covReadNeg      = cov.Point("osspec/read/einval")
	covReadOk       = cov.Point("osspec/read/ok")
	covWriteBad     = cov.Point("osspec/write/ebadf")
	covWriteZero    = cov.Point("osspec/write/zero_len")
	covWriteNeg     = cov.Point("osspec/write/einval")
	covWriteOk      = cov.Point("osspec/write/ok")
	covPwriteAppend = cov.Point("osspec/pwrite/linux_append")
	covLseekBad     = cov.Point("osspec/lseek/ebadf")
	covLseekInval   = cov.Point("osspec/lseek/einval")
	covLseekOk      = cov.Point("osspec/lseek/ok")
)

// openCall implements open(2): the file-system module decides the envelope
// and the success shape; the OS layer allocates the descriptor.
func openCall(s *OsState, pid types.Pid, cmd types.Open, hits *cov.Set) []*OsState {
	d := fsspec.OpenSpec(ctxFor(s, pid, hits), cmd)
	if d.Undefined {
		return []*OsState{succPending(s, pid, PendingAny{Why: "open flags undefined"}, nil)}
	}
	if d.Errs.Len() > 0 {
		return succErrors(s, pid, d.Errs)
	}
	hits.Hit(covOpenFd)
	fd := s.procs.get(pid).NextFD
	return []*OsState{succExact(s, pid, types.RvFD{FD: fd}, func(c *OsState) {
		p := c.mutProc(pid)
		fid := c.NextFid
		c.NextFid++
		fs := &FidState{
			Append:   d.Append,
			Readable: d.Readable,
			Writable: d.Writable,
			Sync:     cmd.Flags.Has(types.OSync),
			Refs:     1,
			owner:    c.ensureTok(),
		}
		switch {
		case d.OpenDir:
			fs.IsDir = true
			fs.Dir = d.Dir
		case d.OpenExisting:
			fs.File = d.File
			if d.Truncate {
				fsspec.ResizeFile(c.H, d.File, 0)
			}
		case d.Create:
			f := c.H.AllocFile(d.CreatePerm, p.Euid, p.Egid)
			c.H.LinkFile(d.Parent, d.Name, f)
			fs.File = f
		}
		c.mutFidsMap()[fid] = fs
		c.mutFds(pid)[fd] = fid
		p.NextFD++
	})}
}

// closeCall implements close(2). Close of an unknown descriptor is EBADF;
// close itself never fails otherwise in the model (EINTR is out of scope).
func closeCall(s *OsState, pid types.Pid, cmd types.Close, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	if _, ok := p.Fds[cmd.FD]; !ok {
		hits.Hit(covCloseBad)
		return succErrors(s, pid, types.NewErrnoSet(types.EBADF))
	}
	hits.Hit(covCloseOk)
	return []*OsState{succExact(s, pid, types.RvNone{}, func(c *OsState) {
		c.closeFD(pid, cmd.FD)
	})}
}

// readCall implements read (at = -1, seq) and pread (at ≥ 0 given, !seq).
func readCall(s *OsState, pid types.Pid, fd types.FD, size, at int64, seq bool, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	fidRef, ok := p.Fds[fd]
	if !ok {
		hits.Hit(covReadBad)
		return succErrors(s, pid, types.NewErrnoSet(types.EBADF))
	}
	fid := s.fids[fidRef]
	// Error conditions combine with the parallel-combinator looseness: the
	// kernel may report whichever failing check it tests first.
	errs := types.NewErrnoSet()
	if fid.IsDir {
		hits.Hit(covReadDir)
		errs.Add(types.EISDIR)
	} else if !fid.Readable {
		hits.Hit(covReadBad)
		errs.Add(types.EBADF)
	}
	if size < 0 {
		hits.Hit(covReadNeg)
		errs.Add(types.EINVAL)
	}
	if !seq && at < 0 {
		// pread with a negative offset is EINVAL per POSIX (the OS X VFS
		// underflow in §7.3.4 deviates from this for pwrite; pread is
		// analogous).
		hits.Hit(covReadNeg)
		errs.Add(types.EINVAL)
	}
	if errs.Len() > 0 {
		return succErrors(s, pid, errs)
	}
	f := s.H.File(fid.File)
	pos := fid.Offset
	if !seq {
		pos = at
	}
	var avail []byte
	if f != nil && pos < int64(len(f.Bytes)) {
		end := pos + size
		if end > int64(len(f.Bytes)) {
			end = int64(len(f.Bytes))
		}
		avail = append([]byte(nil), f.Bytes[pos:end]...)
	}
	hits.Hit(covReadOk)
	return []*OsState{succPending(s, pid, PendingReadPrefix{
		Pid: pid, Fid: fidRef, Data: avail, Seq: seq,
	}, nil)}
}

// writeCall implements write (at = -1, seq) and pwrite (at given, !seq).
func writeCall(s *OsState, pid types.Pid, fd types.FD, data []byte, size, at int64, seq bool, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	if size >= 0 && size < int64(len(data)) {
		data = data[:size]
	}
	fidRef, ok := p.Fds[fd]
	if !ok {
		hits.Hit(covWriteBad)
		return succErrors(s, pid, types.NewErrnoSet(types.EBADF))
	}
	fid := s.fids[fidRef]
	errs := types.NewErrnoSet()
	badMode := fid.IsDir || !fid.Writable
	if badMode {
		if len(data) == 0 && seq {
			// Writing zero bytes to a read-only descriptor: POSIX leaves
			// this implementation-defined; Linux returns 0 (§7.2 lists it
			// among the divergences). Allow both.
			hits.Hit(covWriteZero)
			return []*OsState{
				succExact(s, pid, types.RvNum{N: 0}, nil),
				succExact(s, pid, types.RvErr{Err: types.EBADF}, nil),
			}
		}
		hits.Hit(covWriteBad)
		errs.Add(types.EBADF)
	}
	if size < 0 {
		hits.Hit(covWriteNeg)
		errs.Add(types.EINVAL)
	}
	if !seq && at < 0 {
		// pwrite with a negative offset: EINVAL per POSIX. The OS X VFS
		// integer-underflow defect (§7.3.4) is an implementation bug the
		// oracle must flag, so every variant keeps EINVAL.
		hits.Hit(covWriteNeg)
		errs.Add(types.EINVAL)
	}
	if errs.Len() > 0 {
		if badMode && len(data) == 0 {
			// Zero-length pwrite on a read-only fd: Linux still reports
			// the offset error first when the offset is bad, else 0.
			return append(succErrors(s, pid, errs),
				succExact(s, pid, types.RvNum{N: 0}, nil))
		}
		return succErrors(s, pid, errs)
	}
	pos := at
	if seq {
		if fid.Append {
			pos = -1 // append: position determined at apply time (EOF)
		} else {
			pos = fid.Offset
		}
	} else if fid.Append && s.Spec.Platform == types.PlatformLinux {
		// Linux platform convention (§7.3.3): pwrite on an O_APPEND
		// descriptor ignores the offset and appends. POSIX-conforming
		// systems write at the given offset.
		hits.Hit(covPwriteAppend)
		pos = -1
	}
	hits.Hit(covWriteOk)
	// The complete write applies its content effect here, at the τ point —
	// so with concurrent calls the effect order is the τ interleaving the
	// checker's closure explores, not the order returns happen to be
	// observed in. (The continuation refinement of §3 applies effects at
	// return-match time, which pins effect order to return order; for the
	// overwhelmingly common full-length write that loses legal concurrent
	// outcomes, e.g. "last writer wins" where the last writer's return is
	// observed first.)
	data = append([]byte(nil), data...)
	full := succExact(s, pid, types.RvNum{N: int64(len(data))}, func(c *OsState) {
		applyWriteEffect(c, fidRef, data, int64(len(data)), pos, seq)
	})
	out := []*OsState{full}
	if len(data) > 1 {
		// Short writes (1 ≤ n < len) keep the return-value continuation:
		// the byte count is unknown until observed, so the effect lands at
		// return-match time — the paper's refinement, scoped to the loose
		// short-write path only.
		out = append(out, succPending(s, pid, PendingWriteUpTo{
			Pid: pid, Fid: fidRef, Data: data[:len(data)-1], At: pos, Seq: seq,
		}, nil))
	}
	return out
}

// lseekCall implements lseek(2).
func lseekCall(s *OsState, pid types.Pid, cmd types.Lseek, hits *cov.Set) []*OsState {
	p := s.procs.get(pid)
	fidRef, ok := p.Fds[cmd.FD]
	if !ok {
		hits.Hit(covLseekBad)
		return succErrors(s, pid, types.NewErrnoSet(types.EBADF))
	}
	fid := s.fids[fidRef]
	var base int64
	switch cmd.Whence {
	case types.SeekSet:
		base = 0
	case types.SeekCur:
		base = fid.Offset
	case types.SeekEnd:
		if f := s.H.File(fid.File); f != nil {
			base = int64(len(f.Bytes))
		}
	default:
		hits.Hit(covLseekInval)
		return succErrors(s, pid, types.NewErrnoSet(types.EINVAL))
	}
	target := base + cmd.Off
	if target < 0 {
		hits.Hit(covLseekInval)
		return succErrors(s, pid, types.NewErrnoSet(types.EINVAL))
	}
	hits.Hit(covLseekOk)
	return []*OsState{succExact(s, pid, types.RvNum{N: target}, func(c *OsState) {
		if f := c.mutFid(fidRef); f != nil {
			f.Offset = target
		}
	})}
}
