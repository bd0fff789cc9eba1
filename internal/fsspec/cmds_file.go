package fsspec

import (
	"repro/internal/cov"
	"repro/internal/pathres"
	"repro/internal/state"
	"repro/internal/types"
)

var (
	covTruncErr    = cov.Point("fsspec/truncate/resolve_error")
	covTruncDir    = cov.Point("fsspec/truncate/is_dir")
	covTruncNeg    = cov.Point("fsspec/truncate/negative")
	covTruncPerm   = cov.Point("fsspec/truncate/perm")
	covTruncOk     = cov.Point("fsspec/truncate/ok")
	covStatErr     = cov.Point("fsspec/stat/resolve_error")
	covStatOk      = cov.Point("fsspec/stat/ok")
	covLstatOk     = cov.Point("fsspec/lstat/ok")
	covChmodErr    = cov.Point("fsspec/chmod/resolve_error")
	covChmodPerm   = cov.Point("fsspec/chmod/not_owner")
	covChmodOk     = cov.Point("fsspec/chmod/ok")
	covChownPerm   = cov.Point("fsspec/chown/not_permitted")
	covChownOk     = cov.Point("fsspec/chown/ok")
	covChdirErr    = cov.Point("fsspec/chdir/resolve_error")
	covChdirNotDir = cov.Point("fsspec/chdir/not_dir")
	covChdirPerm   = cov.Point("fsspec/chdir/perm")
	covChdirOk     = cov.Point("fsspec/chdir/ok")
)

// TruncateSpec gives the behaviour of truncate(path, len).
func TruncateSpec(c *Ctx, cmd types.Truncate) Result {
	if cmd.Len < 0 {
		c.Cov.Hit(covTruncNeg)
		return ErrResult(types.EINVAL)
	}
	rn := c.Resolve(cmd.Path, pathres.FollowLast)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covTruncErr)
		return ErrResult(r.Err)
	case pathres.RNNone:
		c.Cov.Hit(covTruncErr)
		return ErrResult(types.ENOENT)
	case pathres.RNDir:
		c.Cov.Hit(covTruncDir)
		return ErrResult(types.EISDIR)
	case pathres.RNFile:
		errs := types.NewErrnoSet()
		if r.TrailingSlash {
			errs.Add(types.ENOTDIR)
		}
		if !c.fileAccess(r.File, types.AccessWrite) {
			c.Cov.Hit(covTruncPerm)
			errs.Add(types.EACCES)
		}
		if errs.Len() > 0 {
			return Result{Errors: errs}
		}
		c.Cov.Hit(covTruncOk)
		f, n := r.File, cmd.Len
		return OkResult(types.RvNone{}, func(h *state.Heap) {
			ResizeFile(h, f, n)
		})
	}
	panic("fsspec: unreachable truncate result")
}

// ResizeFile grows (zero-filling) or shrinks a file to n bytes. Shared with
// the OS layer's ftruncate-on-open (O_TRUNC) and write paths.
func ResizeFile(h *state.Heap, f state.FileRef, n int64) {
	fl := h.File(f)
	if fl == nil {
		return
	}
	cur := int64(len(fl.Bytes))
	if n == cur {
		return
	}
	fl = h.MutFile(f)
	switch {
	case n < cur:
		fl.Bytes = fl.Bytes[:n]
	case n > cur:
		fl.Bytes = append(fl.Bytes, make([]byte, n-cur)...)
	}
}

// StatsOfFile builds the Stats observation for a file object.
func StatsOfFile(h *state.Heap, f state.FileRef) types.Stats {
	fl := h.File(f)
	kind := types.KindFile
	if fl.IsSymlink {
		kind = types.KindSymlink
	}
	return types.Stats{
		Kind:  kind,
		Perm:  fl.Perm,
		Size:  int64(len(fl.Bytes)),
		Nlink: fl.Nlink,
		Uid:   fl.Uid,
		Gid:   fl.Gid,
	}
}

// StatsOfDir builds the Stats observation for a directory. Directory sizes
// are implementation-defined, so both the executor and the model normalise
// st_size to 0 for directories; st_nlink follows the POSIX 2+subdirs
// convention (which Btrfs famously does not maintain — §7.3.2).
func StatsOfDir(h *state.Heap, d state.DirRef) types.Stats {
	dir := h.Dir(d)
	return types.Stats{
		Kind:  types.KindDir,
		Perm:  dir.Perm,
		Size:  0,
		Nlink: h.DirLinkCount(d),
		Uid:   dir.Uid,
		Gid:   dir.Gid,
	}
}

// StatSpec gives the behaviour of stat(path) (following symlinks).
func StatSpec(c *Ctx, cmd types.Stat) Result {
	rn := c.Resolve(cmd.Path, pathres.FollowLast)
	return statCommon(c, rn, covStatOk)
}

// LstatSpec gives the behaviour of lstat(path) (not following the last
// symlink). A trailing slash forces following even for lstat: on Linux,
// lstat("s/") where s → dir returns the directory's stats (observed).
func LstatSpec(c *Ctx, cmd types.Lstat) Result {
	follow := pathres.NoFollowLast
	if hasTrailingSlash(cmd.Path) {
		follow = pathres.FollowLast
	}
	rn := c.Resolve(cmd.Path, follow)
	return statCommon(c, rn, covLstatOk)
}

// hasTrailingSlash reports a semantically significant trailing slash.
func hasTrailingSlash(p string) bool {
	return len(p) > 0 && p[len(p)-1] == '/' && !allSlashes(p)
}

func statCommon(c *Ctx, rn pathres.ResName, okPoint cov.ID) Result {
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covStatErr)
		return ErrResult(r.Err)
	case pathres.RNNone:
		c.Cov.Hit(covStatErr)
		return ErrResult(types.ENOENT)
	case pathres.RNDir:
		c.Cov.Hit(okPoint)
		return OkResult(types.RvStats{Stats: StatsOfDir(c.H, r.Dir)}, nil)
	case pathres.RNFile:
		if r.TrailingSlash && !r.IsSymlink {
			c.Cov.Hit(covStatErr)
			return ErrResult(types.ENOTDIR)
		}
		c.Cov.Hit(okPoint)
		return OkResult(types.RvStats{Stats: StatsOfFile(c.H, r.File)}, nil)
	}
	panic("fsspec: unreachable stat result")
}

// ChmodSpec gives the behaviour of chmod(path, perm).
func ChmodSpec(c *Ctx, cmd types.Chmod) Result {
	rn := c.Resolve(cmd.Path, pathres.FollowLast)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covChmodErr)
		return ErrResult(r.Err)
	case pathres.RNNone:
		c.Cov.Hit(covChmodErr)
		return ErrResult(types.ENOENT)
	case pathres.RNDir:
		d := c.H.Dir(r.Dir)
		if c.Spec.Permissions && c.Euid != types.RootUid && c.Euid != d.Uid {
			c.Cov.Hit(covChmodPerm)
			return ErrResult(types.EPERM)
		}
		c.Cov.Hit(covChmodOk)
		dr, p := r.Dir, cmd.Perm&types.PermMask
		return OkResult(types.RvNone{}, func(h *state.Heap) {
			if dd := h.MutDir(dr); dd != nil {
				dd.Perm = p
			}
		})
	case pathres.RNFile:
		if r.TrailingSlash && !r.IsSymlink {
			c.Cov.Hit(covChmodErr)
			return ErrResult(types.ENOTDIR)
		}
		f := c.H.File(r.File)
		if c.Spec.Permissions && c.Euid != types.RootUid && c.Euid != f.Uid {
			c.Cov.Hit(covChmodPerm)
			return ErrResult(types.EPERM)
		}
		c.Cov.Hit(covChmodOk)
		fr, p := r.File, cmd.Perm&types.PermMask
		return OkResult(types.RvNone{}, func(h *state.Heap) {
			if ff := h.MutFile(fr); ff != nil {
				ff.Perm = p
			}
		})
	}
	panic("fsspec: unreachable chmod result")
}

// ChownSpec gives the behaviour of chown(path, uid, gid). The model keeps
// the conservative envelope: only root may change ownership arbitrarily; an
// owner may change the group to one of their groups.
func ChownSpec(c *Ctx, cmd types.Chown) Result {
	rn := c.Resolve(cmd.Path, pathres.FollowLast)
	var curUid types.Uid
	var apply func(h *state.Heap)
	switch r := rn.(type) {
	case pathres.RNError:
		return ErrResult(r.Err)
	case pathres.RNNone:
		return ErrResult(types.ENOENT)
	case pathres.RNDir:
		curUid = c.H.Dir(r.Dir).Uid
		dr := r.Dir
		apply = func(h *state.Heap) {
			if dd := h.MutDir(dr); dd != nil {
				dd.Uid, dd.Gid = cmd.Uid, cmd.Gid
			}
		}
	case pathres.RNFile:
		if r.TrailingSlash && !r.IsSymlink {
			return ErrResult(types.ENOTDIR)
		}
		curUid = c.H.File(r.File).Uid
		fr := r.File
		apply = func(h *state.Heap) {
			if ff := h.MutFile(fr); ff != nil {
				ff.Uid, ff.Gid = cmd.Uid, cmd.Gid
			}
		}
	}
	if c.Spec.Permissions && c.Euid != types.RootUid {
		ownerGroupChange := c.Euid == curUid && cmd.Uid == curUid &&
			(cmd.Gid == c.Egid || (c.InGroup != nil && c.InGroup(c.Euid, cmd.Gid)))
		if !ownerGroupChange {
			c.Cov.Hit(covChownPerm)
			return ErrResult(types.EPERM)
		}
	}
	c.Cov.Hit(covChownOk)
	return OkResult(types.RvNone{}, apply)
}

// ChdirSpec resolves and checks chdir(path); the actual cwd mutation lives
// in the OS layer (the cwd is per-process state).
func ChdirSpec(c *Ctx, cmd types.Chdir) (state.DirRef, Result) {
	rn := c.Resolve(cmd.Path, pathres.FollowLast)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covChdirErr)
		return 0, ErrResult(r.Err)
	case pathres.RNNone:
		c.Cov.Hit(covChdirErr)
		return 0, ErrResult(types.ENOENT)
	case pathres.RNFile:
		c.Cov.Hit(covChdirNotDir)
		return 0, ErrResult(types.ENOTDIR)
	case pathres.RNDir:
		if !c.dirAccess(r.Dir, types.AccessExec) {
			c.Cov.Hit(covChdirPerm)
			return 0, ErrResult(types.EACCES)
		}
		c.Cov.Hit(covChdirOk)
		return r.Dir, OkResult(types.RvNone{}, nil)
	}
	panic("fsspec: unreachable chdir result")
}
