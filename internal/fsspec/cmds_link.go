package fsspec

import (
	"repro/internal/cov"
	"repro/internal/pathres"
	"repro/internal/state"
	"repro/internal/types"
)

var (
	covLinkSrcErr   = cov.Point("fsspec/link/src_error")
	covLinkSrcDir   = cov.Point("fsspec/link/src_dir")
	covLinkSymlink  = cov.Point("fsspec/link/src_symlink")
	covLinkDstErr   = cov.Point("fsspec/link/dst_error")
	covLinkExists   = cov.Point("fsspec/link/dst_exists")
	covLinkTrailing = cov.Point("fsspec/link/trailing")
	covLinkPerm     = cov.Point("fsspec/link/perm")
	covLinkOk       = cov.Point("fsspec/link/ok")

	covUnlinkErr    = cov.Point("fsspec/unlink/resolve_error")
	covUnlinkDir    = cov.Point("fsspec/unlink/is_dir")
	covUnlinkNone   = cov.Point("fsspec/unlink/missing")
	covUnlinkPerm   = cov.Point("fsspec/unlink/perm")
	covUnlinkSticky = cov.Point("fsspec/unlink/sticky")
	covUnlinkOk     = cov.Point("fsspec/unlink/ok")

	covSymlinkExists = cov.Point("fsspec/symlink/exists")
	covSymlinkErr    = cov.Point("fsspec/symlink/resolve_error")
	covSymlinkEmpty  = cov.Point("fsspec/symlink/empty_target")
	covSymlinkPerm   = cov.Point("fsspec/symlink/perm")
	covSymlinkOk     = cov.Point("fsspec/symlink/ok")

	covReadlinkErr  = cov.Point("fsspec/readlink/resolve_error")
	covReadlinkKind = cov.Point("fsspec/readlink/not_symlink")
	covReadlinkOk   = cov.Point("fsspec/readlink/ok")
)

// linkFollowsSrc reports whether link follows a symlink source on this
// platform. POSIX makes it implementation-defined; Linux does not follow
// (hard links to symlinks are created), OS X follows (§7.3.2).
func linkFollowsSrc(c *Ctx) pathres.Follow {
	if c.isOSX() {
		return pathres.FollowLast
	}
	return pathres.NoFollowLast
}

// LinkSpec gives the behaviour of link(src, dst).
func LinkSpec(c *Ctx, cmd types.Link) Result {
	src := c.Resolve(cmd.Src, linkFollowsSrc(c))
	dst := c.Resolve(cmd.Dst, pathres.NoFollowLast)

	errs := types.NewErrnoSet()
	var srcFile state.FileRef
	srcOk := false
	switch r := src.(type) {
	case pathres.RNError:
		c.Cov.Hit(covLinkSrcErr)
		errs.Add(r.Err)
	case pathres.RNNone:
		c.Cov.Hit(covLinkSrcErr)
		errs.Add(types.ENOENT)
	case pathres.RNDir:
		c.Cov.Hit(covLinkSrcDir)
		// Hard links to directories: POSIX says EPERM; Linux EPERM; OS X
		// allows them on HFS+ in principle but the envelope keeps EPERM.
		errs.Add(types.EPERM)
	case pathres.RNFile:
		if r.TrailingSlash {
			c.Cov.Hit(covLinkTrailing)
			errs.Add(types.ENOTDIR)
			if c.isLinux() {
				errs.Add(types.EEXIST, types.ENOENT)
			}
		}
		if r.IsSymlink {
			c.Cov.Hit(covLinkSymlink)
			if c.isPOSIX() {
				// Implementation-defined whether the link is made to the
				// symlink or its target: a special state.
				return UndefinedResult()
			}
		}
		srcFile = r.File
		srcOk = true
	}

	var dstParent state.DirRef
	var dstName string
	dstOk := false
	switch r := dst.(type) {
	case pathres.RNError:
		c.Cov.Hit(covLinkDstErr)
		errs.Add(r.Err)
	case pathres.RNDir:
		c.Cov.Hit(covLinkExists)
		errs.Add(types.EEXIST)
	case pathres.RNFile:
		c.Cov.Hit(covLinkExists)
		errs.Add(types.EEXIST)
		if r.TrailingSlash {
			c.Cov.Hit(covLinkTrailing)
			// Paper §7.3.2: on Linux, link /dir/ /f.txt/ returns EEXIST,
			// which POSIX does not allow (POSIX: ENOTDIR).
			errs.Add(types.ENOTDIR)
		}
	case pathres.RNNone:
		if r.TrailingSlash {
			c.Cov.Hit(covLinkTrailing)
			errs.Add(types.ENOENT, types.ENOTDIR)
		}
		dstParent, dstName, dstOk = r.Parent, r.Name, true
	}

	if dstOk {
		pe := Par(
			when(!c.dirAccess(dstParent, types.AccessWrite), types.EACCES),
			when(!c.dirAccess(dstParent, types.AccessExec), types.EACCES),
			when(c.parentGone(dstParent), types.ENOENT),
		)
		if pe.Len() > 0 {
			c.Cov.Hit(covLinkPerm)
		}
		errs.Union(pe)
	}
	if errs.Len() > 0 {
		return Result{Errors: errs}
	}
	if !srcOk || !dstOk {
		return ErrResult(types.ENOENT)
	}
	c.Cov.Hit(covLinkOk)
	f := srcFile
	p, n := dstParent, dstName
	return OkResult(types.RvNone{}, func(h *state.Heap) {
		h.LinkFile(p, n, f)
	})
}

// UnlinkSpec gives the behaviour of unlink(path).
func UnlinkSpec(c *Ctx, cmd types.Unlink) Result {
	rn := c.Resolve(cmd.Path, pathres.NoFollowLast)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covUnlinkErr)
		return ErrResult(r.Err)
	case pathres.RNNone:
		c.Cov.Hit(covUnlinkNone)
		return ErrResult(types.ENOENT)
	case pathres.RNDir:
		c.Cov.Hit(covUnlinkDir)
		// unlink of a directory: POSIX and OS X give EPERM; Linux follows
		// the LSB and gives EISDIR (§7.3.2). Each variant pins its own
		// value so the checker can flag the other platform's convention.
		switch {
		case c.isLinux():
			return ErrResult(types.EISDIR)
		case c.isPOSIX():
			return ErrResult(types.EPERM, types.EISDIR)
		default:
			return ErrResult(types.EPERM)
		}
	case pathres.RNFile:
		errs := types.NewErrnoSet()
		if r.TrailingSlash {
			errs.Add(types.ENOTDIR)
		}
		fileObj := c.H.File(r.File)
		pe := Par(
			when(!c.dirAccess(r.Parent, types.AccessWrite), types.EACCES),
			when(!c.dirAccess(r.Parent, types.AccessExec), types.EACCES),
		)
		if pe.Len() > 0 {
			c.Cov.Hit(covUnlinkPerm)
		}
		errs.Union(pe)
		if fileObj != nil && c.stickyDenies(r.Parent, fileObj.Uid) {
			c.Cov.Hit(covUnlinkSticky)
			errs.Add(types.EACCES, types.EPERM)
		}
		if errs.Len() > 0 {
			return Result{Errors: errs}
		}
		c.Cov.Hit(covUnlinkOk)
		p, n := r.Parent, r.Name
		return OkResult(types.RvNone{}, func(h *state.Heap) {
			h.UnlinkFile(p, n)
		})
	}
	panic("fsspec: unreachable unlink result")
}

// SymlinkSpec gives the behaviour of symlink(target, linkpath). The target
// is not resolved; dangling symlinks are created freely.
func SymlinkSpec(c *Ctx, cmd types.Symlink) Result {
	if cmd.Target == "" {
		c.Cov.Hit(covSymlinkEmpty)
		return ErrResult(types.ENOENT)
	}
	rn := c.Resolve(cmd.Linkpath, pathres.NoFollowLast)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covSymlinkErr)
		return ErrResult(r.Err)
	case pathres.RNDir:
		c.Cov.Hit(covSymlinkExists)
		return ErrResult(types.EEXIST)
	case pathres.RNFile:
		c.Cov.Hit(covSymlinkExists)
		return ErrResult(types.EEXIST)
	case pathres.RNNone:
		errs := types.NewErrnoSet()
		if r.TrailingSlash {
			errs.Add(types.ENOENT, types.ENOTDIR)
		}
		pe := Par(
			when(!c.dirAccess(r.Parent, types.AccessWrite), types.EACCES),
			when(!c.dirAccess(r.Parent, types.AccessExec), types.EACCES),
			when(c.parentGone(r.Parent), types.ENOENT),
		)
		if pe.Len() > 0 {
			c.Cov.Hit(covSymlinkPerm)
		}
		errs.Union(pe)
		if errs.Len() > 0 {
			return Result{Errors: errs}
		}
		c.Cov.Hit(covSymlinkOk)
		p, n, tgt := r.Parent, r.Name, cmd.Target
		uid, gid := c.Euid, c.Egid
		perm := symlinkDefaultPerm(c)
		return OkResult(types.RvNone{}, func(h *state.Heap) {
			f := h.AllocSymlink(tgt, perm, uid, gid)
			h.LinkFile(p, n, f)
		})
	}
	panic("fsspec: unreachable symlink result")
}

// symlinkDefaultPerm gives the platform's default symlink permission —
// implementation-defined per POSIX (§7.2 lists it among the divergences).
func symlinkDefaultPerm(c *Ctx) types.Perm {
	switch c.Spec.Platform {
	case types.PlatformOSX, types.PlatformFreeBSD:
		return 0o755 &^ c.Umask // BSDs apply the umask to symlinks
	default:
		return 0o777 // Linux: symlink modes are always 0777
	}
}

// ReadlinkSpec gives the behaviour of readlink(path). A trailing slash
// forces the symlink to be followed: readlink("s/") is EINVAL when s leads
// to a directory and ENOTDIR when it leads to a file (observed on Linux;
// the OS X symlink-chain quirk of §7.3.2 deviates and is flagged).
func ReadlinkSpec(c *Ctx, cmd types.Readlink) Result {
	follow := pathres.NoFollowLast
	if hasTrailingSlash(cmd.Path) {
		follow = pathres.FollowLast
	}
	rn := c.Resolve(cmd.Path, follow)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covReadlinkErr)
		return ErrResult(r.Err)
	case pathres.RNNone:
		c.Cov.Hit(covReadlinkErr)
		return ErrResult(types.ENOENT)
	case pathres.RNDir:
		c.Cov.Hit(covReadlinkKind)
		return ErrResult(types.EINVAL)
	case pathres.RNFile:
		f := c.H.File(r.File)
		if r.TrailingSlash && (f == nil || !f.IsSymlink) {
			c.Cov.Hit(covReadlinkKind)
			return ErrResult(types.ENOTDIR)
		}
		if f == nil || !f.IsSymlink {
			c.Cov.Hit(covReadlinkKind)
			return ErrResult(types.EINVAL)
		}
		c.Cov.Hit(covReadlinkOk)
		data := append([]byte(nil), f.Bytes...)
		return OkResult(types.RvBytes{Data: data}, nil)
	}
	panic("fsspec: unreachable readlink result")
}
