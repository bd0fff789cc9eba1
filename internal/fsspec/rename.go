package fsspec

import (
	"repro/internal/cov"
	"repro/internal/pathres"
	"repro/internal/state"
	"repro/internal/types"
)

var (
	covRenameSame       = cov.Point("fsspec/rename/same_object")
	covRenameSrcErr     = cov.Point("fsspec/rename/src_error")
	covRenameDstErr     = cov.Point("fsspec/rename/dst_error")
	covRenameRoot       = cov.Point("fsspec/rename/root")
	covRenameSubdir     = cov.Point("fsspec/rename/subdir")
	covRenameParentdirs = cov.Point("fsspec/rename/parentdirs")
	covRenamePerms      = cov.Point("fsspec/rename/perms")
	covRenameKinds      = cov.Point("fsspec/rename/kind_mismatch")
	covRenameNonempty   = cov.Point("fsspec/rename/nonempty_dst")
	covRenameOkFile     = cov.Point("fsspec/rename/ok_file")
	covRenameOkDir      = cov.Point("fsspec/rename/ok_dir")
	covRenameTrailing   = cov.Point("fsspec/rename/trailing_slash")
)

// renameEnds classifies one end of a rename after resolution.
type renameEnd struct {
	rn      pathres.ResName
	isDir   bool
	isFile  bool
	none    bool
	err     types.Errno
	dir     state.DirRef
	file    state.FileRef
	parent  state.DirRef
	name    string
	hasPar  bool
	trail   bool
	dotLike bool // resolved via "." or ".." (no parent binding)
}

func classifyEnd(rn pathres.ResName) renameEnd {
	e := renameEnd{rn: rn}
	switch r := rn.(type) {
	case pathres.RNError:
		e.err = r.Err
	case pathres.RNDir:
		e.isDir = true
		e.dir = r.Dir
		e.parent, e.name, e.hasPar = r.Parent, r.Name, r.HasParent
		e.dotLike = !r.HasParent
	case pathres.RNFile:
		e.isFile = true
		e.file = r.File
		e.parent, e.name, e.hasPar = r.Parent, r.Name, true
		e.trail = r.TrailingSlash
	case pathres.RNNone:
		e.none = true
		e.parent, e.name, e.hasPar = r.Parent, r.Name, true
		e.trail = r.TrailingSlash
	}
	return e
}

// RenameSpec gives the behaviour of rename(src, dst), structured exactly as
// the Fig 6 excerpt: a same-object short-circuit, then the parallel
// combination of the per-concern checks (source/destination combinations,
// root, subdirectory cycles, parent directories, permissions).
func RenameSpec(c *Ctx, cmd types.Rename) Result {
	src := classifyEnd(c.Resolve(cmd.Src, pathres.NoFollowLast))
	dst := classifyEnd(c.Resolve(cmd.Dst, pathres.NoFollowLast))
	// trail records the raw paths' trailing slashes for all result kinds
	// (resolution only reports it for files).
	src.trail = hasTrailingSlash(cmd.Src)
	dst.trail = hasTrailingSlash(cmd.Dst)

	// A trailing slash on either path requires the *renamed object* to be
	// a directory; otherwise ENOTDIR — checked by the kernel before the
	// same-object no-op (observed: rename("f","f/") is ENOTDIR, and
	// rename(file, "dir/") is ENOTDIR, not EISDIR). A root destination
	// ("/", "//", ...) behaves like a trailing slash, with the
	// root-rename errors also in the envelope; "." / ".." endpoints add
	// EBUSY/EINVAL.
	dstRootish := dst.trail || allSlashes(cmd.Dst)
	if src.err == types.EOK && !src.none && !src.isDir && (src.trail || dstRootish) {
		c.Cov.Hit(covRenameTrailing)
		errs := types.NewErrnoSet(types.ENOTDIR)
		if dst.err != types.EOK {
			errs.Add(dst.err)
		}
		if src.dotLike || (dst.isDir && dst.dotLike) {
			errs.Add(types.EBUSY, types.EINVAL)
		}
		if dst.isDir && dst.dir == c.H.Root {
			errs.Add(types.EBUSY, types.EINVAL)
		}
		return Result{Errors: errs}
	}

	// fsop_rename_same: renaming an object onto itself (same entry or two
	// hard links to the same file) is a successful no-op. When the object
	// is the root directory, real systems may instead report the
	// root-rename error (Linux: EBUSY), so both are in the envelope.
	if fsopRenameSame(src, dst) {
		c.Cov.Hit(covRenameSame)
		res := OkResult(types.RvNone{}, nil)
		if src.isDir && src.dir == c.H.Root {
			res.Errors.Add(types.EBUSY, types.EINVAL)
		}
		return res
	}

	errs := Par(
		func() types.ErrnoSet { return fsopRenameChecksRsrcRdst(c, src, dst) },
		func() types.ErrnoSet { return fsopRenameChecksRoot(c, src, dst) },
		func() types.ErrnoSet { return fsopRenameChecksSubdir(c, src, dst) },
		func() types.ErrnoSet { return fsopRenameChecksParentdirs(c, src, dst) },
		func() types.ErrnoSet { return fsopRenameChecksDisconnected(c, dst) },
		func() types.ErrnoSet { return fsopRenameChecksPerms(c, src, dst) },
	)
	if errs.Len() > 0 {
		return Result{Errors: errs}
	}

	// Success: move the entry, replacing the destination if present.
	if src.isDir {
		c.Cov.Hit(covRenameOkDir)
	} else {
		c.Cov.Hit(covRenameOkFile)
	}
	s, d := src, dst
	return OkResult(types.RvNone{}, func(h *state.Heap) {
		if d.isFile {
			h.UnlinkFile(d.parent, d.name)
		} else if d.isDir && d.hasPar {
			h.UnlinkDir(d.parent, d.name)
		}
		if s.isDir {
			h.UnlinkDir(s.parent, s.name)
			h.LinkDir(d.parent, d.name, s.dir)
		} else {
			f := s.file
			h.UnlinkFile(s.parent, s.name)
			h.LinkFile(d.parent, d.name, f)
		}
	})
}

func fsopRenameSame(src, dst renameEnd) bool {
	if src.isDir && dst.isDir && src.dir == dst.dir {
		return true
	}
	if src.isFile && dst.isFile && src.file == dst.file {
		return true
	}
	return false
}

// fsopRenameChecksRsrcRdst covers the combinations of source and
// destination kinds that result in errors.
func fsopRenameChecksRsrcRdst(c *Ctx, src, dst renameEnd) types.ErrnoSet {
	errs := types.NewErrnoSet()
	if src.err != types.EOK {
		c.Cov.Hit(covRenameSrcErr)
		errs.Add(src.err)
	}
	if src.none {
		c.Cov.Hit(covRenameSrcErr)
		errs.Add(types.ENOENT)
	}
	if dst.err != types.EOK {
		c.Cov.Hit(covRenameDstErr)
		errs.Add(dst.err)
	}
	if src.isFile && src.trail {
		// rename("f/", ...) — the source is a file reached with a trailing
		// slash; POSIX and Linux agree on ENOTDIR here.
		c.Cov.Hit(covRenameTrailing)
		errs.Add(types.ENOTDIR)
	}
	if dst.isFile && dst.trail {
		// rename onto "f/" (or "s/" with s a symlink): ENOTDIR on all
		// modelled platforms (observed on Linux; the EEXIST quirk of
		// §7.3.2 applies to link, not rename).
		c.Cov.Hit(covRenameTrailing)
		errs.Add(types.ENOTDIR)
	}
	if dst.none && dst.trail && !src.isDir {
		// Creating a non-directory at "name/" cannot succeed.
		c.Cov.Hit(covRenameTrailing)
		errs.Add(types.ENOENT, types.ENOTDIR)
	}
	if src.isFile && dst.isDir {
		c.Cov.Hit(covRenameKinds)
		errs.Add(types.EISDIR)
	}
	if src.isDir && dst.isFile {
		c.Cov.Hit(covRenameKinds)
		errs.Add(types.ENOTDIR)
	}
	if src.isDir && dst.isDir && dst.hasPar && !c.H.IsEmptyDir(dst.dir) {
		// The Fig 4 example: rename of an empty dir onto a non-empty dir
		// allows EEXIST or ENOTEMPTY (and nothing else — the checker
		// rejects SSHFS's EPERM here, exactly as in the paper).
		c.Cov.Hit(covRenameNonempty)
		errs.Add(types.EEXIST, types.ENOTEMPTY)
	}
	return errs
}

// fsopRenameChecksRoot covers attempts to rename the root directory (or
// rename something onto the root).
func fsopRenameChecksRoot(c *Ctx, src, dst renameEnd) types.ErrnoSet {
	errs := types.NewErrnoSet()
	rootInvolved := (src.isDir && src.dir == c.H.Root) || (dst.isDir && dst.dir == c.H.Root)
	if rootInvolved {
		c.Cov.Hit(covRenameRoot)
		if c.isOSX() {
			// OS X returns EISDIR when renaming the root (§7.3.2); the OS X
			// variant of the model describes the observed behaviour.
			errs.Add(types.EISDIR, types.EBUSY, types.EINVAL)
		} else {
			errs.Add(types.EBUSY, types.EINVAL)
		}
	}
	// Renaming "." or ".." is EINVAL (or EBUSY); these resolve without a
	// parent binding.
	if (src.isDir && src.dotLike && src.err == types.EOK && src.dir != c.H.Root) ||
		(dst.isDir && dst.dotLike && dst.err == types.EOK && dst.dir != c.H.Root) {
		c.Cov.Hit(covRenameRoot)
		errs.Add(types.EINVAL, types.EBUSY)
	}
	return errs
}

// fsopRenameChecksSubdir covers renaming a directory to a subdirectory of
// itself (which would disconnect a cycle).
func fsopRenameChecksSubdir(c *Ctx, src, dst renameEnd) types.ErrnoSet {
	if !src.isDir {
		return none()
	}
	dstParent := dst.parent
	if dst.isDir && dst.hasPar {
		dstParent = dst.parent
	}
	if dst.isDir && src.dir != dst.dir && c.H.IsAncestor(src.dir, dst.dir) {
		c.Cov.Hit(covRenameSubdir)
		return raise(types.EINVAL)
	}
	if (dst.none || dst.isFile) && (dstParent == src.dir || c.H.IsAncestor(src.dir, dstParent)) {
		c.Cov.Hit(covRenameSubdir)
		return raise(types.EINVAL)
	}
	return none()
}

// fsopRenameChecksParentdirs checks that the parents of both ends can still
// be found; it fails only when a disconnected file or directory is involved
// in the rename.
func fsopRenameChecksParentdirs(c *Ctx, src, dst renameEnd) types.ErrnoSet {
	errs := types.NewErrnoSet()
	if src.hasPar {
		if c.H.Dir(src.parent) == nil {
			c.Cov.Hit(covRenameParentdirs)
			errs.Add(types.ENOENT)
		}
	}
	if dst.hasPar || dst.none {
		if c.H.Dir(dst.parent) == nil {
			c.Cov.Hit(covRenameParentdirs)
			errs.Add(types.ENOENT)
		}
	}
	if src.isDir && src.err == types.EOK && !src.hasPar && src.dir != c.H.Root {
		// Source resolved via "."/".." to a (possibly disconnected) dir.
		c.Cov.Hit(covRenameParentdirs)
		errs.Add(types.EINVAL, types.EBUSY, types.ENOENT)
	}
	return errs
}

// fsopRenameChecksPerms checks the permissions involved: write+search on
// both parent directories, plus the sticky-bit restrictions.
func fsopRenameChecksPerms(c *Ctx, src, dst renameEnd) types.ErrnoSet {
	if !c.Spec.Permissions {
		return none()
	}
	// Only meaningful when both ends resolved to workable entries.
	if src.err != types.EOK || src.none || dst.err != types.EOK {
		return none()
	}
	errs := types.NewErrnoSet()
	if src.hasPar {
		if !c.dirAccess(src.parent, types.AccessWrite) || !c.dirAccess(src.parent, types.AccessExec) {
			c.Cov.Hit(covRenamePerms)
			errs.Add(types.EACCES)
		}
		var objUid types.Uid
		if src.isDir {
			objUid = c.H.Dir(src.dir).Uid
		} else if f := c.H.File(src.file); f != nil {
			objUid = f.Uid
		}
		if c.stickyDenies(src.parent, objUid) {
			c.Cov.Hit(covRenamePerms)
			errs.Add(types.EACCES, types.EPERM)
		}
	}
	dstParent, ok := dstParentOf(dst)
	if ok {
		if !c.dirAccess(dstParent, types.AccessWrite) || !c.dirAccess(dstParent, types.AccessExec) {
			c.Cov.Hit(covRenamePerms)
			errs.Add(types.EACCES)
		}
	}
	return errs
}

// fsopRenameChecksDisconnected: moving into an unlinked parent is ENOENT.
func fsopRenameChecksDisconnected(c *Ctx, dst renameEnd) types.ErrnoSet {
	if p, ok := dstParentOf(dst); ok && c.parentGone(p) {
		c.Cov.Hit(covRenameParentdirs)
		return raise(types.ENOENT)
	}
	return none()
}

func dstParentOf(dst renameEnd) (state.DirRef, bool) {
	if dst.none || dst.isFile {
		return dst.parent, true
	}
	if dst.isDir && dst.hasPar {
		return dst.parent, true
	}
	return 0, false
}
