package fsspec

import (
	"repro/internal/cov"
	"repro/internal/pathres"
	"repro/internal/state"
	"repro/internal/types"
)

var (
	covMkdirErr      = cov.Point("fsspec/mkdir/resolve_error")
	covMkdirExists   = cov.Point("fsspec/mkdir/exists")
	covMkdirPerm     = cov.Point("fsspec/mkdir/parent_perm")
	covMkdirOk       = cov.Point("fsspec/mkdir/ok")
	covRmdirErr      = cov.Point("fsspec/rmdir/resolve_error")
	covRmdirNotDir   = cov.Point("fsspec/rmdir/not_dir")
	covRmdirNone     = cov.Point("fsspec/rmdir/missing")
	covRmdirRoot     = cov.Point("fsspec/rmdir/root")
	covRmdirDot      = cov.Point("fsspec/rmdir/dot")
	covRmdirNotEmpty = cov.Point("fsspec/rmdir/not_empty")
	covRmdirPerm     = cov.Point("fsspec/rmdir/perm")
	covRmdirSticky   = cov.Point("fsspec/rmdir/sticky")
	covRmdirOk       = cov.Point("fsspec/rmdir/ok")
	covRmdirDisc     = cov.Point("fsspec/rmdir/disconnected")
)

// MkdirSpec gives the behaviour of mkdir(path, perm).
func MkdirSpec(c *Ctx, cmd types.Mkdir) Result {
	rn := c.Resolve(cmd.Path, pathres.NoFollowLast)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covMkdirErr)
		return ErrResult(r.Err)
	case pathres.RNDir:
		c.Cov.Hit(covMkdirExists)
		return ErrResult(types.EEXIST)
	case pathres.RNFile:
		c.Cov.Hit(covMkdirExists)
		if r.TrailingSlash && !r.IsSymlink {
			// "f/" where f is a file: POSIX wants ENOTDIR; Linux returns
			// EEXIST for mkdir. Keep the envelope loose for both.
			return ErrResult(types.EEXIST, types.ENOTDIR)
		}
		return ErrResult(types.EEXIST)
	case pathres.RNNone:
		errs := Par(
			when(!c.dirAccess(r.Parent, types.AccessWrite), types.EACCES),
			when(!c.dirAccess(r.Parent, types.AccessExec), types.EACCES),
			when(c.parentGone(r.Parent), types.ENOENT),
		)
		if errs.Len() > 0 {
			c.Cov.Hit(covMkdirPerm)
		} else {
			c.Cov.Hit(covMkdirOk)
		}
		parent, name, perm := r.Parent, r.Name, c.effPerm(cmd.Perm)
		uid, gid := c.Euid, c.Egid
		return finish(errs, Outcome{
			Ret: types.RvNone{},
			Apply: func(h *state.Heap) {
				nd := h.AllocDir(parent, perm, uid, gid)
				h.LinkDir(parent, name, nd)
			},
		})
	}
	panic("fsspec: unreachable mkdir result")
}

// RmdirSpec gives the behaviour of rmdir(path).
func RmdirSpec(c *Ctx, cmd types.Rmdir) Result {
	rn := c.Resolve(cmd.Path, pathres.NoFollowLast)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covRmdirErr)
		return ErrResult(r.Err)
	case pathres.RNFile:
		c.Cov.Hit(covRmdirNotDir)
		return ErrResult(types.ENOTDIR)
	case pathres.RNNone:
		c.Cov.Hit(covRmdirNone)
		return ErrResult(types.ENOENT)
	case pathres.RNDir:
		h := c.H
		if r.Dir == h.Root {
			c.Cov.Hit(covRmdirRoot)
			// Removing the root: POSIX allows EBUSY; Linux returns EBUSY,
			// OS X EBUSY or EINVAL. Keep both in the envelope.
			return ErrResult(types.EBUSY, types.EINVAL)
		}
		if !r.HasParent {
			// The path resolved via "." or "..": rmdir(".") is EINVAL per
			// POSIX; a disconnected directory gives ENOENT.
			if !h.IsConnected(r.Dir) {
				c.Cov.Hit(covRmdirDisc)
				return ErrResult(types.ENOENT, types.EINVAL)
			}
			c.Cov.Hit(covRmdirDot)
			return ErrResult(types.EINVAL, types.ENOTEMPTY, types.EBUSY)
		}
		dirObj := h.Dir(r.Dir)
		errs := Par(
			func() types.ErrnoSet {
				if !h.IsEmptyDir(r.Dir) {
					c.Cov.Hit(covRmdirNotEmpty)
					// POSIX allows either ENOTEMPTY or EEXIST here.
					return raise(types.ENOTEMPTY, types.EEXIST)
				}
				return none()
			},
			when(!c.dirAccess(r.Parent, types.AccessWrite), types.EACCES),
			when(!c.dirAccess(r.Parent, types.AccessExec), types.EACCES),
			func() types.ErrnoSet {
				if c.stickyDenies(r.Parent, dirObj.Uid) {
					c.Cov.Hit(covRmdirSticky)
					return raise(types.EACCES, types.EPERM)
				}
				return none()
			},
		)
		if errs.Has(types.EACCES) || errs.Has(types.EPERM) {
			c.Cov.Hit(covRmdirPerm)
		}
		if errs.Len() == 0 {
			c.Cov.Hit(covRmdirOk)
		}
		parent, name := r.Parent, r.Name
		return finish(errs, Outcome{
			Ret: types.RvNone{},
			Apply: func(h *state.Heap) {
				h.UnlinkDir(parent, name)
			},
		})
	}
	panic("fsspec: unreachable rmdir result")
}
