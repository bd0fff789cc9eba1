package fsspec

import (
	"repro/internal/cov"
	"repro/internal/pathres"
	"repro/internal/state"
	"repro/internal/types"
)

var (
	covOpenErr      = cov.Point("fsspec/open/resolve_error")
	covOpenExcl     = cov.Point("fsspec/open/excl_exists")
	covOpenDirWr    = cov.Point("fsspec/open/dir_writable")
	covOpenNofollow = cov.Point("fsspec/open/nofollow_symlink")
	covOpenNotDir   = cov.Point("fsspec/open/o_directory_file")
	covOpenNoEnt    = cov.Point("fsspec/open/missing_no_creat")
	covOpenPerm     = cov.Point("fsspec/open/perm")
	covOpenCreate   = cov.Point("fsspec/open/create")
	covOpenExisting = cov.Point("fsspec/open/existing")
	covOpenDir      = cov.Point("fsspec/open/dir")
	covOpenTrailing = cov.Point("fsspec/open/trailing")
	covOpendirErr   = cov.Point("fsspec/opendir/error")
	covOpendirOk    = cov.Point("fsspec/opendir/ok")
)

// OpenDecision describes the successful behaviour of an open call; the OS
// layer allocates the descriptor and applies the creation/truncation
// effects. Errs non-empty means the call must fail with one of them.
type OpenDecision struct {
	Errs      types.ErrnoSet
	Undefined bool

	// Exactly one of the following success shapes holds when Errs is empty.
	OpenExisting bool
	File         state.FileRef
	OpenDir      bool
	Dir          state.DirRef
	Create       bool
	Parent       state.DirRef
	Name         string
	CreatePerm   types.Perm

	Truncate bool
	Append   bool
	Writable bool
	Readable bool
}

// OpenSpec gives the behaviour of open(path, flags, perm).
func OpenSpec(c *Ctx, cmd types.Open) OpenDecision {
	d := OpenDecision{Errs: types.NewErrnoSet()}
	flags := cmd.Flags
	d.Append = flags.Has(types.OAppend)
	d.Writable = flags.Writable()
	d.Readable = flags.Readable()
	// chkRead/chkWrite drive the permission and directory checks; they can
	// differ from the descriptor's final capabilities for the kernel's
	// accmode 3 below.
	chkRead, chkWrite := d.Readable, d.Writable

	if flags.Has(types.OWronly) && flags.Has(types.ORdwr) {
		// Both access-mode bits set (the kernel's accmode 3): POSIX leaves
		// this undefined; observed Linux behaviour is that the open
		// succeeds — creating and truncating as usual, demanding both read
		// and write permission — but the resulting descriptor permits
		// neither reads nor writes. All variants model the observed
		// behaviour (an allowed choice for an undefined case).
		d.Readable = false
		d.Writable = false
		chkRead, chkWrite = true, true
	}
	if flags.Has(types.OCreat) && flags.Has(types.ODirectory) && c.isLinux() {
		// Linux rejects O_CREAT|O_DIRECTORY with EINVAL before the path is
		// even looked at (observed against the real kernel; POSIX leaves
		// the combination to normal processing — which is what makes the
		// FreeBSD symlink-replacement defect of §7.3.2 observable).
		c.Cov.Hit(covOpenErr)
		d.Errs.Add(types.EINVAL)
		return d
	}

	trailing := len(cmd.Path) > 0 && cmd.Path[len(cmd.Path)-1] == '/' && !allSlashes(cmd.Path)
	if flags.Has(types.OCreat) && trailing && c.isLinux() {
		// Linux refuses creation-style opens of any trailing-slash path
		// with EISDIR, whether or not the path resolves (observed against
		// the real kernel).
		c.Cov.Hit(covOpenTrailing)
		d.Errs.Add(types.EISDIR)
		return d
	}

	follow := pathres.FollowLast
	if flags.Has(types.ONofollow) || (flags.Has(types.OCreat) && flags.Has(types.OExcl)) {
		follow = pathres.NoFollowLast
	}
	if trailing {
		// A trailing slash forces following even under O_NOFOLLOW:
		// open("s/", O_NOFOLLOW) succeeds on Linux when s leads to a
		// directory (observed).
		follow = pathres.FollowLast
	}
	rn := c.Resolve(cmd.Path, follow)

	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covOpenErr)
		d.Errs.Add(r.Err)
		return d

	case pathres.RNDir:
		if flags.Has(types.OCreat) {
			c.Cov.Hit(covOpenExcl)
			// O_CREAT on an existing directory: POSIX says EEXIST (with
			// O_EXCL); Linux reports EISDIR. Both are in the envelope;
			// FreeBSD's ENOTDIR for the symlink-to-directory case
			// (§7.3.2) is a deviation the checker must flag, so it is
			// deliberately not allowed here.
			if flags.Has(types.OExcl) {
				d.Errs.Add(types.EEXIST, types.EISDIR)
			} else {
				d.Errs.Add(types.EISDIR)
			}
			return d
		}
		if chkWrite || flags.Has(types.OTrunc) {
			c.Cov.Hit(covOpenDirWr)
			d.Errs.Add(types.EISDIR)
			return d
		}
		if !c.dirAccess(r.Dir, types.AccessRead) {
			c.Cov.Hit(covOpenPerm)
			d.Errs.Add(types.EACCES)
			return d
		}
		c.Cov.Hit(covOpenDir)
		d.OpenDir = true
		d.Dir = r.Dir
		return d

	case pathres.RNFile:
		if r.IsSymlink {
			// Unfollowed symlink: either O_NOFOLLOW (ELOOP) or
			// O_CREAT|O_EXCL (EEXIST). With O_DIRECTORY as well, Linux
			// reports ENOTDIR in preference to ELOOP (observed).
			switch {
			case flags.Has(types.OCreat) && flags.Has(types.OExcl):
				c.Cov.Hit(covOpenExcl)
				d.Errs.Add(types.EEXIST)
			case flags.Has(types.ODirectory):
				c.Cov.Hit(covOpenNofollow)
				if c.isLinux() {
					d.Errs.Add(types.ENOTDIR)
				} else {
					d.Errs.Add(types.ENOTDIR, types.ELOOP)
				}
			default:
				c.Cov.Hit(covOpenNofollow)
				d.Errs.Add(types.ELOOP)
			}
			return d
		}
		if flags.Has(types.OCreat) && flags.Has(types.OExcl) {
			c.Cov.Hit(covOpenExcl)
			d.Errs.Add(types.EEXIST)
			return d
		}
		if flags.Has(types.ODirectory) {
			c.Cov.Hit(covOpenNotDir)
			d.Errs.Add(types.ENOTDIR)
			return d
		}
		if r.TrailingSlash {
			c.Cov.Hit(covOpenTrailing)
			d.Errs.Add(types.ENOTDIR)
			if flags.Has(types.OCreat) {
				d.Errs.Add(types.EISDIR)
			}
			return d
		}
		perms := Par(
			when(chkRead && !c.fileAccess(r.File, types.AccessRead), types.EACCES),
			when(chkWrite && !c.fileAccess(r.File, types.AccessWrite), types.EACCES),
		)
		if perms.Len() > 0 {
			c.Cov.Hit(covOpenPerm)
			d.Errs.Union(perms)
			return d
		}
		c.Cov.Hit(covOpenExisting)
		d.OpenExisting = true
		d.File = r.File
		// POSIX leaves O_TRUNC|O_RDONLY unspecified; Linux truncates even
		// on read-only opens (observed against the real kernel).
		d.Truncate = flags.Has(types.OTrunc) && (chkWrite || c.isLinux())
		return d

	case pathres.RNNone:
		if !flags.Has(types.OCreat) {
			c.Cov.Hit(covOpenNoEnt)
			d.Errs.Add(types.ENOENT)
			return d
		}
		if r.TrailingSlash {
			c.Cov.Hit(covOpenTrailing)
			// Creating "name/": Linux gives EISDIR, POSIX ENOENT/EISDIR.
			d.Errs.Add(types.EISDIR, types.ENOENT)
			return d
		}
		pe := Par(
			when(!c.dirAccess(r.Parent, types.AccessWrite), types.EACCES),
			when(!c.dirAccess(r.Parent, types.AccessExec), types.EACCES),
			when(c.parentGone(r.Parent), types.ENOENT),
		)
		if pe.Len() > 0 {
			c.Cov.Hit(covOpenPerm)
			d.Errs.Union(pe)
			return d
		}
		c.Cov.Hit(covOpenCreate)
		d.Create = true
		d.Parent = r.Parent
		d.Name = r.Name
		d.CreatePerm = c.effPerm(cmd.Perm)
		return d
	}
	panic("fsspec: unreachable open result")
}

// OpendirSpec gives the behaviour of opendir(path): the path must resolve
// to a directory readable by the caller.
func OpendirSpec(c *Ctx, cmd types.Opendir) (state.DirRef, Result) {
	rn := c.Resolve(cmd.Path, pathres.FollowLast)
	switch r := rn.(type) {
	case pathres.RNError:
		c.Cov.Hit(covOpendirErr)
		return 0, ErrResult(r.Err)
	case pathres.RNNone:
		c.Cov.Hit(covOpendirErr)
		return 0, ErrResult(types.ENOENT)
	case pathres.RNFile:
		c.Cov.Hit(covOpendirErr)
		return 0, ErrResult(types.ENOTDIR)
	case pathres.RNDir:
		if !c.dirAccess(r.Dir, types.AccessRead) {
			c.Cov.Hit(covOpendirErr)
			return 0, ErrResult(types.EACCES)
		}
		c.Cov.Hit(covOpendirOk)
		return r.Dir, OkResult(types.RvNone{}, nil)
	}
	panic("fsspec: unreachable opendir result")
}

// allSlashes reports whether the path consists only of '/' characters.
func allSlashes(p string) bool {
	for i := 0; i < len(p); i++ {
		if p[i] != '/' {
			return false
		}
	}
	return len(p) > 0
}
