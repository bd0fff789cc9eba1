package fsspec

import (
	"repro/internal/cov"
	"repro/internal/pathres"
	"repro/internal/state"
	"repro/internal/types"
)

// Ctx carries everything command evaluation needs: the spec variant, the
// heap, the calling process's view (cwd, umask, credentials) and the
// evaluation's coverage set. It is built by the OS layer for each
// transition.
type Ctx struct {
	Spec     types.Spec
	H        *state.Heap
	Cwd      state.DirRef
	CwdValid bool
	Umask    types.Perm
	Euid     types.Uid
	Egid     types.Gid
	// InGroup reports supplementary group membership; nil means only the
	// primary gid counts.
	InGroup func(types.Uid, types.Gid) bool
	// Cov records the coverage points the evaluation hits; nil records
	// nothing.
	Cov *cov.Set
}

// Outcome is one allowed successful behaviour: the value returned and the
// state mutation it entails. Apply operates on whichever heap the checker
// chooses to advance (references are stable across clones), and may be nil
// for read-only commands.
type Outcome struct {
	Ret   types.RetValue
	Apply func(h *state.Heap)
}

// Result is the finite set of allowed behaviours of one command in one
// state: error returns (which never change the state — the paper's proved
// invariant) plus successful outcomes. Undefined marks POSIX
// undefined/unspecified behaviour ("special states"): any observation is
// allowed.
type Result struct {
	Errors    types.ErrnoSet
	Oks       []Outcome
	Undefined bool
}

// ErrResult builds a Result allowing exactly the given errors.
func ErrResult(es ...types.Errno) Result {
	return Result{Errors: types.NewErrnoSet(es...)}
}

// OkResult builds a Result with a single successful outcome.
func OkResult(rv types.RetValue, apply func(h *state.Heap)) Result {
	return Result{Errors: types.NewErrnoSet(), Oks: []Outcome{{Ret: rv, Apply: apply}}}
}

// UndefinedResult marks implementation-defined / undefined behaviour.
func UndefinedResult() Result { return Result{Undefined: true} }

// Check is one conceptual check a command performs; it returns the set of
// errors the check may raise (empty when the check passes). Checks are pure.
type Check func() types.ErrnoSet

// Par is the parallel combinator ||| of Fig 6: the checks are conceptually
// carried out in parallel and the resulting error may come from any of
// them, with no priority between the individual checks.
func Par(checks ...Check) types.ErrnoSet {
	u := types.NewErrnoSet()
	for _, c := range checks {
		u.Union(c())
	}
	return u
}

// none is the passing check result.
func none() types.ErrnoSet { return types.NewErrnoSet() }

// raise builds a failing check result.
func raise(es ...types.Errno) types.ErrnoSet { return types.NewErrnoSet(es...) }

// when returns a check that raises the given errors iff cond holds.
func when(cond bool, es ...types.Errno) Check {
	return func() types.ErrnoSet {
		if cond {
			return raise(es...)
		}
		return none()
	}
}

// finish turns an accumulated error set into a Result: if any check raised,
// the command must return one of the raised errors; otherwise the success
// outcome applies.
func finish(errs types.ErrnoSet, ok Outcome) Result {
	if errs.Len() > 0 {
		return Result{Errors: errs}
	}
	return Result{Errors: types.NewErrnoSet(), Oks: []Outcome{ok}}
}

// Resolve runs path resolution with this context's heap, cwd and
// permissions trait.
func (c *Ctx) Resolve(path string, follow pathres.Follow) pathres.ResName {
	var exec pathres.ExecChecker
	if c.Spec.Permissions {
		exec = execChecker{c}
	}
	return pathres.Resolve(pathres.Request{
		Heap:     c.H,
		Cwd:      c.Cwd,
		CwdValid: c.CwdValid,
		Path:     path,
		Follow:   follow,
		Platform: c.Spec.Platform,
		Exec:     exec,
	})
}

// execChecker adapts the permissions trait to path resolution's search
// checks.
type execChecker struct{ c *Ctx }

func (e execChecker) MayExec(h *state.Heap, d state.DirRef) bool {
	dir := h.Dir(d)
	if dir == nil {
		return false
	}
	return e.c.Access(dir.Uid, dir.Gid, dir.Perm, types.AccessExec)
}

// Access implements the permissions trait's core algorithm: owner / group /
// other class selection then mode-bit test, with a root bypass. With the
// trait disabled every access is allowed ("core without permissions").
func (c *Ctx) Access(uid types.Uid, gid types.Gid, perm types.Perm, req types.AccessRequest) bool {
	if !c.Spec.Permissions {
		return true
	}
	if c.Euid == types.RootUid {
		return true
	}
	class := 2 // other
	switch {
	case uid == c.Euid:
		class = 0
	case gid == c.Egid || (c.InGroup != nil && c.InGroup(c.Euid, gid)):
		class = 1
	}
	return perm&req.Mask(class) != 0
}

// dirAccess checks an access request against a directory object.
func (c *Ctx) dirAccess(d state.DirRef, req types.AccessRequest) bool {
	dir := c.H.Dir(d)
	if dir == nil {
		return false
	}
	return c.Access(dir.Uid, dir.Gid, dir.Perm, req)
}

// fileAccess checks an access request against a file object.
func (c *Ctx) fileAccess(f state.FileRef, req types.AccessRequest) bool {
	fl := c.H.File(f)
	if fl == nil {
		return false
	}
	return c.Access(fl.Uid, fl.Gid, fl.Perm, req)
}

// stickyDenies implements the sticky-bit restriction on unlink/rename/rmdir
// within a sticky parent: a non-root caller must own either the parent or
// the object being removed.
func (c *Ctx) stickyDenies(parent state.DirRef, objUid types.Uid) bool {
	if !c.Spec.Permissions || c.Euid == types.RootUid {
		return false
	}
	d := c.H.Dir(parent)
	if d == nil {
		return false
	}
	if d.Perm&types.PermISVTX == 0 {
		return false
	}
	return c.Euid != d.Uid && c.Euid != objUid
}

// effPerm applies the process umask to a requested creation mode.
func (c *Ctx) effPerm(p types.Perm) types.Perm {
	return (p &^ c.Umask) & types.PermMask
}

// parentGone reports whether the would-be parent directory has been
// unlinked from the tree: creating entries in a disconnected directory
// fails ENOENT on all modelled platforms (the conforming behaviour that the
// Fig 8 OpenZFS defect violates by spinning instead).
func (c *Ctx) parentGone(d state.DirRef) bool {
	if c.H.Dir(d) == nil {
		return true
	}
	return !c.H.IsConnected(d)
}

// isLinux, isOSX etc. shorten platform dispatch in the command files.
func (c *Ctx) isLinux() bool   { return c.Spec.Platform == types.PlatformLinux }
func (c *Ctx) isOSX() bool     { return c.Spec.Platform == types.PlatformOSX }
func (c *Ctx) isFreeBSD() bool { return c.Spec.Platform == types.PlatformFreeBSD }
func (c *Ctx) isPOSIX() bool   { return c.Spec.Platform == types.PlatformPOSIX }
