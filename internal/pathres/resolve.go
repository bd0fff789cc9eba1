package pathres

import (
	"strings"

	"repro/internal/state"
	"repro/internal/types"
)

// ResName is the result of path resolution (res_name in the paper): a
// sealed interface with the four constructors RN_dir, RN_file, RN_none and
// RN_error.
type ResName interface{ isResName() }

// RNDir means the path resolved to a directory.
type RNDir struct {
	Dir state.DirRef
	// Parent and Name locate the entry binding the directory, when the
	// directory was reached through a parent (rename and rmdir need this).
	// HasParent is false for the root and for "." / ".." results.
	Parent    state.DirRef
	Name      string
	HasParent bool
}

// RNFile means the path resolved to a non-directory file.
type RNFile struct {
	Parent state.DirRef
	Name   string
	File   state.FileRef
	// TrailingSlash records that the original path had a trailing slash;
	// command semantics decide what error (if any) that produces, because
	// platforms disagree (§7.3.2 "Path resolution, trailing slashes").
	TrailingSlash bool
	// IsSymlink is set when the entry is an unfollowed symlink.
	IsSymlink bool
}

// RNNone means the final component does not exist in an existing parent
// directory (the useful case for mkdir, open O_CREAT, symlink, rename dst).
type RNNone struct {
	Parent        state.DirRef
	Name          string
	TrailingSlash bool
}

// RNError means resolution failed.
type RNError struct{ Err types.Errno }

func (RNDir) isResName()   {}
func (RNFile) isResName()  {}
func (RNNone) isResName()  {}
func (RNError) isResName() {}

// Follow is the follow-last-symlink policy, determined per command (and,
// for open, per flag set) by the caller.
type Follow int

// Follow policies.
const (
	FollowLast   Follow = iota // stat, open without O_NOFOLLOW, chdir, truncate, ...
	NoFollowLast               // lstat, unlink, readlink, rename, symlink, mkdir, ...
)

// ExecChecker is how the permissions trait hooks into resolution: every
// directory traversed needs search (execute) permission. A nil checker
// disables the checks ("core without permissions").
type ExecChecker interface {
	MayExec(h *state.Heap, d state.DirRef) bool
}

// Request carries the inputs of one resolution.
type Request struct {
	Heap     *state.Heap
	Cwd      state.DirRef
	CwdValid bool // false once the cwd has been unlinked (disconnected)
	Path     string
	Follow   Follow
	Platform types.Platform
	Exec     ExecChecker
}

// Resolve performs path resolution. It is a pure function of the request:
// it never modifies the heap.
func Resolve(req Request) ResName {
	r := &resolver{req: req, depth: 0}
	return r.run()
}

type resolver struct {
	req   Request
	depth int // symlink expansions so far
}

func (r *resolver) run() ResName {
	p := r.req.Path
	if p == "" {
		return RNError{Err: types.ENOENT}
	}
	if len(p) > types.PathMax {
		return RNError{Err: types.ENAMETOOLONG}
	}
	start := r.req.Cwd
	if strings.HasPrefix(p, "/") {
		start = r.req.Heap.Root
	} else {
		cwdOK := r.req.CwdValid &&
			(start == r.req.Heap.Root || r.req.Heap.IsConnected(start))
		if !cwdOK {
			// Relative resolution from a deleted working directory: the
			// kernel can no longer walk from it by name; Linux returns
			// ENOENT. "." may still resolve to the disconnected dir.
			comps, _ := splitPath(p)
			if len(comps) > 0 && comps[0] != "." {
				return RNError{Err: types.ENOENT}
			}
		}
	}
	comps, trailing := splitPath(p)
	if p == "/" || onlySlashes(p) {
		return RNDir{Dir: r.req.Heap.Root}
	}
	return r.walk(start, comps, trailing)
}

// splitPath returns the path components (with "." and ".." preserved) and
// whether the path had a trailing slash. Repeated slashes collapse; POSIX
// makes exactly two leading slashes implementation-defined and all modelled
// platforms treat them as one.
// The components are counted first, so the slice is the only allocation
// (none for a path without components).
func splitPath(p string) (comps []string, trailing bool) {
	trailing = strings.HasSuffix(p, "/") && !onlySlashes(p)
	n := 0
	for i := 0; i < len(p); i++ {
		if p[i] != '/' && (i == 0 || p[i-1] == '/') {
			n++
		}
	}
	if n == 0 {
		return nil, trailing
	}
	comps = make([]string, 0, n)
	for i := 0; i < len(p); {
		if p[i] == '/' {
			i++
			continue
		}
		j := i + 1
		for j < len(p) && p[j] != '/' {
			j++
		}
		comps = append(comps, p[i:j])
		i = j
	}
	return comps, trailing
}

func onlySlashes(p string) bool {
	for i := 0; i < len(p); i++ {
		if p[i] != '/' {
			return false
		}
	}
	return len(p) > 0
}

// walk resolves comps starting at dir. trailing applies to the final
// component only.
func (r *resolver) walk(dir state.DirRef, comps []string, trailing bool) ResName {
	h := r.req.Heap
	for i := 0; i < len(comps); i++ {
		c := comps[i]
		last := i == len(comps)-1
		if len(c) > types.NameMax {
			return RNError{Err: types.ENAMETOOLONG}
		}
		if r.req.Exec != nil && !r.req.Exec.MayExec(h, dir) {
			return RNError{Err: types.EACCES}
		}
		switch c {
		case ".":
			if last {
				return RNDir{Dir: dir}
			}
			continue
		case "..":
			d := h.Dir(dir)
			if d == nil {
				return RNError{Err: types.ENOENT}
			}
			if dir != h.Root && !h.IsConnected(dir) {
				// ".." from a disconnected directory cannot be resolved by
				// walking the tree; all modelled platforms fail.
				return RNError{Err: types.ENOENT}
			}
			dir = d.Parent
			if last {
				return RNDir{Dir: dir}
			}
			continue
		}
		e, ok := h.Lookup(dir, c)
		if !ok {
			if last {
				return RNNone{Parent: dir, Name: c, TrailingSlash: trailing}
			}
			return RNError{Err: types.ENOENT}
		}
		switch e.Kind {
		case state.EntryDir:
			if last {
				return RNDir{Dir: e.Dir, Parent: dir, Name: c, HasParent: true}
			}
			dir = e.Dir
		case state.EntrySymlink:
			// A trailing slash does NOT force following for no-follow
			// commands (unlink("s/") is ENOTDIR on Linux, not an operation
			// on the target); commands where it does (open, lstat,
			// readlink) select FollowLast themselves.
			follow := !last || r.req.Follow == FollowLast
			if !follow {
				return RNFile{
					Parent: dir, Name: c, File: e.File,
					TrailingSlash: trailing, IsSymlink: true,
				}
			}
			res := r.expandSymlink(dir, e.File, comps[i+1:], last, trailing)
			return res
		case state.EntryFile:
			if !last {
				return RNError{Err: types.ENOTDIR}
			}
			return RNFile{Parent: dir, Name: c, File: e.File, TrailingSlash: trailing}
		}
	}
	return RNDir{Dir: dir}
}

// expandSymlink splices the symlink target in front of the remaining
// components and continues the walk, enforcing the platform's ELOOP limit.
func (r *resolver) expandSymlink(dir state.DirRef, link state.FileRef, rest []string, last, trailing bool) ResName {
	r.depth++
	if r.depth > r.req.Platform.SymlinkLimit() {
		return RNError{Err: types.ELOOP}
	}
	h := r.req.Heap
	f := h.File(link)
	if f == nil || !f.IsSymlink {
		return RNError{Err: types.ENOENT}
	}
	target := string(f.Bytes)
	if target == "" {
		return RNError{Err: types.ENOENT}
	}
	start := dir
	if strings.HasPrefix(target, "/") {
		start = h.Root
	}
	tcomps, ttrail := splitPath(target)
	if onlySlashes(target) {
		// Symlink to "/": continue from the root.
		if len(rest) == 0 {
			return RNDir{Dir: h.Root}
		}
		return r.walk(h.Root, rest, trailing)
	}
	// A trailing slash applies if the symlink was the last component and the
	// original path (or the target itself) ended in a slash.
	comps := append(append([]string(nil), tcomps...), rest...)
	finalTrailing := trailing
	if len(rest) > 0 {
		finalTrailing = trailing
	} else {
		finalTrailing = trailing || ttrail
	}
	if len(comps) == 0 {
		return RNDir{Dir: start}
	}
	return r.walk(start, comps, finalTrailing)
}

// ErrOf extracts the error from an RNError, or EOK for other results.
func ErrOf(rn ResName) types.Errno {
	if e, ok := rn.(RNError); ok {
		return e.Err
	}
	return types.EOK
}
