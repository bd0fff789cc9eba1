package state

import (
	"sort"

	"repro/internal/types"
)

// DirRef identifies a directory in the heap (dh_dir_ref in the paper).
type DirRef int

// FileRef identifies a file in the heap (dh_file_ref).
type FileRef int

// EntryKind distinguishes what a directory entry points at.
type EntryKind int

// Directory entries point at files, subdirectories, or symlinks. Symlinks
// are stored as files whose contents are the link target, flagged as
// symlinks in the entry and in the file metadata.
const (
	EntryFile EntryKind = iota
	EntryDir
	EntrySymlink
)

// Entry is one name→object binding inside a directory.
type Entry struct {
	Kind EntryKind
	File FileRef // valid when Kind is EntryFile or EntrySymlink
	Dir  DirRef  // valid when Kind is EntryDir
}

// cowTok is an ownership token: an object is mutable in place exactly when
// its owner pointer equals the heap's current token. Freezing (or cloning)
// a heap drops its token, so every surviving reference copies on write.
type cowTok struct{ _ byte }

// Dir is the model of a directory: a finite map from names to entries plus
// the metadata the permissions and stat traits need. Parent supports ".."
// resolution; the root's parent is itself. Mutate only through MutDir.
type Dir struct {
	Entries map[string]Entry
	Parent  DirRef
	Perm    types.Perm
	Uid     types.Uid
	Gid     types.Gid

	owner *cowTok
	hv    uint64 // memoised heap-hash contribution (valid when hvOK)
	hvOK  bool
}

// File is the model of a non-directory file: a byte array plus metadata.
// Symlink files carry IsSymlink=true and store the target path in Bytes.
// Mutate only through MutFile.
type File struct {
	Bytes     []byte
	Nlink     int
	IsSymlink bool
	Perm      types.Perm
	Uid       types.Uid
	Gid       types.Gid

	owner *cowTok
	hv    uint64
	hvOK  bool
}

// Heap is dir_heap_state_fs: the finite maps from references to objects,
// plus the distinguished root.
type Heap struct {
	dirs  map[DirRef]*Dir
	files map[FileRef]*File
	Root  DirRef

	nextDir  DirRef
	nextFile FileRef

	tok       *cowTok // nil: this heap owns no objects (fresh clone / frozen)
	ownsDirs  bool
	ownsFiles bool
	frozen    bool

	// hash is the XOR of the contributions of every object NOT in a dirty
	// set; flushHash folds the dirty objects back in. Incremental: a
	// mutation XORs the object's old contribution out once and defers the
	// new contribution to the next flush.
	hash       uint64
	dirtyDirs  []DirRef
	dirtyFiles []FileRef
}

// NewHeap returns a heap containing only an empty root directory owned by
// root:root with mode 0o755, matching the paper's empty initial file system.
func NewHeap() *Heap {
	h := &Heap{
		dirs:      make(map[DirRef]*Dir),
		files:     make(map[FileRef]*File),
		Root:      1,
		nextDir:   2,
		nextFile:  1,
		tok:       &cowTok{},
		ownsDirs:  true,
		ownsFiles: true,
	}
	h.dirs[h.Root] = &Dir{
		Entries: make(map[string]Entry),
		Parent:  h.Root,
		Perm:    0o755,
		Uid:     types.RootUid,
		Gid:     types.RootGid,
		owner:   h.tok,
	}
	h.markDirtyDir(h.Root)
	return h
}

// Clone shares the heap copy-on-write: O(1), no object is copied until one
// side writes. The source is frozen first (it gives up in-place mutation
// rights), so cloning a frozen heap is a pure read — the checker relies on
// that when a snapshot hands one state to many traces.
func (h *Heap) Clone() *Heap {
	c := new(Heap)
	h.CloneInto(c)
	return c
}

// CloneInto is Clone into caller-provided storage, overwriting dst: a
// caller that allocates the heap together with its own state (the OS
// layer's clones) pays one allocation for both.
func (h *Heap) CloneInto(dst *Heap) {
	h.Freeze()
	*dst = Heap{
		dirs:     h.dirs,
		files:    h.files,
		Root:     h.Root,
		nextDir:  h.nextDir,
		nextFile: h.nextFile,
		hash:     h.hash,
	}
}

// Freeze flushes the incremental hash and relinquishes object ownership so
// every future mutation (on this heap or any clone) copies on write.
// Idempotent; a frozen heap is safe for concurrent readers and cloners.
func (h *Heap) Freeze() {
	if h.frozen {
		return
	}
	h.flushHash()
	h.tok = nil
	h.ownsDirs, h.ownsFiles = false, false
	h.frozen = true
}

// Written reports whether the heap may have changed since it was last
// cloned or frozen: any write takes an ownership token or private
// tables first. A false answer means it still holds exactly its
// source's objects.
func (h *Heap) Written() bool { return h.tok != nil || h.ownsDirs || h.ownsFiles }

// ensureTok gives the heap an ownership token for newly written objects.
func (h *Heap) ensureTok() *cowTok {
	if h.tok == nil {
		h.tok = &cowTok{}
	}
	return h.tok
}

// ensureDirs makes the ref→directory table private to this heap (a
// shallow, pointers-only copy) so structural changes don't leak into
// clones. The file table is copied separately (ensureFiles): a write to
// one kind of object never pays for copying the other's table.
func (h *Heap) ensureDirs() {
	if h.ownsDirs {
		return
	}
	dirs := make(map[DirRef]*Dir, len(h.dirs)+1)
	for r, d := range h.dirs {
		dirs[r] = d
	}
	h.dirs = dirs
	h.ownsDirs = true
	h.frozen = false
}

// ensureFiles is ensureDirs for the ref→file table.
func (h *Heap) ensureFiles() {
	if h.ownsFiles {
		return
	}
	files := make(map[FileRef]*File, len(h.files)+1)
	for r, f := range h.files {
		files[r] = f
	}
	h.files = files
	h.ownsFiles = true
	h.frozen = false
}

// Dir returns the directory object for r, or nil. The result is read-only:
// use MutDir to change it.
func (h *Heap) Dir(r DirRef) *Dir { return h.dirs[r] }

// File returns the file object for r, or nil. Read-only; use MutFile.
func (h *Heap) File(r FileRef) *File { return h.files[r] }

// NumDirs reports the number of directory objects (including disconnected
// ones).
func (h *Heap) NumDirs() int { return len(h.dirs) }

// NumFiles reports the number of file objects.
func (h *Heap) NumFiles() int { return len(h.files) }

// SortedDirRefs returns every directory reference in ascending order.
func (h *Heap) SortedDirRefs() []DirRef {
	out := make([]DirRef, 0, len(h.dirs))
	for r := range h.dirs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedFileRefs returns every file reference in ascending order.
func (h *Heap) SortedFileRefs() []FileRef {
	out := make([]FileRef, 0, len(h.files))
	for r := range h.files {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MutDir returns a directory object that is safe to mutate: the object is
// copied first unless this heap exclusively owns it, and its contribution
// is retired from the incremental hash until the next flush.
func (h *Heap) MutDir(r DirRef) *Dir {
	d := h.dirs[r]
	if d == nil {
		return nil
	}
	h.unhashDir(r, d)
	if h.tok == nil || d.owner != h.tok {
		h.ensureDirs()
		entries := make(map[string]Entry, len(d.Entries))
		for n, e := range d.Entries {
			entries[n] = e
		}
		nd := &Dir{
			Entries: entries,
			Parent:  d.Parent,
			Perm:    d.Perm,
			Uid:     d.Uid,
			Gid:     d.Gid,
			owner:   h.ensureTok(),
		}
		h.dirs[r] = nd
		return nd
	}
	d.hvOK = false
	return d
}

// MutFile is MutDir for file objects.
func (h *Heap) MutFile(r FileRef) *File {
	f := h.files[r]
	if f == nil {
		return nil
	}
	h.unhashFile(r, f)
	if h.tok == nil || f.owner != h.tok {
		h.ensureFiles()
		nf := &File{
			Bytes:     append([]byte(nil), f.Bytes...),
			Nlink:     f.Nlink,
			IsSymlink: f.IsSymlink,
			Perm:      f.Perm,
			Uid:       f.Uid,
			Gid:       f.Gid,
			owner:     h.ensureTok(),
		}
		h.files[r] = nf
		return nf
	}
	f.hvOK = false
	return f
}

// AllocDir creates a fresh, empty, unlinked directory and returns its
// reference. The caller links it into a parent (or leaves it disconnected).
func (h *Heap) AllocDir(parent DirRef, perm types.Perm, uid types.Uid, gid types.Gid) DirRef {
	h.ensureDirs()
	r := h.nextDir
	h.nextDir++
	h.dirs[r] = &Dir{
		Entries: make(map[string]Entry),
		Parent:  parent,
		Perm:    perm,
		Uid:     uid,
		Gid:     gid,
		owner:   h.ensureTok(),
	}
	h.markDirtyDir(r)
	return r
}

// AllocFile creates a fresh empty file with link count zero.
func (h *Heap) AllocFile(perm types.Perm, uid types.Uid, gid types.Gid) FileRef {
	h.ensureFiles()
	r := h.nextFile
	h.nextFile++
	h.files[r] = &File{Nlink: 0, Perm: perm, Uid: uid, Gid: gid, owner: h.ensureTok()}
	h.markDirtyFile(r)
	return r
}

// AllocSymlink creates a symlink file whose contents are the target path.
// Symlink permissions are platform-dependent (0o777 on Linux); the caller
// supplies them.
func (h *Heap) AllocSymlink(target string, perm types.Perm, uid types.Uid, gid types.Gid) FileRef {
	r := h.AllocFile(perm, uid, gid)
	f := h.files[r] // freshly allocated: owned and dirty, mutable in place
	f.Bytes = []byte(target)
	f.IsSymlink = true
	return r
}

// Lookup returns the entry bound to name in dir.
func (h *Heap) Lookup(dir DirRef, name string) (Entry, bool) {
	d := h.dirs[dir]
	if d == nil {
		return Entry{}, false
	}
	e, ok := d.Entries[name]
	return e, ok
}

// LinkFile binds name in dir to the file f and bumps its link count.
func (h *Heap) LinkFile(dir DirRef, name string, f FileRef) {
	kind := EntryFile
	if h.files[f].IsSymlink {
		kind = EntrySymlink
	}
	h.MutDir(dir).Entries[name] = Entry{Kind: kind, File: f}
	h.MutFile(f).Nlink++
}

// UnlinkFile removes the binding of name in dir and decrements the file's
// link count. Files with zero links and no open descriptors are garbage
// collected by the OS layer, not here: the heap permits disconnected files.
func (h *Heap) UnlinkFile(dir DirRef, name string) {
	d := h.MutDir(dir)
	e := d.Entries[name]
	delete(d.Entries, name)
	if f := h.MutFile(e.File); f != nil {
		f.Nlink--
	}
}

// LinkDir binds name in dir to the directory sub and reparents it.
func (h *Heap) LinkDir(dir DirRef, name string, sub DirRef) {
	h.MutDir(dir).Entries[name] = Entry{Kind: EntryDir, Dir: sub}
	h.MutDir(sub).Parent = dir
}

// UnlinkDir removes the binding of name in dir. The subdirectory object
// survives, disconnected, which is exactly what the Fig 8 OpenZFS scenario
// (rmdir of the current working directory) requires.
func (h *Heap) UnlinkDir(dir DirRef, name string) {
	delete(h.MutDir(dir).Entries, name)
}

// FreeFile removes a file object from the heap. Called by the OS layer
// when the last link and last open descriptor are gone.
func (h *Heap) FreeFile(f FileRef) {
	fl := h.files[f]
	if fl == nil {
		return
	}
	if i, dirty := h.dirtyFile(f); dirty {
		h.dirtyFiles = append(h.dirtyFiles[:i], h.dirtyFiles[i+1:]...)
	} else {
		h.hash ^= fileContrib(f, fl)
	}
	h.ensureFiles()
	delete(h.files, f)
}

// EntryNames returns the names in dir in sorted order (sorting only for
// deterministic iteration in the Go implementation; the model makes no
// ordering promise — readdir ordering nondeterminism is handled by the
// must/may machinery in the OS layer).
func (h *Heap) EntryNames(dir DirRef) []string {
	d := h.dirs[dir]
	if d == nil {
		return nil
	}
	names := make([]string, 0, len(d.Entries))
	for n := range d.Entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IsEmptyDir reports whether dir has no entries.
func (h *Heap) IsEmptyDir(dir DirRef) bool {
	d := h.dirs[dir]
	return d != nil && len(d.Entries) == 0
}

// IsAncestor reports whether a is a proper ancestor of b in the current
// tree (used by rename's subdirectory check).
func (h *Heap) IsAncestor(a, b DirRef) bool {
	if a == b {
		return false
	}
	cur := b
	for {
		d := h.dirs[cur]
		if d == nil {
			return false
		}
		if d.Parent == cur {
			return false // reached root (or a disconnected self-parent)
		}
		cur = d.Parent
		if cur == a {
			return true
		}
	}
}

// IsConnected reports whether dir is reachable from the root by walking
// parents. Disconnected directories (rmdir'd while open or while being a
// process's cwd) report false.
func (h *Heap) IsConnected(dir DirRef) bool {
	seen := make(map[DirRef]bool)
	cur := dir
	for {
		if cur == h.Root {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		d := h.dirs[cur]
		if d == nil || d.Parent == cur {
			return false
		}
		// The parent must actually still contain this directory; after
		// UnlinkDir the child keeps a stale Parent pointer.
		p := h.dirs[d.Parent]
		if p == nil {
			return false
		}
		found := false
		for _, e := range p.Entries {
			if e.Kind == EntryDir && e.Dir == cur {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		cur = d.Parent
	}
}

// DirLinkCount computes the POSIX st_nlink of a directory: 2 (self "." and
// the parent's entry) plus one per subdirectory ("..") — the convention the
// paper's "core behaviour" survey checks (Btrfs does not maintain it).
func (h *Heap) DirLinkCount(dir DirRef) int {
	d := h.dirs[dir]
	if d == nil {
		return 0
	}
	n := 2
	for _, e := range d.Entries {
		if e.Kind == EntryDir {
			n++
		}
	}
	return n
}

// NameOfDirIn finds the name under which child is linked in parent.
func (h *Heap) NameOfDirIn(parent, child DirRef) (string, bool) {
	p := h.dirs[parent]
	if p == nil {
		return "", false
	}
	for n, e := range p.Entries {
		if e.Kind == EntryDir && e.Dir == child {
			return n, true
		}
	}
	return "", false
}
