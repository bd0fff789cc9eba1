package state

// Hash-consing support: every Dir/File memoises a 64-bit contribution
// (a mix of its reference and its semantic content — exactly the fields
// the checker's state fingerprint renders), and the heap XORs the
// contributions together. XOR makes the fold order-free, so no sorting is
// needed, and incremental: retiring one object's old value and folding in
// its new one are both O(1) once the per-object hash is known.
//
// Hashes are an accelerator, not an identity: the checker buckets states
// by hash and confirms with the structural HeapEqual/StateEqual, so a
// collision can never merge two semantically distinct states.

// Seeds distinguishing the object kinds and field groups, so e.g. a file
// and a directory with the same numeric fields cannot cancel.
const (
	seedDir   = 0xd6e8feb86659fd93
	seedFile  = 0xa2f9b1d28e3c7a41
	seedEntry = 0x9e3779b97f4a7c15
)

// fmix64 is the splitmix64 finaliser: a cheap bijective scrambler.
func fmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix folds v into h (order-sensitive).
func Mix(h, v uint64) uint64 {
	return fmix64(h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// HashBytes is FNV-1a 64 over b, seeded.
func HashBytes(seed uint64, b []byte) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// HashString is HashBytes for strings without allocation.
func HashString(seed uint64, s string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// dirContent hashes a directory's semantic content together with its ref.
func dirContent(r DirRef, d *Dir) uint64 {
	hashComputes.Add(1)
	v := Mix(seedDir, uint64(r))
	v = Mix(v, uint64(d.Parent))
	v = Mix(v, uint64(d.Perm))
	v = Mix(v, uint64(d.Uid))
	v = Mix(v, uint64(d.Gid))
	var es uint64
	for n, e := range d.Entries {
		ev := HashString(seedEntry, n)
		ev = Mix(ev, uint64(e.Kind))
		ev = Mix(ev, uint64(e.File))
		ev = Mix(ev, uint64(e.Dir))
		es ^= fmix64(ev)
	}
	return fmix64(Mix(v, es))
}

// fileContent hashes a file's semantic content together with its ref.
func fileContent(r FileRef, f *File) uint64 {
	hashComputes.Add(1)
	v := Mix(seedFile, uint64(r))
	v = Mix(v, uint64(f.Nlink))
	v = Mix(v, b2u(f.IsSymlink))
	v = Mix(v, uint64(f.Perm))
	v = Mix(v, uint64(f.Uid))
	v = Mix(v, uint64(f.Gid))
	v = Mix(v, HashBytes(seedFile, f.Bytes))
	return fmix64(v)
}

// dirContrib returns (and caches, when this heap owns the object) the
// directory's heap-hash contribution.
func (h *Heap) dirContrib(r DirRef, d *Dir) uint64 {
	if d.hvOK {
		return d.hv
	}
	v := dirContent(r, d)
	if h.tok != nil && d.owner == h.tok {
		d.hv, d.hvOK = v, true
	}
	return v
}

func (h *Heap) fileContrib(r FileRef, f *File) uint64 {
	if f.hvOK {
		return f.hv
	}
	v := fileContent(r, f)
	if h.tok != nil && f.owner == h.tok {
		f.hv, f.hvOK = v, true
	}
	return v
}

// fileContrib without a heap receiver, for FreeFile's retire path.
func fileContrib(r FileRef, f *File) uint64 {
	if f.hvOK {
		return f.hv
	}
	return fileContent(r, f)
}

// A transition touches a handful of objects, so the dirty sets are
// short slices searched linearly: no map to allocate per clone. A ref
// is marked only when it is not dirty already — unhash* check, and
// allocation hands out fresh refs — since flushHash folds each entry in.

func (h *Heap) markDirtyDir(r DirRef) { h.dirtyDirs = append(h.dirtyDirs, r) }

func (h *Heap) markDirtyFile(r FileRef) { h.dirtyFiles = append(h.dirtyFiles, r) }

func (h *Heap) dirtyDir(r DirRef) bool {
	for _, d := range h.dirtyDirs {
		if d == r {
			return true
		}
	}
	return false
}

// dirtyFile reports whether r is in the dirty set, and where.
func (h *Heap) dirtyFile(r FileRef) (int, bool) {
	for i, f := range h.dirtyFiles {
		if f == r {
			return i, true
		}
	}
	return 0, false
}

// unhashDir retires r's current contribution ahead of a mutation; no-op if
// the object is already dirty (its contribution is not folded in).
func (h *Heap) unhashDir(r DirRef, d *Dir) {
	if h.dirtyDir(r) {
		return
	}
	h.hash ^= h.dirContrib(r, d)
	h.markDirtyDir(r)
}

func (h *Heap) unhashFile(r FileRef, f *File) {
	if _, dirty := h.dirtyFile(r); dirty {
		return
	}
	h.hash ^= h.fileContrib(r, f)
	h.markDirtyFile(r)
}

// flushHash folds every dirty object's contribution back into the hash.
func (h *Heap) flushHash() {
	for _, r := range h.dirtyDirs {
		if d := h.dirs[r]; d != nil {
			h.hash ^= h.dirContrib(r, d)
		}
	}
	for _, r := range h.dirtyFiles {
		if f := h.files[r]; f != nil {
			h.hash ^= h.fileContrib(r, f)
		}
	}
	h.dirtyDirs, h.dirtyFiles = nil, nil
}

// Hash returns the incremental 64-bit digest of the heap's semantic
// content (every directory and file, connected or not — the same fields
// the checker fingerprint renders). Flushes pending contributions, so it
// mutates bookkeeping: hash frozen heaps before sharing them (Freeze does).
func (h *Heap) Hash() uint64 {
	if len(h.dirtyDirs) > 0 || len(h.dirtyFiles) > 0 {
		h.flushHash()
	}
	return h.hash
}

// HeapEqual reports semantic equality of two heaps: same references bound
// to directories and files with equal metadata, entries and contents.
// Shared (pointer-equal) objects compare in O(1) — the common case for
// copy-on-write siblings. Allocation counters are ignored, matching the
// fingerprint contract: two states differing only in how many refs they
// ever allocated are behaviourally identical.
func HeapEqual(a, b *Heap) bool {
	if a == b {
		return true
	}
	if len(a.dirs) != len(b.dirs) || len(a.files) != len(b.files) {
		return false
	}
	for r, da := range a.dirs {
		db := b.dirs[r]
		if db == nil {
			return false
		}
		if da == db {
			continue
		}
		if da.Parent != db.Parent || da.Perm != db.Perm || da.Uid != db.Uid || da.Gid != db.Gid {
			return false
		}
		if len(da.Entries) != len(db.Entries) {
			return false
		}
		for n, ea := range da.Entries {
			if eb, ok := db.Entries[n]; !ok || ea != eb {
				return false
			}
		}
	}
	for r, fa := range a.files {
		fb := b.files[r]
		if fb == nil {
			return false
		}
		if fa == fb {
			continue
		}
		if fa.Nlink != fb.Nlink || fa.IsSymlink != fb.IsSymlink ||
			fa.Perm != fb.Perm || fa.Uid != fb.Uid || fa.Gid != fb.Gid {
			return false
		}
		if len(fa.Bytes) != len(fb.Bytes) {
			return false
		}
		for i := range fa.Bytes {
			if fa.Bytes[i] != fb.Bytes[i] {
				return false
			}
		}
	}
	return true
}
