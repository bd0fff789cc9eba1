package fsspec

import (
	"testing"

	"repro/internal/state"
	"repro/internal/types"
)

// ctx builds an evaluation context over the standard fixture:
// /d (dir), /d/f (file), /e (empty dir), /f (file "data"), /s -> f,
// /sd -> d, /sb -> nope.
func ctx(t *testing.T, spec types.Spec) (*Ctx, map[string]interface{}) {
	t.Helper()
	h := state.NewHeap()
	refs := map[string]interface{}{}
	d := h.AllocDir(h.Root, 0o755, 0, 0)
	h.LinkDir(h.Root, "d", d)
	refs["d"] = d
	e := h.AllocDir(h.Root, 0o755, 0, 0)
	h.LinkDir(h.Root, "e", e)
	refs["e"] = e
	df := h.AllocFile(0o644, 0, 0)
	h.LinkFile(d, "f", df)
	refs["d/f"] = df
	f := h.AllocFile(0o644, 0, 0)
	h.MutFile(f).Bytes = []byte("data")
	h.LinkFile(h.Root, "f", f)
	refs["f"] = f
	s := h.AllocSymlink("f", 0o777, 0, 0)
	h.LinkFile(h.Root, "s", s)
	sd := h.AllocSymlink("d", 0o777, 0, 0)
	h.LinkFile(h.Root, "sd", sd)
	sb := h.AllocSymlink("nope", 0o777, 0, 0)
	h.LinkFile(h.Root, "sb", sb)
	return &Ctx{
		Spec: spec, H: h, Cwd: h.Root, CwdValid: true,
		Umask: 0o022, Euid: types.RootUid, Egid: types.RootGid,
	}, refs
}

func linuxCtx(t *testing.T) *Ctx {
	c, _ := ctx(t, types.DefaultSpec())
	return c
}

func errsOf(r Result) types.ErrnoSet { return r.Errors }

func mustOk(t *testing.T, r Result) Outcome {
	t.Helper()
	if r.Errors.Len() > 0 || len(r.Oks) != 1 {
		t.Fatalf("expected single success, got errs=%v oks=%d", r.Errors.Sorted(), len(r.Oks))
	}
	return r.Oks[0]
}

func mustErrs(t *testing.T, r Result, want ...types.Errno) {
	t.Helper()
	if len(r.Oks) != 0 {
		t.Fatalf("expected errors %v, got a success", want)
	}
	if r.Errors.Len() != len(want) {
		t.Fatalf("errors = %v, want %v", r.Errors.Sorted(), want)
	}
	for _, e := range want {
		if !r.Errors.Has(e) {
			t.Fatalf("errors = %v, want %v", r.Errors.Sorted(), want)
		}
	}
}

func TestMkdirSpec(t *testing.T) {
	c := linuxCtx(t)
	ok := mustOk(t, MkdirSpec(c, types.Mkdir{Path: "/new", Perm: 0o777}))
	ok.Apply(c.H)
	e, found := c.H.Lookup(c.H.Root, "new")
	if !found || e.Kind != state.EntryDir {
		t.Fatal("mkdir did not create the directory")
	}
	// umask 0o022 applied.
	if c.H.Dir(e.Dir).Perm != 0o755 {
		t.Errorf("perm = %o, want 755", c.H.Dir(e.Dir).Perm)
	}
	mustErrs(t, MkdirSpec(c, types.Mkdir{Path: "/d", Perm: 0o777}), types.EEXIST)
	mustErrs(t, MkdirSpec(c, types.Mkdir{Path: "/f", Perm: 0o777}), types.EEXIST)
	mustErrs(t, MkdirSpec(c, types.Mkdir{Path: "/nodir/x", Perm: 0o777}), types.ENOENT)
	mustErrs(t, MkdirSpec(c, types.Mkdir{Path: "", Perm: 0o777}), types.ENOENT)
	// mkdir over a symlink (even broken) is EEXIST.
	mustErrs(t, MkdirSpec(c, types.Mkdir{Path: "/sb", Perm: 0o777}), types.EEXIST)
}

func TestRmdirSpec(t *testing.T) {
	c := linuxCtx(t)
	mustErrs(t, RmdirSpec(c, types.Rmdir{Path: "/f"}), types.ENOTDIR)
	mustErrs(t, RmdirSpec(c, types.Rmdir{Path: "/missing"}), types.ENOENT)
	r := RmdirSpec(c, types.Rmdir{Path: "/"})
	if !r.Errors.Has(types.EBUSY) {
		t.Errorf("rmdir / = %v", r.Errors.Sorted())
	}
	// Non-empty: POSIX allows ENOTEMPTY or EEXIST.
	r = RmdirSpec(c, types.Rmdir{Path: "/d"})
	if !r.Errors.Has(types.ENOTEMPTY) || !r.Errors.Has(types.EEXIST) {
		t.Errorf("rmdir nonempty = %v", r.Errors.Sorted())
	}
	ok := mustOk(t, RmdirSpec(c, types.Rmdir{Path: "/e"}))
	ok.Apply(c.H)
	if _, found := c.H.Lookup(c.H.Root, "e"); found {
		t.Error("rmdir did not remove the directory")
	}
	// rmdir(".") is EINVAL-ish.
	r = RmdirSpec(c, types.Rmdir{Path: "/d/."})
	if !r.Errors.Has(types.EINVAL) {
		t.Errorf("rmdir . = %v", r.Errors.Sorted())
	}
}

func TestRenameSpecFig6Checks(t *testing.T) {
	c := linuxCtx(t)

	// Same object: successful no-op.
	r := RenameSpec(c, types.Rename{Src: "/f", Dst: "/f"})
	if len(r.Oks) != 1 {
		t.Fatalf("same-object rename: %v", r.Errors.Sorted())
	}

	// The Fig 4 case: empty dir onto non-empty dir allows exactly
	// EEXIST/ENOTEMPTY.
	mustErrs(t, RenameSpec(c, types.Rename{Src: "/e", Dst: "/d"}),
		types.EEXIST, types.ENOTEMPTY)

	// file onto dir: EISDIR. dir onto file: ENOTDIR.
	mustErrs(t, RenameSpec(c, types.Rename{Src: "/f", Dst: "/e"}), types.EISDIR)
	mustErrs(t, RenameSpec(c, types.Rename{Src: "/e", Dst: "/f"}), types.ENOTDIR)

	// Source missing: ENOENT.
	mustErrs(t, RenameSpec(c, types.Rename{Src: "/missing", Dst: "/x"}), types.ENOENT)

	// Renaming a directory into its own subtree: EINVAL.
	sub := c.H.AllocDir(c.H.Dir(c.H.Root).Entries["d"].Dir, 0o755, 0, 0)
	c.H.LinkDir(c.H.Dir(c.H.Root).Entries["d"].Dir, "sub", sub)
	mustErrs(t, RenameSpec(c, types.Rename{Src: "/d", Dst: "/d/sub/x"}), types.EINVAL)

	// Renaming the root: EBUSY/EINVAL (POSIX/Linux).
	r = RenameSpec(c, types.Rename{Src: "/", Dst: "/e/r"})
	if !r.Errors.Has(types.EBUSY) || !r.Errors.Has(types.EINVAL) {
		t.Errorf("rename root = %v", r.Errors.Sorted())
	}

	// Trailing slash on a file source: ENOTDIR, checked before same-object.
	mustErrs(t, RenameSpec(c, types.Rename{Src: "/f/", Dst: "/f"}), types.ENOTDIR)
	mustErrs(t, RenameSpec(c, types.Rename{Src: "/f", Dst: "/f/"}), types.ENOTDIR)
	// file onto "dir/": ENOTDIR, not EISDIR (Linux-observed).
	mustErrs(t, RenameSpec(c, types.Rename{Src: "/f", Dst: "/e/"}), types.ENOTDIR)
}

func TestRenameSpecMove(t *testing.T) {
	c := linuxCtx(t)
	ok := mustOk(t, RenameSpec(c, types.Rename{Src: "/f", Dst: "/e/moved"}))
	ok.Apply(c.H)
	if _, found := c.H.Lookup(c.H.Root, "f"); found {
		t.Error("source survived rename")
	}
	e := c.H.Dir(c.H.Root).Entries["e"].Dir
	if _, found := c.H.Lookup(e, "moved"); !found {
		t.Error("destination missing after rename")
	}
}

func TestRenameReplacesFile(t *testing.T) {
	c, refs := ctx(t, types.DefaultSpec())
	fRef := refs["f"].(state.FileRef)
	before := c.H.File(fRef).Nlink
	ok := mustOk(t, RenameSpec(c, types.Rename{Src: "/d/f", Dst: "/f"}))
	ok.Apply(c.H)
	if got := c.H.File(fRef).Nlink; got != before-1 {
		t.Errorf("replaced file nlink = %d, want %d (the posixovl leak check)", got, before-1)
	}
}

func TestOsxRenameRootAllowsEISDIR(t *testing.T) {
	c, _ := ctx(t, types.Spec{Platform: types.PlatformOSX, Permissions: true, RootUser: true})
	r := RenameSpec(c, types.Rename{Src: "/", Dst: "/e/r"})
	if !r.Errors.Has(types.EISDIR) {
		t.Errorf("OS X rename root should allow EISDIR: %v", r.Errors.Sorted())
	}
}

func TestLinkSpec(t *testing.T) {
	c := linuxCtx(t)
	ok := mustOk(t, LinkSpec(c, types.Link{Src: "/f", Dst: "/f2"}))
	ok.Apply(c.H)
	e, _ := c.H.Lookup(c.H.Root, "f2")
	if c.H.File(e.File).Nlink != 2 {
		t.Errorf("nlink = %d", c.H.File(e.File).Nlink)
	}
	mustErrs(t, LinkSpec(c, types.Link{Src: "/d", Dst: "/d2"}), types.EPERM)
	mustErrs(t, LinkSpec(c, types.Link{Src: "/missing", Dst: "/x"}), types.ENOENT)
	mustErrs(t, LinkSpec(c, types.Link{Src: "/f", Dst: "/f2"}), types.EEXIST)
	// Linux links the symlink itself.
	ok = mustOk(t, LinkSpec(c, types.Link{Src: "/s", Dst: "/s2"}))
	ok.Apply(c.H)
	e, _ = c.H.Lookup(c.H.Root, "s2")
	if e.Kind != state.EntrySymlink {
		t.Error("Linux link should hard-link the symlink itself")
	}
	// POSIX leaves symlink sources implementation-defined.
	pc, _ := ctx(t, types.Spec{Platform: types.PlatformPOSIX, Permissions: true, RootUser: true})
	if r := LinkSpec(pc, types.Link{Src: "/s", Dst: "/s2"}); !r.Undefined {
		t.Error("POSIX link-to-symlink should be a special state")
	}
	// The §7.3.2 Linux quirk: trailing-slash file destination allows EEXIST.
	r := LinkSpec(c, types.Link{Src: "/d", Dst: "/f/"})
	if !r.Errors.Has(types.EEXIST) || !r.Errors.Has(types.ENOTDIR) {
		t.Errorf("link dir onto f/ = %v", r.Errors.Sorted())
	}
}

func TestUnlinkSpec(t *testing.T) {
	c := linuxCtx(t)
	ok := mustOk(t, UnlinkSpec(c, types.Unlink{Path: "/f"}))
	ok.Apply(c.H)
	if _, found := c.H.Lookup(c.H.Root, "f"); found {
		t.Error("unlink left the entry")
	}
	mustErrs(t, UnlinkSpec(c, types.Unlink{Path: "/missing"}), types.ENOENT)
	// Platform split on unlinking a directory.
	mustErrs(t, UnlinkSpec(c, types.Unlink{Path: "/d"}), types.EISDIR)
	oc, _ := ctx(t, types.Spec{Platform: types.PlatformOSX, Permissions: true, RootUser: true})
	mustErrs(t, UnlinkSpec(oc, types.Unlink{Path: "/d"}), types.EPERM)
	pc, _ := ctx(t, types.Spec{Platform: types.PlatformPOSIX, Permissions: true, RootUser: true})
	r := UnlinkSpec(pc, types.Unlink{Path: "/d"})
	if !r.Errors.Has(types.EPERM) || !r.Errors.Has(types.EISDIR) {
		t.Errorf("POSIX unlink dir = %v", r.Errors.Sorted())
	}
	// Unlinking an unfollowed symlink removes the link, not the target.
	c2 := linuxCtx(t)
	ok = mustOk(t, UnlinkSpec(c2, types.Unlink{Path: "/s"}))
	ok.Apply(c2.H)
	if _, found := c2.H.Lookup(c2.H.Root, "f"); !found {
		t.Error("unlink of symlink removed the target")
	}
}

func TestSymlinkReadlinkSpec(t *testing.T) {
	c := linuxCtx(t)
	ok := mustOk(t, SymlinkSpec(c, types.Symlink{Target: "anywhere", Linkpath: "/nl"}))
	ok.Apply(c.H)
	r := mustOk(t, ReadlinkSpec(c, types.Readlink{Path: "/nl"}))
	if b, okb := r.Ret.(types.RvBytes); !okb || string(b.Data) != "anywhere" {
		t.Errorf("readlink = %v", r.Ret)
	}
	mustErrs(t, SymlinkSpec(c, types.Symlink{Target: "", Linkpath: "/x"}), types.ENOENT)
	mustErrs(t, SymlinkSpec(c, types.Symlink{Target: "t", Linkpath: "/f"}), types.EEXIST)
	mustErrs(t, ReadlinkSpec(c, types.Readlink{Path: "/f"}), types.EINVAL)
	mustErrs(t, ReadlinkSpec(c, types.Readlink{Path: "/d"}), types.EINVAL)
	mustErrs(t, ReadlinkSpec(c, types.Readlink{Path: "/missing"}), types.ENOENT)
	// Trailing slash: follows; target dir → EINVAL, target file → ENOTDIR.
	mustErrs(t, ReadlinkSpec(c, types.Readlink{Path: "/sd/"}), types.EINVAL)
	mustErrs(t, ReadlinkSpec(c, types.Readlink{Path: "/s/"}), types.ENOTDIR)
}

func TestStatLstatSpec(t *testing.T) {
	c := linuxCtx(t)
	r := mustOk(t, StatSpec(c, types.Stat{Path: "/s"}))
	st := r.Ret.(types.RvStats).Stats
	if st.Kind != types.KindFile || st.Size != 4 {
		t.Errorf("stat through symlink = %+v", st)
	}
	r = mustOk(t, LstatSpec(c, types.Lstat{Path: "/s"}))
	st = r.Ret.(types.RvStats).Stats
	if st.Kind != types.KindSymlink || st.Size != 1 {
		t.Errorf("lstat of symlink = %+v", st)
	}
	// lstat with trailing slash follows (Linux-observed).
	r = mustOk(t, LstatSpec(c, types.Lstat{Path: "/sd/"}))
	if r.Ret.(types.RvStats).Stats.Kind != types.KindDir {
		t.Error("lstat sd/ should stat the directory")
	}
	mustErrs(t, LstatSpec(c, types.Lstat{Path: "/s/"}), types.ENOTDIR)
	r = mustOk(t, StatSpec(c, types.Stat{Path: "/d"}))
	if r.Ret.(types.RvStats).Stats.Nlink != 2 {
		t.Errorf("dir nlink = %d", r.Ret.(types.RvStats).Stats.Nlink)
	}
}

func TestTruncateSpec(t *testing.T) {
	c, refs := ctx(t, types.DefaultSpec())
	f := refs["f"].(state.FileRef)
	ok := mustOk(t, TruncateSpec(c, types.Truncate{Path: "/f", Len: 2}))
	ok.Apply(c.H)
	if string(c.H.File(f).Bytes) != "da" {
		t.Errorf("shrink = %q", c.H.File(f).Bytes)
	}
	ok = mustOk(t, TruncateSpec(c, types.Truncate{Path: "/f", Len: 5}))
	ok.Apply(c.H)
	if string(c.H.File(f).Bytes) != "da\x00\x00\x00" {
		t.Errorf("grow = %q", c.H.File(f).Bytes)
	}
	mustErrs(t, TruncateSpec(c, types.Truncate{Path: "/f", Len: -1}), types.EINVAL)
	mustErrs(t, TruncateSpec(c, types.Truncate{Path: "/d", Len: 0}), types.EISDIR)
	// Through a symlink.
	ok = mustOk(t, TruncateSpec(c, types.Truncate{Path: "/s", Len: 0}))
	ok.Apply(c.H)
	if len(c.H.File(f).Bytes) != 0 {
		t.Error("truncate through symlink failed")
	}
}

func TestChmodChownSpec(t *testing.T) {
	c, refs := ctx(t, types.DefaultSpec())
	f := refs["f"].(state.FileRef)
	ok := mustOk(t, ChmodSpec(c, types.Chmod{Path: "/f", Perm: 0o600}))
	ok.Apply(c.H)
	if c.H.File(f).Perm != 0o600 {
		t.Error("chmod did not apply")
	}
	ok = mustOk(t, ChownSpec(c, types.Chown{Path: "/f", Uid: 5, Gid: 6}))
	ok.Apply(c.H)
	if c.H.File(f).Uid != 5 || c.H.File(f).Gid != 6 {
		t.Error("chown did not apply")
	}
	// Non-owner, non-root chmod is EPERM.
	c.Euid = 1000
	mustErrs(t, ChmodSpec(c, types.Chmod{Path: "/d", Perm: 0o700}), types.EPERM)
	mustErrs(t, ChownSpec(c, types.Chown{Path: "/d", Uid: 1000, Gid: 1000}), types.EPERM)
}

func TestChdirSpec(t *testing.T) {
	c := linuxCtx(t)
	dir, r := ChdirSpec(c, types.Chdir{Path: "/d"})
	if len(r.Oks) != 1 || dir == 0 {
		t.Fatalf("chdir /d failed: %v", r.Errors.Sorted())
	}
	_, r = ChdirSpec(c, types.Chdir{Path: "/f"})
	mustErrs(t, r, types.ENOTDIR)
	_, r = ChdirSpec(c, types.Chdir{Path: "/missing"})
	mustErrs(t, r, types.ENOENT)
}

func TestParCombinator(t *testing.T) {
	got := Par(
		when(true, types.ENOENT),
		when(false, types.EPERM),
		when(true, types.EACCES, types.EEXIST),
	)
	if got.Len() != 3 || !got.Has(types.ENOENT) || !got.Has(types.EACCES) || !got.Has(types.EEXIST) {
		t.Errorf("Par = %v", got.Sorted())
	}
	if got.Has(types.EPERM) {
		t.Error("Par included a passing check's errors")
	}
	if Par(when(false, types.EIO)).Len() != 0 {
		t.Error("all-pass Par should be empty")
	}
}

func TestAccessAlgorithm(t *testing.T) {
	c := linuxCtx(t)
	c.Euid, c.Egid = 1000, 1000
	cases := []struct {
		uid  types.Uid
		gid  types.Gid
		perm types.Perm
		req  types.AccessRequest
		want bool
	}{
		{1000, 1000, 0o400, types.AccessRead, true},  // owner read
		{1000, 1000, 0o040, types.AccessRead, false}, // owner class only
		{1, 1000, 0o040, types.AccessRead, true},     // group read
		{1, 1, 0o004, types.AccessRead, true},        // other read
		{1, 1, 0o044, types.AccessWrite, false},      // no write anywhere
		{1000, 1, 0o200, types.AccessWrite, true},    // owner write
		{1, 1, 0o001, types.AccessExec, true},        // other exec
	}
	for i, cs := range cases {
		if got := c.Access(cs.uid, cs.gid, cs.perm, cs.req); got != cs.want {
			t.Errorf("case %d: Access = %v", i, got)
		}
	}
	// Root bypass.
	c.Euid = 0
	if !c.Access(5, 5, 0, types.AccessWrite) {
		t.Error("root bypass missing")
	}
	// Trait disabled.
	c.Euid = 1000
	c.Spec.Permissions = false
	if !c.Access(5, 5, 0, types.AccessWrite) {
		t.Error("disabled trait should allow everything")
	}
}

func TestErrorsNeverMutate(t *testing.T) {
	// Every command evaluated against a state where it fails must leave
	// the heap unchanged — the paper's proved sanity property, checked
	// here at the fsspec layer (Result carries no Apply for errors).
	c := linuxCtx(t)
	cmds := []func() Result{
		func() Result { return MkdirSpec(c, types.Mkdir{Path: "/d", Perm: 0o777}) },
		func() Result { return RmdirSpec(c, types.Rmdir{Path: "/f"}) },
		func() Result { return UnlinkSpec(c, types.Unlink{Path: "/d"}) },
		func() Result { return RenameSpec(c, types.Rename{Src: "/e", Dst: "/d"}) },
		func() Result { return LinkSpec(c, types.Link{Src: "/d", Dst: "/x"}) },
		func() Result { return SymlinkSpec(c, types.Symlink{Target: "t", Linkpath: "/f"}) },
		func() Result { return TruncateSpec(c, types.Truncate{Path: "/d", Len: 0}) },
	}
	fp := c.H.Clone()
	for i, f := range cmds {
		r := f()
		if len(r.Oks) != 0 {
			t.Errorf("cmd %d unexpectedly succeeded", i)
		}
	}
	// Structural equality via entry listings.
	if fp.NumDirs() != c.H.NumDirs() || fp.NumFiles() != c.H.NumFiles() {
		t.Error("an error path mutated the heap")
	}
}
