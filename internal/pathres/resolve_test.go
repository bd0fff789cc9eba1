package pathres

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/state"
	"repro/internal/types"
)

// fixture builds the standard test tree:
//
//	/d            (dir)
//	/d/sub        (dir)
//	/d/f          (file)
//	/f            (file)
//	/sf  -> f     (symlink to file)
//	/sd  -> d     (symlink to dir)
//	/sb  -> nope  (broken symlink)
//	/l1  -> l2, /l2 -> l1 (loop)
//	/abs -> /f    (absolute symlink)
func fixture() (*state.Heap, state.DirRef) {
	h := state.NewHeap()
	d := h.AllocDir(h.Root, 0o755, 0, 0)
	h.LinkDir(h.Root, "d", d)
	sub := h.AllocDir(d, 0o755, 0, 0)
	h.LinkDir(d, "sub", sub)
	df := h.AllocFile(0o644, 0, 0)
	h.LinkFile(d, "f", df)
	f := h.AllocFile(0o644, 0, 0)
	h.LinkFile(h.Root, "f", f)
	link := func(name, target string) {
		s := h.AllocSymlink(target, 0o777, 0, 0)
		h.LinkFile(h.Root, name, s)
	}
	link("sf", "f")
	link("sd", "d")
	link("sb", "nope")
	link("l1", "l2")
	link("l2", "l1")
	link("abs", "/f")
	return h, d
}

func resolve(h *state.Heap, cwd state.DirRef, path string, follow Follow) ResName {
	return Resolve(Request{
		Heap: h, Cwd: cwd, CwdValid: true, Path: path,
		Follow: follow, Platform: types.PlatformLinux,
	})
}

func TestResolveBasics(t *testing.T) {
	h, d := fixture()
	cases := []struct {
		path   string
		follow Follow
		want   string // "dir", "file", "none", or an errno name
	}{
		{"", FollowLast, "ENOENT"},
		{"/", FollowLast, "dir"},
		{"//", FollowLast, "dir"},
		{"///", FollowLast, "dir"},
		{"/d", FollowLast, "dir"},
		{"/d/", FollowLast, "dir"},
		{"/d/sub", FollowLast, "dir"},
		{"/d/f", FollowLast, "file"},
		{"/f", NoFollowLast, "file"},
		{"/missing", FollowLast, "none"},
		{"/missing/", FollowLast, "none"},
		{"/nodir/nofile", FollowLast, "ENOENT"},
		{"/f/x", FollowLast, "ENOTDIR"},
		{"/d/.", FollowLast, "dir"},
		{"/d/..", FollowLast, "dir"},
		{"/..", FollowLast, "dir"},
		{"d", FollowLast, "dir"},
		{"d/f", FollowLast, "file"},
	}
	for _, c := range cases {
		got := resolve(h, h.Root, c.path, c.follow)
		if kindOf(got) != c.want {
			t.Errorf("Resolve(%q) = %#v, want %s", c.path, got, c.want)
		}
	}
	_ = d
}

func kindOf(rn ResName) string {
	switch r := rn.(type) {
	case RNDir:
		return "dir"
	case RNFile:
		return "file"
	case RNNone:
		return "none"
	case RNError:
		return r.Err.String()
	}
	return "?"
}

func TestResolveSymlinks(t *testing.T) {
	h, d := fixture()
	// Follow: symlink to file resolves to the target file.
	if r, ok := resolve(h, h.Root, "/sf", FollowLast).(RNFile); !ok || r.IsSymlink {
		t.Errorf("follow /sf = %#v", resolve(h, h.Root, "/sf", FollowLast))
	}
	// NoFollow: the symlink itself.
	if r, ok := resolve(h, h.Root, "/sf", NoFollowLast).(RNFile); !ok || !r.IsSymlink {
		t.Errorf("nofollow /sf = %#v", resolve(h, h.Root, "/sf", NoFollowLast))
	}
	// Symlink mid-path is always followed.
	if r, ok := resolve(h, h.Root, "/sd/f", NoFollowLast).(RNFile); !ok || r.Parent != d {
		t.Errorf("/sd/f = %#v", resolve(h, h.Root, "/sd/f", NoFollowLast))
	}
	// Broken symlink with follow is RNNone (creatable location).
	if _, ok := resolve(h, h.Root, "/sb", FollowLast).(RNNone); !ok {
		t.Errorf("/sb follow = %#v", resolve(h, h.Root, "/sb", FollowLast))
	}
	// Loop gives ELOOP.
	if kindOf(resolve(h, h.Root, "/l1", FollowLast)) != "ELOOP" {
		t.Errorf("/l1 = %#v", resolve(h, h.Root, "/l1", FollowLast))
	}
	// Loop in the middle of a path too.
	if kindOf(resolve(h, h.Root, "/l1/x", NoFollowLast)) != "ELOOP" {
		t.Errorf("/l1/x = %#v", resolve(h, h.Root, "/l1/x", NoFollowLast))
	}
	// Absolute symlink target restarts at the root.
	if _, ok := resolve(h, h.Root, "/abs", FollowLast).(RNFile); !ok {
		t.Errorf("/abs = %#v", resolve(h, h.Root, "/abs", FollowLast))
	}
}

func TestTrailingSlashOnSymlinkNotFollowedForNoFollow(t *testing.T) {
	h, _ := fixture()
	// unlink-style resolution: "sd/" stays an unfollowed symlink leaf; the
	// command layer turns it into ENOTDIR (Linux-observed behaviour).
	r, ok := resolve(h, h.Root, "/sd/", NoFollowLast).(RNFile)
	if !ok || !r.IsSymlink || !r.TrailingSlash {
		t.Errorf("/sd/ nofollow = %#v", resolve(h, h.Root, "/sd/", NoFollowLast))
	}
	// Follow commands resolve through it.
	if _, ok := resolve(h, h.Root, "/sd/", FollowLast).(RNDir); !ok {
		t.Errorf("/sd/ follow = %#v", resolve(h, h.Root, "/sd/", FollowLast))
	}
	// Trailing slash through a symlink to a file ends at the file with the
	// trailing flag set (commands map it to ENOTDIR).
	rf, ok := resolve(h, h.Root, "/sf/", FollowLast).(RNFile)
	if !ok || !rf.TrailingSlash || rf.IsSymlink {
		t.Errorf("/sf/ follow = %#v", resolve(h, h.Root, "/sf/", FollowLast))
	}
}

func TestRelativeResolution(t *testing.T) {
	h, d := fixture()
	if r, ok := resolve(h, d, "f", FollowLast).(RNFile); !ok || r.Parent != d {
		t.Errorf("relative f from /d = %#v", resolve(h, d, "f", FollowLast))
	}
	if r, ok := resolve(h, d, "../f", FollowLast).(RNFile); !ok || r.Parent != h.Root {
		t.Errorf("../f from /d = %#v", resolve(h, d, "../f", FollowLast))
	}
	if _, ok := resolve(h, d, ".", FollowLast).(RNDir); !ok {
		t.Errorf(". from /d = %#v", resolve(h, d, ".", FollowLast))
	}
}

func TestDisconnectedCwd(t *testing.T) {
	h, d := fixture()
	sub, _ := h.Lookup(d, "sub")
	h.UnlinkDir(d, "sub")
	// Relative resolution from an unlinked cwd fails ENOENT.
	got := resolve(h, sub.Dir, "x", FollowLast)
	if kindOf(got) != "ENOENT" {
		t.Errorf("from disconnected cwd: %#v", got)
	}
	// ".." from a disconnected dir also fails.
	got = resolve(h, sub.Dir, "..", FollowLast)
	if kindOf(got) != "ENOENT" {
		t.Errorf(".. from disconnected: %#v", got)
	}
}

func TestNameAndPathLimits(t *testing.T) {
	h, _ := fixture()
	long := strings.Repeat("a", types.NameMax+1)
	if kindOf(resolve(h, h.Root, "/"+long, FollowLast)) != "ENAMETOOLONG" {
		t.Error("long component accepted")
	}
	huge := "/" + strings.Repeat("a/", types.PathMax)
	if kindOf(resolve(h, h.Root, huge, FollowLast)) != "ENAMETOOLONG" {
		t.Error("long path accepted")
	}
	ok := strings.Repeat("b", types.NameMax)
	if kindOf(resolve(h, h.Root, "/"+ok, FollowLast)) != "none" {
		t.Error("max-length component rejected")
	}
}

type denyAll struct{}

func (denyAll) MayExec(*state.Heap, state.DirRef) bool { return false }

func TestExecCheckerDeniesTraversal(t *testing.T) {
	h, _ := fixture()
	got := Resolve(Request{
		Heap: h, Cwd: h.Root, CwdValid: true, Path: "/d/f",
		Follow: FollowLast, Platform: types.PlatformLinux, Exec: denyAll{},
	})
	if kindOf(got) != "EACCES" {
		t.Errorf("denied traversal = %#v", got)
	}
}

func TestErrOf(t *testing.T) {
	if ErrOf(RNError{Err: types.ELOOP}) != types.ELOOP {
		t.Error("ErrOf on error")
	}
	if ErrOf(RNDir{}) != types.EOK {
		t.Error("ErrOf on non-error")
	}
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		path     string
		n        int
		trailing bool
	}{
		{"/a/b", 2, false},
		{"/a/b/", 2, true},
		{"a//b", 2, false},
		{"/", 0, false},
		{"///", 0, false},
		{"a", 1, false},
	}
	for _, c := range cases {
		comps, tr := splitPath(c.path)
		if len(comps) != c.n || tr != c.trailing {
			t.Errorf("splitPath(%q) = %v %v", c.path, comps, tr)
		}
	}
}

// TestSplitPathReference holds splitPath to the strings.Split rendering
// it replaced — the same components, in order — and to one allocation.
func TestSplitPathReference(t *testing.T) {
	f := func(raw []byte) bool {
		p := make([]byte, len(raw))
		for i, b := range raw {
			p[i] = "ab/."[b%4]
		}
		var want []string
		for _, c := range strings.Split(string(p), "/") {
			if c != "" {
				want = append(want, c)
			}
		}
		got, _ := splitPath(string(p))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if n := testing.AllocsPerRun(100, func() { splitPath("/a//b/c/") }); n > 1 {
		t.Errorf("splitPath: %.1f allocations, want at most 1", n)
	}
}

func TestResolveIsPure(t *testing.T) {
	h, _ := fixture()
	before := h.NumDirs() + h.NumFiles()
	for _, p := range []string{"/d/f", "/sb", "/l1", "/missing", "/f/x", "/sd/sub"} {
		resolve(h, h.Root, p, FollowLast)
		resolve(h, h.Root, p, NoFollowLast)
	}
	if h.NumDirs()+h.NumFiles() != before {
		t.Error("resolution mutated the heap")
	}
}
