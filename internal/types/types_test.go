package types

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestErrnoStringRoundtrip(t *testing.T) {
	for e := EPERM; e <= ENOSYS; e++ {
		name := e.String()
		got, ok := ParseErrno(name)
		if !ok {
			t.Fatalf("ParseErrno(%q) failed", name)
		}
		if got != e {
			t.Errorf("roundtrip %v -> %q -> %v", e, name, got)
		}
	}
}

func TestParseErrnoRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "EWHAT", "RV_none", "enoent"} {
		if _, ok := ParseErrno(bad); ok {
			t.Errorf("ParseErrno(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestErrnoSetBasics(t *testing.T) {
	s := NewErrnoSet(ENOENT, EEXIST)
	if !s.Has(ENOENT) || !s.Has(EEXIST) || s.Has(EPERM) {
		t.Fatalf("membership wrong: %v", s.Sorted())
	}
	s.Add(EPERM, EACCES)
	if s.Len() != 4 {
		t.Fatalf("Add variadic: %v", s.Sorted())
	}
	u := NewErrnoSet(ELOOP)
	if u.Union(s) != u || u.Len() != 5 {
		t.Fatalf("Union: %v", u.Sorted())
	}
	sorted := u.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatalf("Sorted not ascending: %v", sorted)
		}
	}
	c := u
	c.Add(EIO)
	if u.Has(EIO) {
		t.Fatal("a copy is not independent")
	}
}

// mapSorted is the map-based ErrnoSet's Sorted, kept as the reference
// the bitset's iteration order is held to.
func mapSorted(es []Errno) []Errno {
	m := make(map[Errno]struct{}, len(es))
	for _, e := range es {
		m[e] = struct{}{}
	}
	out := make([]Errno, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// TestErrnoSetOrder: popping a bitset ErrnoSet visits exactly what the
// map-based set's Sorted returned, in the same order, so the successors
// built per error (and every diagnostic listing them) keep their order.
func TestErrnoSetOrder(t *testing.T) {
	f := func(raw []uint8) bool {
		es := make([]Errno, len(raw))
		for i, r := range raw {
			es[i] = Errno(int(r) % int(ENOSYS+1))
		}
		s := NewErrnoSet(es...)
		want := mapSorted(es)
		got := []Errno{}
		for rest := s; rest != 0; {
			var e Errno
			e, rest = rest.Pop()
			got = append(got, e)
		}
		return reflect.DeepEqual(got, want) && reflect.DeepEqual(s.Sorted(), want) && s.Len() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		s := NewErrnoSet(ENOENT, EEXIST)
		s.Union(NewErrnoSet(ELOOP))
		if !s.Has(ELOOP) {
			t.Fatal("Union lost ELOOP")
		}
	}); n != 0 {
		t.Errorf("building and uniting sets: %.1f allocations, want 0", n)
	}
}

func TestErrnoSetSortedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewErrnoSet()
		for _, r := range raw {
			s.Add(Errno(int(r)%int(ENOSYS) + 1))
		}
		sorted := s.Sorted()
		if len(sorted) != s.Len() {
			return false
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1] >= sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpenFlagsAccessors(t *testing.T) {
	cases := []struct {
		f      OpenFlags
		rd, wr bool
	}{
		{ORdonly, true, false},
		{OWronly, false, true},
		{ORdwr, true, true},
		{OWronly | OAppend, false, true},
		{ORdonly | OCreat, true, false},
	}
	for _, c := range cases {
		if c.f.Readable() != c.rd || c.f.Writable() != c.wr {
			t.Errorf("%v: Readable=%v Writable=%v", c.f, c.f.Readable(), c.f.Writable())
		}
	}
}

func TestOpenFlagsStringParseRoundtrip(t *testing.T) {
	combos := []OpenFlags{
		ORdonly,
		OWronly | OCreat,
		ORdwr | OCreat | OExcl | OTrunc | OAppend,
		ORdonly | ODirectory | ONofollow,
	}
	for _, f := range combos {
		s := f.String()
		got, ok := ParseOpenFlags(s)
		if !ok || got != f {
			t.Errorf("roundtrip %v -> %q -> %v (%v)", f, s, got, ok)
		}
	}
}

func TestParseOpenFlagsErrors(t *testing.T) {
	for _, bad := range []string{"O_CREAT", "[O_WHAT]", "(O_CREAT)"} {
		if _, ok := ParseOpenFlags(bad); ok {
			t.Errorf("ParseOpenFlags(%q) unexpectedly succeeded", bad)
		}
	}
	if f, ok := ParseOpenFlags("[]"); !ok || f != ORdonly {
		t.Errorf("empty flag list should be O_RDONLY")
	}
}

func TestSeekWhenceRoundtrip(t *testing.T) {
	for _, w := range []SeekWhence{SeekSet, SeekCur, SeekEnd} {
		got, ok := ParseSeekWhence(w.String())
		if !ok || got != w {
			t.Errorf("roundtrip %v", w)
		}
	}
	if _, ok := ParseSeekWhence("SEEK_HOLE"); ok {
		t.Error("unknown whence accepted")
	}
}

func TestAccessRequestMasks(t *testing.T) {
	cases := []struct {
		req   AccessRequest
		class int
		mask  Perm
	}{
		{AccessRead, 0, 0o400},
		{AccessWrite, 0, 0o200},
		{AccessExec, 0, 0o100},
		{AccessRead, 1, 0o040},
		{AccessWrite, 2, 0o002},
		{AccessExec, 2, 0o001},
	}
	for _, c := range cases {
		if got := c.req.Mask(c.class); got != c.mask {
			t.Errorf("Mask(%v,%d) = %o, want %o", c.req, c.class, got, c.mask)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Kind: KindFile, Perm: 0o644, Size: 3, Nlink: 1}
	want := "{ st_kind=S_IFREG; st_perm=0o644; st_size=3; st_nlink=1; st_uid=0; st_gid=0 }"
	if s.String() != want {
		t.Errorf("got %q want %q", s.String(), want)
	}
}

func TestCommandStrings(t *testing.T) {
	cases := []struct {
		cmd  Command
		want string
	}{
		{Mkdir{Path: "d", Perm: 0o777}, `mkdir "d" 0o777`},
		{Open{Path: "f", Flags: OCreat | OWronly, Perm: 0o666, HasPerm: true}, `open "f" [O_CREAT;O_WRONLY] 0o666`},
		{Rename{Src: "a", Dst: "b"}, `rename "a" "b"`},
		{Close{FD: 3}, "close (FD 3)"},
		{Readdir{DH: 1}, "readdir (DH 1)"},
		{Lseek{FD: 4, Off: -1, Whence: SeekEnd}, "lseek (FD 4) -1 SEEK_END"},
		{Write{FD: 3, Data: []byte("hi"), Size: 2}, `write (FD 3) "hi" 2`},
		{Symlink{Target: "t", Linkpath: "l"}, `symlink "t" "l"`},
	}
	for _, c := range cases {
		if got := c.cmd.String(); got != c.want {
			t.Errorf("%T: got %q want %q", c.cmd, got, c.want)
		}
	}
}

func TestCommandOpNames(t *testing.T) {
	cmds := []Command{
		Close{}, Closedir{}, Chdir{}, Chmod{}, Chown{}, Link{}, Lseek{},
		Lstat{}, Mkdir{}, Open{}, Opendir{}, Pread{}, Pwrite{}, Read{},
		Readdir{}, Readlink{}, Rename{}, Rewinddir{}, Rmdir{}, Stat{},
		Symlink{}, Truncate{}, Unlink{}, Write{}, Umask{}, AddUserToGroup{},
	}
	seen := map[string]bool{}
	for _, c := range cmds {
		op := c.Op()
		if op == "" || seen[op] {
			t.Errorf("bad or duplicate op %q for %T", op, c)
		}
		seen[op] = true
	}
}

func TestRetValueEquality(t *testing.T) {
	cases := []struct {
		a, b  RetValue
		equal bool
	}{
		{RvNone{}, RvNone{}, true},
		{RvNone{}, RvNum{N: 0}, false},
		{RvNum{N: 3}, RvNum{N: 3}, true},
		{RvNum{N: 3}, RvNum{N: 4}, false},
		{RvBytes{Data: []byte("ab")}, RvBytes{Data: []byte("ab")}, true},
		{RvBytes{Data: []byte("ab")}, RvBytes{Data: []byte("ac")}, false},
		{RvErr{Err: ENOENT}, RvErr{Err: ENOENT}, true},
		{RvErr{Err: ENOENT}, RvErr{Err: EPERM}, false},
		{RvDirent{Name: "x"}, RvDirent{Name: "x"}, true},
		{RvDirent{End: true}, RvDirent{Name: "x"}, false},
		{RvFD{FD: 3}, RvFD{FD: 3}, true},
		{RvDH{DH: 1}, RvDH{DH: 2}, false},
		{RvStats{Stats: Stats{Size: 1}}, RvStats{Stats: Stats{Size: 1}}, true},
		{RvStats{Stats: Stats{Size: 1}}, RvStats{Stats: Stats{Size: 2}}, false},
		{RvPerm{Perm: 0o22}, RvPerm{Perm: 0o22}, true},
	}
	for i, c := range cases {
		if c.a.Equal(c.b) != c.equal {
			t.Errorf("case %d: %v vs %v", i, c.a, c.b)
		}
	}
}

func TestIsError(t *testing.T) {
	if !IsError(RvErr{Err: EIO}) || IsError(RvNone{}) {
		t.Fatal("IsError misclassifies")
	}
}

func TestPlatformParsing(t *testing.T) {
	for _, p := range []Platform{PlatformPOSIX, PlatformLinux, PlatformOSX, PlatformFreeBSD} {
		got, ok := ParsePlatform(p.String())
		if !ok || got != p {
			t.Errorf("roundtrip %v", p)
		}
	}
	if _, ok := ParsePlatform("plan9"); ok {
		t.Error("unknown platform accepted")
	}
}

func TestSymlinkLimits(t *testing.T) {
	if PlatformLinux.SymlinkLimit() != 40 {
		t.Error("linux limit should be 40")
	}
	if PlatformOSX.SymlinkLimit() != 32 || PlatformFreeBSD.SymlinkLimit() != 32 {
		t.Error("BSD limits should be 32")
	}
}

func TestLabelStrings(t *testing.T) {
	cases := []struct {
		l    Label
		want string
	}{
		{CallLabel{Pid: 2, Cmd: Stat{Path: "x"}}, `2: stat "x"`},
		{ReturnLabel{Pid: 1, Ret: RvNone{}}, "1: RV_none"},
		{CreateLabel{Pid: 3, Uid: 10, Gid: 20}, "create 3 10 20"},
		{DestroyLabel{Pid: 3}, "destroy 3"},
		{TauLabel{}, "tau"},
	}
	for _, c := range cases {
		if got := c.l.String(); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
}
