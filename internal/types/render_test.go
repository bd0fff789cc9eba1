package types

import (
	"sort"
	"strconv"
	"testing"
)

// renderer is the rendering surface every trace-syntax value shares.
type renderer interface {
	Append(b []byte) []byte
	String() string
}

// renderPins fixes the exact trace syntax of every Command, Label and
// RetValue kind. Script hashes, and so every cache key, are digests of
// this text: a row that changes moves keys.
var renderPins = []struct {
	v    renderer
	want string
}{
	// Commands.
	{Close{FD: 3}, `close (FD 3)`},
	{Closedir{DH: 1}, `closedir (DH 1)`},
	{Chdir{Path: "d/e"}, `chdir "d/e"`},
	{Chmod{Path: "f", Perm: 0o4755}, `chmod "f" 0o4755`},
	{Chown{Path: "f", Uid: 1000, Gid: 100}, `chown "f" 1000 100`},
	{Link{Src: "a", Dst: "b"}, `link "a" "b"`},
	{Lseek{FD: 3, Off: -5, Whence: SeekSet}, `lseek (FD 3) -5 SEEK_SET`},
	{Lseek{FD: 3, Off: 0, Whence: SeekCur}, `lseek (FD 3) 0 SEEK_CUR`},
	{Lseek{FD: 3, Off: 12, Whence: SeekEnd}, `lseek (FD 3) 12 SEEK_END`},
	{Lseek{FD: 3, Off: 1, Whence: 7}, `lseek (FD 3) 1 SEEK_?`},
	{Lstat{Path: "l"}, `lstat "l"`},
	{Mkdir{Path: "d", Perm: 0o755}, `mkdir "d" 0o755`},
	{Open{Path: "f", Flags: OCreat | OWronly, Perm: 0o644, HasPerm: true}, `open "f" [O_CREAT;O_WRONLY] 0o644`},
	{Open{Path: "f", Flags: OCreat | OWronly, Perm: 0o644}, `open "f" [O_CREAT;O_WRONLY]`},
	{Open{Path: "f", Flags: ORdonly}, `open "f" [O_RDONLY]`},
	{Open{Path: "f", Flags: OWronly}, `open "f" [O_WRONLY]`},
	{Open{Path: "f", Flags: ORdwr}, `open "f" [O_RDWR]`},
	{Open{Path: "f", Flags: OWronly | ORdwr}, `open "f" [O_RDWR;O_WRONLY]`},
	{Open{Path: "f", Flags: OCreat}, `open "f" [O_CREAT;O_RDONLY]`},
	{Open{Path: "f", Flags: OExcl}, `open "f" [O_EXCL;O_RDONLY]`},
	{Open{Path: "f", Flags: OTrunc}, `open "f" [O_RDONLY;O_TRUNC]`},
	{Open{Path: "f", Flags: OAppend}, `open "f" [O_APPEND;O_RDONLY]`},
	{Open{Path: "f", Flags: ODirectory}, `open "f" [O_DIRECTORY;O_RDONLY]`},
	{Open{Path: "f", Flags: ONofollow}, `open "f" [O_NOFOLLOW;O_RDONLY]`},
	{Open{Path: "f", Flags: OCloexec}, `open "f" [O_CLOEXEC;O_RDONLY]`},
	{Open{Path: "f", Flags: ONonblock}, `open "f" [O_NONBLOCK;O_RDONLY]`},
	{Open{Path: "f", Flags: OSync}, `open "f" [O_RDONLY;O_SYNC]`},
	{Open{Path: "f", Flags: ONoctty}, `open "f" [O_NOCTTY;O_RDONLY]`},
	{Open{Path: "f", Flags: OWronly | OCreat | OExcl | OTrunc | OAppend | ODirectory | ONofollow | OCloexec | ONonblock | OSync | ONoctty, Perm: 0, HasPerm: true},
		`open "f" [O_APPEND;O_CLOEXEC;O_CREAT;O_DIRECTORY;O_EXCL;O_NOCTTY;O_NOFOLLOW;O_NONBLOCK;O_SYNC;O_TRUNC;O_WRONLY] 0o0`},
	{Opendir{Path: "."}, `opendir "."`},
	{Pread{FD: 4, Size: 10, Off: 2}, `pread (FD 4) 10 2`},
	{Pwrite{FD: 4, Data: []byte("q\"b\\s\xff\n"), Size: 7, Off: 3}, `pwrite (FD 4) "q\"b\\s\xff\n" 7 3`},
	{Read{FD: 4, Size: 100}, `read (FD 4) 100`},
	{Readdir{DH: 2}, `readdir (DH 2)`},
	{Readlink{Path: "l"}, `readlink "l"`},
	{Rename{Src: "a b", Dst: "c"}, `rename "a b" "c"`},
	{Rewinddir{DH: 2}, `rewinddir (DH 2)`},
	{Rmdir{Path: "d"}, `rmdir "d"`},
	{Stat{Path: "/"}, `stat "/"`},
	{Symlink{Target: "../t", Linkpath: "l"}, `symlink "../t" "l"`},
	{Truncate{Path: "f", Len: 1 << 40}, `truncate "f" 1099511627776`},
	{Unlink{Path: "f"}, `unlink "f"`},
	{Write{FD: 3, Data: []byte("say \"hi\"\\\x00\xfe\né\t"), Size: 15}, `write (FD 3) "say \"hi\"\\\x00\xfe\né\t" 15`},
	{Write{FD: 3, Data: nil, Size: 0}, `write (FD 3) "" 0`},
	{Fsync{FD: 3}, `fsync (FD 3)`},
	{Sync{}, `sync`},
	{Umask{Mask: 0o22}, `umask 0o22`},
	{AddUserToGroup{Uid: 1, Gid: 2}, `add_user_to_group 1 2`},

	// Labels.
	{CallLabel{Pid: 1, Cmd: Mkdir{Path: "d", Perm: 0o700}}, `1: mkdir "d" 0o700`},
	{ReturnLabel{Pid: 2, Ret: RvErr{Err: ENOENT}}, `2: ENOENT`},
	{CreateLabel{Pid: 3, Uid: 1000, Gid: 1001}, `create 3 1000 1001`},
	{DestroyLabel{Pid: 3}, `destroy 3`},
	{TauLabel{}, `tau`},
	{CrashLabel{Keep: 2}, `crash 2`},

	// Return values.
	{RvNone{}, `RV_none`},
	{RvNum{N: -1}, `RV_num(-1)`},
	{RvBytes{Data: []byte("a\"\\\xff\n")}, `RV_bytes("a\"\\\xff\n")`},
	{RvStats{Stats: Stats{Kind: KindFile, Perm: 0o644, Size: 3, Nlink: 1, Uid: 0, Gid: 0}},
		`RV_stats { st_kind=S_IFREG; st_perm=0o644; st_size=3; st_nlink=1; st_uid=0; st_gid=0 }`},
	{RvStats{Stats: Stats{Kind: KindDir, Perm: 0o1777, Size: 0, Nlink: 2, Uid: 1000, Gid: 100}},
		`RV_stats { st_kind=S_IFDIR; st_perm=0o1777; st_size=0; st_nlink=2; st_uid=1000; st_gid=100 }`},
	{RvStats{Stats: Stats{Kind: KindSymlink, Perm: 0o777, Size: 4, Nlink: 1}},
		`RV_stats { st_kind=S_IFLNK; st_perm=0o777; st_size=4; st_nlink=1; st_uid=0; st_gid=0 }`},
	{RvFD{FD: 3}, `RV_file_descriptor(FD 3)`},
	{RvDH{DH: 1}, `RV_dir_handle(DH 1)`},
	{RvDirent{Name: "x\"y"}, `RV_readdir("x\"y")`},
	{RvDirent{End: true}, `RV_readdir_end`},
	{RvErr{Err: EEXIST}, `EEXIST`},
	{RvErr{Err: Errno(999)}, `E?999`},
	{RvPerm{Perm: 0o22}, `RV_perm(0o22)`},
}

func TestRenderPins(t *testing.T) {
	for _, row := range renderPins {
		if got := row.v.String(); got != row.want {
			t.Errorf("%#v.String():\n got %s\nwant %s", row.v, got, row.want)
		}
		// Append extends its argument in place and renders the same text.
		if got := string(row.v.Append([]byte("> "))); got != "> "+row.want {
			t.Errorf("%#v.Append:\n got %s\nwant > %s", row.v, got, row.want)
		}
	}
}

// TestOpenFlagNamesSorted keeps the flag table in name order, the order
// OpenFlags.Append lists flags in.
// TestAppendQuoteMatchesStrconv pins appendQuote's fast path to
// strconv.AppendQuote: every single byte, plus strings that leave the
// fast path at their start, middle and end.
func TestAppendQuoteMatchesStrconv(t *testing.T) {
	cases := []string{"", "d0/f", "a b~", "\x7f", "é", "tab\tx", `q"q`, `b\\s`, "\xff", "x\x00"}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "a/"+string([]byte{byte(c)})+"/b")
	}
	for _, s := range cases {
		if got, want := string(appendQuote([]byte("> "), s)), string(strconv.AppendQuote([]byte("> "), s)); got != want {
			t.Errorf("appendQuote(%q) = %s, strconv gives %s", s, got, want)
		}
	}
}

func TestOpenFlagNamesSorted(t *testing.T) {
	if !sort.SliceIsSorted(openFlagNames, func(i, j int) bool { return openFlagNames[i].n < openFlagNames[j].n }) {
		t.Fatal("openFlagNames is not sorted by name")
	}
}
