package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestParseScriptFig2(t *testing.T) {
	text := `@type script
# Test rename___rename_emptydir___nonemptydir
mkdir "emptydir" 0o777
mkdir "nonemptydir" 0o777
open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
rename "emptydir" "nonemptydir"
`
	s, err := ParseScript(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "rename___rename_emptydir___nonemptydir" {
		t.Errorf("name = %q", s.Name)
	}
	if len(s.Steps) != 4 {
		t.Fatalf("steps = %d", len(s.Steps))
	}
	call, ok := s.Steps[2].Label.(types.CallLabel)
	if !ok {
		t.Fatalf("step 2 is %T", s.Steps[2].Label)
	}
	open, ok := call.Cmd.(types.Open)
	if !ok || !open.Flags.Has(types.OCreat) || !open.Flags.Has(types.OWronly) || open.Perm != 0o666 {
		t.Errorf("open parsed wrong: %+v", open)
	}
}

func TestParseTraceFig3(t *testing.T) {
	text := `@type trace
# Test rename___rename_emptydir___nonemptydir
1: mkdir "emptydir" 0o777
1: RV_none
1: rename "emptydir" "nonemptydir"
1: EPERM
`
	tr, err := ParseTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 4 {
		t.Fatalf("steps = %d", len(tr.Steps))
	}
	ret, ok := tr.Steps[3].Label.(types.ReturnLabel)
	if !ok {
		t.Fatalf("step 3 is %T", tr.Steps[3].Label)
	}
	if e, ok := ret.Ret.(types.RvErr); !ok || e.Err != types.EPERM {
		t.Errorf("return parsed wrong: %v", ret.Ret)
	}
}

func TestParseHeaderEnforced(t *testing.T) {
	if _, err := ParseScript("mkdir \"d\" 0o777\n"); err == nil {
		t.Error("missing header accepted")
	}
	if _, err := ParseScript("@type trace\n"); err == nil {
		t.Error("wrong header accepted")
	}
}

// TestLabelRoundtrip: every command and return value survives a
// render→parse cycle (the paper's tooling depends on stable trace syntax).
func TestLabelRoundtrip(t *testing.T) {
	labels := []types.Label{
		types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "a b", Perm: 0o750}},
		types.CallLabel{Pid: 2, Cmd: types.Rmdir{Path: "/x/"}},
		types.CallLabel{Pid: 1, Cmd: types.Link{Src: "a", Dst: "b"}},
		types.CallLabel{Pid: 1, Cmd: types.Unlink{Path: `we"ird`}},
		types.CallLabel{Pid: 1, Cmd: types.Rename{Src: "", Dst: "//"}},
		types.CallLabel{Pid: 1, Cmd: types.Symlink{Target: "t", Linkpath: "l"}},
		types.CallLabel{Pid: 1, Cmd: types.Readlink{Path: "s"}},
		types.CallLabel{Pid: 1, Cmd: types.Stat{Path: "p"}},
		types.CallLabel{Pid: 1, Cmd: types.Lstat{Path: "p"}},
		types.CallLabel{Pid: 1, Cmd: types.Chdir{Path: "d"}},
		types.CallLabel{Pid: 1, Cmd: types.Chmod{Path: "p", Perm: 0o4755}},
		types.CallLabel{Pid: 1, Cmd: types.Chown{Path: "p", Uid: 5, Gid: 6}},
		types.CallLabel{Pid: 1, Cmd: types.Truncate{Path: "p", Len: -3}},
		types.CallLabel{Pid: 1, Cmd: types.Umask{Mask: 0o22}},
		types.CallLabel{Pid: 1, Cmd: types.Open{Path: "f", Flags: types.ORdwr | types.OAppend}},
		types.CallLabel{Pid: 1, Cmd: types.Open{Path: "f", Flags: types.OCreat, Perm: 0o600, HasPerm: true}},
		types.CallLabel{Pid: 1, Cmd: types.Close{FD: 9}},
		types.CallLabel{Pid: 1, Cmd: types.Read{FD: 3, Size: 10}},
		types.CallLabel{Pid: 1, Cmd: types.Write{FD: 3, Data: []byte("x\ny"), Size: 3}},
		types.CallLabel{Pid: 1, Cmd: types.Pread{FD: 3, Size: 4, Off: -2}},
		types.CallLabel{Pid: 1, Cmd: types.Pwrite{FD: 3, Data: []byte{0}, Size: 1, Off: 7}},
		types.CallLabel{Pid: 1, Cmd: types.Lseek{FD: 3, Off: -5, Whence: types.SeekCur}},
		types.CallLabel{Pid: 1, Cmd: types.Opendir{Path: "d"}},
		types.CallLabel{Pid: 1, Cmd: types.Readdir{DH: 2}},
		types.CallLabel{Pid: 1, Cmd: types.Closedir{DH: 2}},
		types.CallLabel{Pid: 1, Cmd: types.Rewinddir{DH: 2}},
		types.CallLabel{Pid: 1, Cmd: types.AddUserToGroup{Uid: 7, Gid: 8}},
		types.ReturnLabel{Pid: 1, Ret: types.RvNone{}},
		types.ReturnLabel{Pid: 4, Ret: types.RvNum{N: -1}},
		types.ReturnLabel{Pid: 1, Ret: types.RvBytes{Data: []byte("a\"b")}},
		types.ReturnLabel{Pid: 1, Ret: types.RvErr{Err: types.ENOTEMPTY}},
		types.ReturnLabel{Pid: 1, Ret: types.RvFD{FD: 3}},
		types.ReturnLabel{Pid: 1, Ret: types.RvDH{DH: 1}},
		types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "e"}},
		types.ReturnLabel{Pid: 1, Ret: types.RvDirent{End: true}},
		types.ReturnLabel{Pid: 1, Ret: types.RvPerm{Perm: 0o77}},
		types.ReturnLabel{Pid: 1, Ret: types.RvStats{Stats: types.Stats{
			Kind: types.KindSymlink, Perm: 0o777, Size: 5, Nlink: 2, Uid: 3, Gid: 4,
		}}},
		types.CreateLabel{Pid: 2, Uid: 1000, Gid: 1000},
		types.DestroyLabel{Pid: 2},
		types.TauLabel{},
	}
	for _, l := range labels {
		line := string(appendLabel(nil, l))
		got, err := ParseLabel(line)
		if err != nil {
			t.Errorf("parse %q: %v", line, err)
			continue
		}
		if got.String() != l.String() {
			t.Errorf("roundtrip %q -> %q", l, got)
		}
	}
}

func TestScriptRenderParseRoundtrip(t *testing.T) {
	s := &Script{Name: "demo", Steps: []Step{
		{Label: types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "d", Perm: 0o755}}},
		{Label: types.CreateLabel{Pid: 2, Uid: 1, Gid: 1}},
		{Label: types.CallLabel{Pid: 2, Cmd: types.Stat{Path: "d"}}},
		{Label: types.DestroyLabel{Pid: 2}},
	}}
	got, err := ParseScript(s.Render())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "demo" || len(got.Steps) != 4 {
		t.Fatalf("roundtrip lost data: %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`mkdir "unterminated`,
		`mkdir "d"`,
		`mkdir "d" 0o777 extra`,
		`frobnicate "d"`,
		`open "f" O_CREAT`,
		`close (XX 3)`,
		`lseek (FD 3) 0 SEEK_HOLE`,
		`1: RV_num(abc)`,
	}
	for _, line := range bad {
		if _, err := ParseLabel(line); err == nil {
			t.Errorf("ParseLabel(%q) unexpectedly succeeded", line)
		}
	}
}

func TestStatsRecordParsing(t *testing.T) {
	st, err := parseStatsRecord("{ st_kind=S_IFDIR; st_perm=0o755; st_size=0; st_nlink=3; st_uid=1; st_gid=2 }")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != types.KindDir || st.Perm != 0o755 || st.Nlink != 3 || st.Uid != 1 || st.Gid != 2 {
		t.Errorf("parsed %+v", st)
	}
	if _, err := parseStatsRecord("{ st_weird=1 }"); err == nil {
		t.Error("unknown field accepted")
	}
}

// Property: rendering any string through a write command and parsing it
// back preserves the data exactly (quoting is sound).
func TestQuotingProperty(t *testing.T) {
	f := func(data []byte) bool {
		l := types.CallLabel{Pid: 1, Cmd: types.Write{FD: 3, Data: data, Size: int64(len(data))}}
		got, err := ParseLabel(string(appendLabel(nil, l)))
		if err != nil {
			return false
		}
		call, ok := got.(types.CallLabel)
		if !ok {
			return false
		}
		w, ok := call.Cmd.(types.Write)
		return ok && string(w.Data) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizerEdgeCases(t *testing.T) {
	toks, err := tokenize(`a "b c" [X;Y] (FD 3) { k=v } end`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", `"b c"`, "[X;Y]", "(FD 3)", "{ k=v }", "end"}
	if len(toks) != len(want) {
		t.Fatalf("toks = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("tok %d = %q want %q", i, toks[i], want[i])
		}
	}
	for _, bad := range []string{`"unterminated`, "[unterminated", "(unterminated", "{unterminated"} {
		if _, err := tokenize(bad); err == nil {
			t.Errorf("tokenize(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestRenderContainsHeader(t *testing.T) {
	s := &Script{Name: "n"}
	if !strings.HasPrefix(s.Render(), "@type script\n") {
		t.Error("script header missing")
	}
	tr := &Trace{Name: "n"}
	if !strings.HasPrefix(tr.Render(), "@type trace\n") {
		t.Error("trace header missing")
	}
}
