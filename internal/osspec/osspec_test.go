package osspec

import (
	"testing"

	"repro/internal/types"
)

func callRet(t *testing.T, s *OsState, pid types.Pid, cmd types.Command) ([]*OsState, []types.RetValue) {
	t.Helper()
	called := Trans(s, types.CallLabel{Pid: pid, Cmd: cmd}, nil)
	if len(called) != 1 {
		t.Fatalf("call %v: %d successors", cmd, len(called))
	}
	cands := TauFor(called[0], pid, nil)
	if len(cands) == 0 {
		t.Fatalf("tau %v: no successors", cmd)
	}
	var rvs []types.RetValue
	for _, c := range cands {
		rvs = append(rvs, ConcreteReturns(c, pid)...)
	}
	return cands, rvs
}

// run drives one command to completion, choosing the first successful
// return (or the first return at all), and returns the advanced state.
func run(t *testing.T, s *OsState, pid types.Pid, cmd types.Command) (*OsState, types.RetValue) {
	t.Helper()
	cands, _ := callRet(t, s, pid, cmd)
	var best *OsState
	var bestRv types.RetValue
	for _, c := range cands {
		for _, rv := range ConcreteReturns(c, pid) {
			after := Trans(c, types.ReturnLabel{Pid: pid, Ret: rv}, nil)
			if len(after) == 0 {
				continue
			}
			if bestRv == nil || (types.IsError(bestRv) && !types.IsError(rv)) {
				best, bestRv = after[0], rv
			}
		}
	}
	if best == nil {
		t.Fatalf("command %v produced no completable return", cmd)
	}
	return best, bestRv
}

func TestCallBlocksProcess(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	called := Trans(s, types.CallLabel{Pid: 1, Cmd: types.Stat{Path: "/"}}, nil)
	if len(called) != 1 {
		t.Fatal("call failed")
	}
	// A second call from the same (now blocked) process is not allowed.
	if got := Trans(called[0], types.CallLabel{Pid: 1, Cmd: types.Stat{Path: "/"}}, nil); len(got) != 0 {
		t.Error("blocked process accepted a second call")
	}
	// But a different process may call (receptivity).
	created := Trans(called[0], types.CreateLabel{Pid: 2, Uid: 0, Gid: 0}, nil)
	if len(created) != 1 {
		t.Fatal("create failed")
	}
	if got := Trans(created[0], types.CallLabel{Pid: 2, Cmd: types.Stat{Path: "/"}}, nil); len(got) != 1 {
		t.Error("receptivity violated")
	}
}

func TestTauProcessesAnyCallingProcess(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s2 := Trans(s, types.CreateLabel{Pid: 2, Uid: 0, Gid: 0}, nil)[0]
	a := Trans(s2, types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}}, nil)[0]
	b := Trans(a, types.CallLabel{Pid: 2, Cmd: types.Mkdir{Path: "/b", Perm: 0o755}}, nil)[0]
	// τ may process either pending call: two distinct successors.
	succ := Trans(b, types.TauLabel{}, nil)
	if len(succ) != 2 {
		t.Fatalf("tau successors = %d, want 2 (concurrency nondeterminism)", len(succ))
	}
}

func TestMkdirThroughLTS(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, rv := run(t, s, 1, types.Mkdir{Path: "/d", Perm: 0o777})
	if !rv.Equal(types.RvNone{}) {
		t.Fatalf("mkdir returned %v", rv)
	}
	if _, ok := s.H.Lookup(s.H.Root, "d"); !ok {
		t.Fatal("directory missing after return")
	}
}

func TestOpenReadWriteLifecycle(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, rv := run(t, s, 1, types.Open{Path: "/f", Flags: types.OCreat | types.ORdwr, Perm: 0o644, HasPerm: true})
	fd := rv.(types.RvFD).FD
	if fd != 3 {
		t.Fatalf("first fd = %d, want 3", fd)
	}
	s, rv = run(t, s, 1, types.Write{FD: fd, Data: []byte("hello"), Size: 5})
	if n := rv.(types.RvNum).N; n != 5 {
		t.Fatalf("write returned %d", n)
	}
	s, rv = run(t, s, 1, types.Lseek{FD: fd, Off: 0, Whence: types.SeekSet})
	if n := rv.(types.RvNum).N; n != 0 {
		t.Fatalf("lseek returned %d", n)
	}
	s, rv = run(t, s, 1, types.Read{FD: fd, Size: 5})
	if b := rv.(types.RvBytes); string(b.Data) != "hello" {
		t.Fatalf("read returned %q", b.Data)
	}
	s, rv = run(t, s, 1, types.Close{FD: fd})
	if !rv.Equal(types.RvNone{}) {
		t.Fatalf("close returned %v", rv)
	}
	// After close the descriptor is dead.
	_, rvs := callRet(t, s, 1, types.Read{FD: fd, Size: 1})
	if len(rvs) != 1 || !rvs[0].Equal(types.RvErr{Err: types.EBADF}) {
		t.Fatalf("read after close allows %v", rvs)
	}
}

func TestShortReadLooseness(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, rv := run(t, s, 1, types.Open{Path: "/f", Flags: types.OCreat | types.ORdwr, Perm: 0o644, HasPerm: true})
	fd := rv.(types.RvFD).FD
	s, _ = run(t, s, 1, types.Write{FD: fd, Data: []byte("abcdef"), Size: 6})
	s, _ = run(t, s, 1, types.Lseek{FD: fd, Off: 0, Whence: types.SeekSet})
	// The model must accept ANY non-empty prefix.
	called := Trans(s, types.CallLabel{Pid: 1, Cmd: types.Read{FD: fd, Size: 6}}, nil)[0]
	cand := TauFor(called, 1, nil)[0]
	for _, data := range []string{"a", "abc", "abcdef"} {
		after := Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvBytes{Data: []byte(data)}}, nil)
		if len(after) != 1 {
			t.Errorf("prefix %q not accepted", data)
			continue
		}
		// The offset advanced by exactly the observed amount.
		p := after[0].procs.get(1)
		fid := after[0].fids[p.Fds[fd]]
		if fid.Offset != int64(len(data)) {
			t.Errorf("offset after %q = %d", data, fid.Offset)
		}
	}
	// Wrong data and empty reads are rejected.
	for _, bad := range []types.RetValue{
		types.RvBytes{Data: []byte("x")},
		types.RvBytes{Data: nil},
		types.RvNum{N: 3},
	} {
		if after := Trans(cand, types.ReturnLabel{Pid: 1, Ret: bad}, nil); len(after) != 0 {
			t.Errorf("bad return %v accepted", bad)
		}
	}
}

func TestShortWriteLooseness(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, rv := run(t, s, 1, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
	fd := rv.(types.RvFD).FD
	called := Trans(s, types.CallLabel{Pid: 1, Cmd: types.Write{FD: fd, Data: []byte("abcd"), Size: 4}}, nil)[0]
	// τ branches into the complete write (effect applied at the τ point)
	// and the short-write continuation (effect at return-match time); the
	// union of candidates must allow exactly n ∈ 1..4.
	cands := TauFor(called, 1, nil)
	trans := func(rv types.RetValue) []*OsState {
		var after []*OsState
		for _, cand := range cands {
			after = append(after, Trans(cand, types.ReturnLabel{Pid: 1, Ret: rv}, nil)...)
		}
		return after
	}
	for n := int64(1); n <= 4; n++ {
		after := trans(types.RvNum{N: n})
		if len(after) != 1 {
			t.Errorf("write of %d bytes allowed by %d candidate states, want 1", n, len(after))
			continue
		}
		p := after[0].procs.get(1)
		fid := after[0].fids[p.Fds[fd]]
		f := after[0].H.File(fid.File)
		if int64(len(f.Bytes)) != n {
			t.Errorf("file length after write(%d) = %d", n, len(f.Bytes))
		}
	}
	if after := trans(types.RvNum{N: 0}); len(after) != 0 {
		t.Error("zero write of non-empty data accepted")
	}
	if after := trans(types.RvNum{N: 5}); len(after) != 0 {
		t.Error("over-long write accepted")
	}
}

func TestReaddirMustMay(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, _ = run(t, s, 1, types.Mkdir{Path: "/d", Perm: 0o755})
	for _, n := range []string{"a", "b", "c"} {
		var rv types.RetValue
		s, rv = run(t, s, 1, types.Open{Path: "/d/" + n, Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
		s, _ = run(t, s, 1, types.Close{FD: rv.(types.RvFD).FD})
	}
	s, rv := run(t, s, 1, types.Opendir{Path: "/d"})
	dh := rv.(types.RvDH).DH

	// Any of a,b,c may come first; end is not allowed while must is
	// non-empty.
	called := Trans(s, types.CallLabel{Pid: 1, Cmd: types.Readdir{DH: dh}}, nil)[0]
	cand := TauFor(called, 1, nil)[0]
	for _, n := range []string{"a", "b", "c"} {
		if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: n}}, nil)) != 1 {
			t.Errorf("entry %q rejected", n)
		}
	}
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{End: true}}, nil)) != 0 {
		t.Error("premature end-of-directory accepted")
	}
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "zz"}}, nil)) != 0 {
		t.Error("phantom entry accepted")
	}

	// Take "b"; it must not be returned again.
	s = Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "b"}}, nil)[0]
	called = Trans(s, types.CallLabel{Pid: 1, Cmd: types.Readdir{DH: dh}}, nil)[0]
	cand = TauFor(called, 1, nil)[0]
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "b"}}, nil)) != 0 {
		t.Error("entry returned twice")
	}
}

func TestReaddirConcurrentDeletion(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, _ = run(t, s, 1, types.Mkdir{Path: "/d", Perm: 0o755})
	for _, n := range []string{"a", "b"} {
		var rv types.RetValue
		s, rv = run(t, s, 1, types.Open{Path: "/d/" + n, Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
		s, _ = run(t, s, 1, types.Close{FD: rv.(types.RvFD).FD})
	}
	s, rv := run(t, s, 1, types.Opendir{Path: "/d"})
	dh := rv.(types.RvDH).DH

	// Delete "a" before any readdir: it becomes may — both returning it
	// and skipping to only "b" are allowed.
	s, _ = run(t, s, 1, types.Unlink{Path: "/d/a"})
	called := Trans(s, types.CallLabel{Pid: 1, Cmd: types.Readdir{DH: dh}}, nil)[0]
	cand := TauFor(called, 1, nil)[0]
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "a"}}, nil)) != 1 {
		t.Error("deleted-but-unreturned entry must be allowed (may set)")
	}
	sB := Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "b"}}, nil)
	if len(sB) != 1 {
		t.Fatal("remaining entry rejected")
	}
	// After "b", end is allowed (must is empty; "a" is only may).
	called = Trans(sB[0], types.CallLabel{Pid: 1, Cmd: types.Readdir{DH: dh}}, nil)[0]
	cand = TauFor(called, 1, nil)[0]
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{End: true}}, nil)) != 1 {
		t.Error("end not allowed though must is drained")
	}
	// ... and "a" may also still be returned.
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "a"}}, nil)) != 1 {
		t.Error("may entry rejected after drain")
	}
}

func TestReaddirAddition(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, _ = run(t, s, 1, types.Mkdir{Path: "/d", Perm: 0o755})
	s, rv := run(t, s, 1, types.Opendir{Path: "/d"})
	dh := rv.(types.RvDH).DH
	// Add an entry after opendir: returning it and not returning it are
	// both allowed.
	s, rv = run(t, s, 1, types.Open{Path: "/d/new", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
	s, _ = run(t, s, 1, types.Close{FD: rv.(types.RvFD).FD})
	called := Trans(s, types.CallLabel{Pid: 1, Cmd: types.Readdir{DH: dh}}, nil)[0]
	cand := TauFor(called, 1, nil)[0]
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "new"}}, nil)) != 1 {
		t.Error("added entry not in may set")
	}
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{End: true}}, nil)) != 1 {
		t.Error("end not allowed though must is empty")
	}
}

func TestRewinddirResets(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, _ = run(t, s, 1, types.Mkdir{Path: "/d", Perm: 0o755})
	s, rv := run(t, s, 1, types.Open{Path: "/d/a", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
	s, _ = run(t, s, 1, types.Close{FD: rv.(types.RvFD).FD})
	s, rv = run(t, s, 1, types.Opendir{Path: "/d"})
	dh := rv.(types.RvDH).DH
	s, rv = run(t, s, 1, types.Readdir{DH: dh})
	if d := rv.(types.RvDirent); d.End || d.Name != "a" {
		t.Fatalf("first readdir = %v", rv)
	}
	s, _ = run(t, s, 1, types.Rewinddir{DH: dh})
	// After rewind, "a" must be returned again.
	called := Trans(s, types.CallLabel{Pid: 1, Cmd: types.Readdir{DH: dh}}, nil)[0]
	cand := TauFor(called, 1, nil)[0]
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{End: true}}, nil)) != 0 {
		t.Error("end accepted right after rewind of non-empty dir")
	}
	if len(Trans(cand, types.ReturnLabel{Pid: 1, Ret: types.RvDirent{Name: "a"}}, nil)) != 1 {
		t.Error("entry rejected after rewind")
	}
}

func TestUmaskAffectsCreation(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, rv := run(t, s, 1, types.Umask{Mask: 0o077})
	if p := rv.(types.RvPerm).Perm; p != 0o022 {
		t.Fatalf("old umask = %v", p)
	}
	s, _ = run(t, s, 1, types.Mkdir{Path: "/d", Perm: 0o777})
	e, _ := s.H.Lookup(s.H.Root, "d")
	if s.H.Dir(e.Dir).Perm != 0o700 {
		t.Errorf("perm = %o, want 700", s.H.Dir(e.Dir).Perm)
	}
}

func TestProcessDestroyClosesFds(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s = Trans(s, types.CreateLabel{Pid: 2, Uid: 0, Gid: 0}, nil)[0]
	s, rv := run(t, s, 2, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
	_ = rv
	if len(s.fids) != 1 {
		t.Fatalf("fids = %d", len(s.fids))
	}
	s = Trans(s, types.DestroyLabel{Pid: 2}, nil)[0]
	if len(s.fids) != 0 {
		t.Error("descriptors leaked across destroy")
	}
	if s.procs.get(2) != nil {
		t.Error("process survived destroy")
	}
}

func TestPerProcessCwd(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s = Trans(s, types.CreateLabel{Pid: 2, Uid: 0, Gid: 0}, nil)[0]
	s, _ = run(t, s, 1, types.Mkdir{Path: "/a", Perm: 0o755})
	s, _ = run(t, s, 1, types.Chdir{Path: "/a"})
	if s.procs.get(1).Cwd == s.procs.get(2).Cwd {
		t.Error("chdir leaked across processes")
	}
	// pid 1 creates relative; pid 2 must not see it relative to its cwd.
	s, _ = run(t, s, 1, types.Mkdir{Path: "rel", Perm: 0o755})
	_, rvs := callRet(t, s, 2, types.Stat{Path: "rel"})
	if len(rvs) != 1 || !rvs[0].Equal(types.RvErr{Err: types.ENOENT}) {
		t.Errorf("pid2 stat rel = %v", rvs)
	}
}

func TestFingerprintDistinguishesStates(t *testing.T) {
	a := NewOsState(types.DefaultSpec())
	b := a.Clone()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	b2, _ := run(t, b, 1, types.Mkdir{Path: "/x", Perm: 0o755})
	if a.Fingerprint() == b2.Fingerprint() {
		t.Error("different states share a fingerprint")
	}
}

func TestCloneIndependenceOsState(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, rv := run(t, s, 1, types.Open{Path: "/f", Flags: types.OCreat | types.ORdwr, Perm: 0o644, HasPerm: true})
	fd := rv.(types.RvFD).FD
	c := s.Clone()
	c.mutProc(1).Umask = 0o777
	c.mutFid(c.procs.get(1).Fds[fd]).Offset = 99
	c.addGroupMember(5, 7)
	if s.procs.get(1).Umask == 0o777 {
		t.Error("umask shared")
	}
	if s.fids[s.procs.get(1).Fds[fd]].Offset == 99 {
		t.Error("fid shared")
	}
	if _, ok := s.groups[5]; ok {
		t.Error("groups shared")
	}
}

func TestFig8SequenceInModel(t *testing.T) {
	// mkdir deserted; chdir; rmdir ../deserted; open party O_CREAT —
	// the model requires ENOENT (conforming behaviour), never a hang.
	s := NewOsState(types.DefaultSpec())
	s, _ = run(t, s, 1, types.Mkdir{Path: "deserted", Perm: 0o700})
	s, _ = run(t, s, 1, types.Chdir{Path: "deserted"})
	s, rv := run(t, s, 1, types.Rmdir{Path: "../deserted"})
	if !rv.Equal(types.RvNone{}) {
		t.Fatalf("rmdir of cwd = %v", rv)
	}
	_, rvs := callRet(t, s, 1, types.Open{Path: "party", Flags: types.OCreat | types.ORdonly, Perm: 0o600, HasPerm: true})
	if len(rvs) != 1 || !rvs[0].Equal(types.RvErr{Err: types.ENOENT}) {
		t.Errorf("create in disconnected cwd allows %v, want exactly ENOENT", rvs)
	}
}

func TestPendingDescribe(t *testing.T) {
	if got := (PendingExact{Rv: types.RvNone{}}).Describe(); got != "RV_none" {
		t.Errorf("exact describe = %q", got)
	}
	if d := (PendingReadPrefix{Data: []byte("ab")}).Describe(); d == "" {
		t.Error("read describe empty")
	}
	if got := (PendingWriteUpTo{Data: []byte("abc")}).Describe(); got != "RV_num(1..3)" {
		t.Errorf("write describe = %q", got)
	}
	if got := (PendingWriteUpTo{}).Describe(); got != "RV_num(0)" {
		t.Errorf("empty write describe = %q", got)
	}
}
