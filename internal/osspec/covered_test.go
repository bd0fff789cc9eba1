package osspec

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cov"

	"repro/internal/types"
)

// withCaller is a fresh state of spec in which process 2 exists and has
// called mkdir "/x", so it is what a return of process 1 would cover.
func withCaller(t *testing.T, spec types.Spec) *OsState {
	t.Helper()
	s := NewOsState(spec)
	created := Trans(s, types.CreateLabel{Pid: 2}, nil)
	if len(created) != 1 {
		t.Fatalf("create 2: %d successors", len(created))
	}
	called := Trans(created[0], types.CallLabel{Pid: 2, Cmd: types.Mkdir{Path: "/x", Perm: 0o755}}, nil)
	if len(called) != 1 {
		t.Fatalf("call 2: %d successors", len(called))
	}
	return called[0]
}

// TestReturnCovered: a return covers the calling pids only when it is a
// pure process-table update — a PendingExact or PendingAny, outside
// crash mode. The pendings whose Match reads the state or whose Finalize
// writes it, and every crash-mode state, get no bits.
func TestReturnCovered(t *testing.T) {
	base := withCaller(t, types.DefaultSpec())
	crash := withCaller(t, crashSpec())
	for _, c := range []struct {
		name string
		s    *OsState
		want uint64
	}{
		{"exact", returningAs(base, InitialPid, PendingExact{Rv: types.RvNone{}}), PidBit(2)},
		{"any", returningAs(base, InitialPid, PendingAny{Why: "undefined"}), PidBit(2)},
		{"read prefix", returningAs(base, InitialPid, PendingReadPrefix{Pid: InitialPid, Fid: 1, Data: []byte("ab"), Seq: true}), 0},
		{"write up to", returningAs(base, InitialPid, PendingWriteUpTo{Pid: InitialPid, Fid: 1, Data: []byte("ab"), At: -1, Seq: true}), 0},
		{"readdir", returningAs(base, InitialPid, PendingReaddir{Pid: InitialPid, DH: 1}), 0},
		{"crash mode", returningAs(crash, InitialPid, PendingExact{Rv: types.RvNone{}}), 0},
	} {
		if got := ReturnCovered(c.s, InitialPid); got != c.want {
			t.Errorf("%s: ReturnCovered = %b, want %b", c.name, got, c.want)
		}
	}
	if got := ReturnCovered(base, 3); got != 0 {
		t.Errorf("a pid with no process: ReturnCovered = %b, want 0", got)
	}
	if PidBit(64) != 0 || PidBit(-1) != 0 {
		t.Error("pids outside [0, 64) must have no bit")
	}
}

// TestTauClosureCovered: a seed whose τ_2-successor is already an input
// state may skip it — the closure comes out the same, one expansion
// cheaper.
func TestTauClosureCovered(t *testing.T) {
	x := withCaller(t, types.DefaultSpec())
	called := Trans(x, types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/y", Perm: 0o755}}, nil)
	if len(called) != 1 {
		t.Fatalf("call 1: %d successors", len(called))
	}
	x = called[0]
	y := TauFor(x, 2, nil)
	if len(y) != 1 {
		t.Fatalf("τ_2: %d successors", len(y))
	}
	seeds := []*OsState{x, y[0]}
	plain, n, _ := TauClosureWith(seeds, ClosureOpts{})
	masked, m, _ := TauClosureWith(seeds, ClosureOpts{Covered: []uint64{PidBit(2), 0}})
	if len(masked) != len(plain) {
		t.Fatalf("%d states with the mask, %d without", len(masked), len(plain))
	}
	for i := range plain {
		if masked[i].Fingerprint() != plain[i].Fingerprint() {
			t.Fatalf("state %d differs with the mask", i)
		}
	}
	if m != n-1 {
		t.Errorf("%d expansions with the mask, want %d (%d without)", m, n-1, n)
	}
}

// TestPendingExactHashCached: succExact caches the description hash, and
// identity uses it — equal to the rendered digest, and telling apart
// different PendingExacts without rendering, while equal-hash pairs and
// pairs with an uncached side still compare by rendered bytes.
func TestPendingExactHashCached(t *testing.T) {
	st := types.Stats{Kind: types.KindFile, Perm: 0o644, Size: 3, Nlink: 1}
	a := exactPending(types.RvStats{Stats: st})
	b := exactPending(types.RvStats{Stats: st}) // renders like a
	st.Size = 4
	c := exactPending(types.RvStats{Stats: st})
	if a.h == 0 || a.h != pendingHash(PendingExact{Rv: a.Rv}) {
		t.Fatalf("cached hash %x, rendered %x", a.h, pendingHash(PendingExact{Rv: a.Rv}))
	}
	if !pendingEqual(a, b) || pendingEqual(a, c) || !pendingEqual(a, PendingExact{Rv: b.Rv}) {
		t.Fatal("cached hashes changed pending identity")
	}
	zero := exactPending(types.RvNum{N: 0})
	if !pendingEqual(zero, PendingWriteUpTo{}) || pendingHash(zero) != pendingHash(PendingWriteUpTo{}) {
		t.Fatal("a PendingExact no longer matches another kind that renders alike")
	}
}

// TestLocalSuccessors: with another process calling alongside, every
// successor of a stat, lstat or readlink — whatever it resolves to — and
// every error successor of any call is local, and stat, lstat and
// readlink are local statically too. A successful mkdir, creat or close
// writes shared state and is not.
func TestLocalSuccessors(t *testing.T) {
	base := withCaller(t, types.DefaultSpec()) // process 2 calls mkdir "/x"
	for _, lbl := range []types.Label{
		types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/d", Perm: 0o755}},
		types.TauLabel{},
		types.ReturnLabel{Pid: InitialPid, Ret: types.RvNone{}},
		types.CallLabel{Pid: InitialPid, Cmd: types.Symlink{Target: "/d", Linkpath: "/l"}},
		types.TauLabel{},
		types.ReturnLabel{Pid: InitialPid, Ret: types.RvNone{}},
		types.CallLabel{Pid: InitialPid, Cmd: types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}},
		types.TauLabel{},
		types.ReturnLabel{Pid: InitialPid, Ret: types.RvFD{FD: 3}},
	} {
		next := Trans(base, lbl, nil)
		if _, tau := lbl.(types.TauLabel); tau {
			next = TauFor(base, InitialPid, nil)
		}
		if len(next) != 1 {
			t.Fatalf("%s: %d successors, want 1", lbl, len(next))
		}
		base = next[0]
	}
	call := func(cmd types.Command) (*OsState, []*OsState) {
		t.Helper()
		called := Trans(base, types.CallLabel{Pid: InitialPid, Cmd: cmd}, nil)
		if len(called) != 1 {
			t.Fatalf("call %s: %d successors", cmd, len(called))
		}
		return called[0], TauFor(called[0], InitialPid, nil)
	}
	isErr := func(c *OsState) bool {
		pe, ok := c.Proc(InitialPid).PendingRet.(PendingExact)
		if !ok {
			return false
		}
		_, ok = pe.Rv.(types.RvErr)
		return ok
	}
	var reads, errs int
	for _, path := range []string{"/", "/d", "/d/", "/f", "/f/", "/l", "/l/", "/missing", "/missing/x", "/f/x", "d", "//d"} {
		for _, cmd := range []types.Command{types.Stat{Path: path}, types.Lstat{Path: path}, types.Readlink{Path: path}} {
			s, succs := call(cmd)
			if staticLocal(s)&PidBit(InitialPid) == 0 {
				t.Errorf("%s is not statically local", cmd)
			}
			for _, c := range succs {
				reads++
				if !localStep(s, c, InitialPid) {
					t.Errorf("%s: a successor is not local", cmd)
				}
			}
		}
		for _, cmd := range []types.Command{
			types.Mkdir{Path: path, Perm: 0o755}, types.Rmdir{Path: path}, types.Unlink{Path: path},
			types.Open{Path: path, Flags: types.OCreat | types.OExcl | types.OWronly, Perm: 0o644, HasPerm: true},
			types.Rename{Src: path, Dst: "/d"}, types.Link{Src: path, Dst: "/f"},
			types.Truncate{Path: path, Len: 1}, types.Chdir{Path: path},
		} {
			s, succs := call(cmd)
			for _, c := range succs {
				if isErr(c) {
					errs++
					if !localStep(s, c, InitialPid) {
						t.Errorf("%s: an error successor is not local", cmd)
					}
				}
			}
		}
	}
	if reads == 0 || errs == 0 {
		t.Fatalf("%d read and %d error successors checked", reads, errs)
	}
	for _, cmd := range []types.Command{
		types.Mkdir{Path: "/n", Perm: 0o755},
		types.Open{Path: "/g", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true},
		types.Close{FD: 3},
	} {
		s, succs := call(cmd)
		if staticLocal(s)&PidBit(InitialPid) != 0 {
			t.Errorf("%s is statically local", cmd)
		}
		for _, c := range succs {
			if !isErr(c) && localStep(s, c, InitialPid) {
				t.Errorf("%s: a successful successor is local", cmd)
			}
		}
	}
}

// TestTauClosureWorkersAgree: two workers closing the same frozen
// five-way race at once, each on its own goroutine with its own coverage
// set, agree with each other and with a closure run alone — states,
// expansions, whose sleep bits prune, and coverage. Traces checked on several goroutines share their
// initial state this way; under -race this pins those reads race-free.
func TestTauClosureWorkersAgree(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	for pid := types.Pid(2); pid <= 5; pid++ {
		s = Trans(s, types.CreateLabel{Pid: pid}, nil)[0]
	}
	for pid := types.Pid(1); pid <= 5; pid++ {
		cmd := types.Command(types.Mkdir{Path: "/x", Perm: 0o755})
		if pid%2 == 0 {
			cmd = types.Stat{Path: "/x"}
		}
		s = Trans(s, types.CallLabel{Pid: pid, Cmd: cmd}, nil)[0]
	}
	s.Hash()
	s.Freeze()
	type run struct {
		fps  []string
		n    int
		hits cov.Set
	}
	closure := func() (r run) {
		out, n, _ := TauClosureWith([]*OsState{s}, ClosureOpts{Cov: &r.hits})
		r.n = n
		for _, st := range out {
			r.fps = append(r.fps, st.Fingerprint())
		}
		return r
	}
	want := closure()
	var got [2]run
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = closure()
		}()
	}
	wg.Wait()
	for w, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("worker %d closed %d states from %d expansions (points %v), alone %d from %d (%v)",
				w, len(g.fps), g.n, g.hits.Names(), len(want.fps), want.n, want.hits.Names())
		}
	}
}
