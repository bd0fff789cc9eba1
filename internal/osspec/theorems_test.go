package osspec

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// This file checks, by randomised property testing, the two sanity
// theorems the paper proved in HOL4/Isabelle for a previous model version
// (§1 "Contributions"):
//
//	(a) libc calls that result in an error do not change the abstract
//	    file-system state;
//	(b) in the absence of resource-limit failures, whether a call succeeds
//	    or fails is deterministic.

// randomCommand draws a command over a small path universe so collisions
// (existing files, dirs, symlinks) are frequent.
func randomCommand(r *rand.Rand) types.Command {
	paths := []string{
		"/a", "/b", "/d", "/d/x", "/d/y", "/s", "/missing", "/d/../a",
		"a", "d/x", "/d/", "/a/", "",
	}
	p := func() string { return paths[r.Intn(len(paths))] }
	switch r.Intn(12) {
	case 0:
		return types.Mkdir{Path: p(), Perm: types.Perm(r.Intn(0o1000))}
	case 1:
		return types.Rmdir{Path: p()}
	case 2:
		return types.Unlink{Path: p()}
	case 3:
		return types.Link{Src: p(), Dst: p()}
	case 4:
		return types.Rename{Src: p(), Dst: p()}
	case 5:
		return types.Symlink{Target: p(), Linkpath: p()}
	case 6:
		return types.Stat{Path: p()}
	case 7:
		return types.Lstat{Path: p()}
	case 8:
		return types.Truncate{Path: p(), Len: int64(r.Intn(10) - 2)}
	case 9:
		return types.Chmod{Path: p(), Perm: types.Perm(r.Intn(0o1000))}
	case 10:
		return types.Readlink{Path: p()}
	default:
		return types.Open{
			Path:    p(),
			Flags:   types.OpenFlags(r.Intn(1 << 10)),
			Perm:    types.Perm(r.Intn(0o1000)),
			HasPerm: true,
		}
	}
}

// randomState builds a state by executing a few random successful commands.
func randomState(t *testing.T, r *rand.Rand) *OsState {
	s := NewOsState(types.DefaultSpec())
	s, _ = run(t, s, 1, types.Mkdir{Path: "/d", Perm: 0o755})
	s, rv := run(t, s, 1, types.Open{Path: "/a", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
	s, _ = run(t, s, 1, types.Close{FD: rv.(types.RvFD).FD})
	s, _ = run(t, s, 1, types.Symlink{Target: "a", Linkpath: "/s"})
	for i := 0; i < r.Intn(4); i++ {
		cmd := randomCommand(r)
		called := Trans(s, types.CallLabel{Pid: 1, Cmd: cmd}, nil)
		if len(called) == 0 {
			continue
		}
		cands := TauFor(called[0], 1, nil)
		if len(cands) == 0 {
			continue
		}
		for _, c := range cands {
			for _, rv := range ConcreteReturns(c, 1) {
				if after := Trans(c, types.ReturnLabel{Pid: 1, Ret: rv}, nil); len(after) > 0 {
					s = after[0]
					goto next
				}
			}
		}
	next:
	}
	return s
}

// TestTheoremErrorsPreserveState: every error candidate state has the same
// file-system fingerprint as the pre-call state.
func TestTheoremErrorsPreserveState(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		s := randomState(t, r)
		cmd := randomCommand(r)
		before := s.fsFingerprint()
		called := Trans(s, types.CallLabel{Pid: 1, Cmd: cmd}, nil)
		if len(called) == 0 {
			continue
		}
		for _, cand := range TauFor(called[0], 1, nil) {
			p := cand.procs.get(1)
			pe, ok := p.PendingRet.(PendingExact)
			if !ok || !types.IsError(pe.Rv) {
				continue
			}
			after := Trans(cand, types.ReturnLabel{Pid: 1, Ret: pe.Rv}, nil)
			if len(after) != 1 {
				t.Fatalf("error return did not complete: %v %v", cmd, pe.Rv)
			}
			if after[0].fsFingerprint() != before {
				t.Fatalf("trial %d: error %v of %v changed the state", trial, pe.Rv, cmd)
			}
		}
	}
}

// TestTheoremSuccessDeterministic: for a fixed state and call, the model
// never allows both a success and an error (the error envelope and the
// success outcome are mutually exclusive), except for the documented
// implementation-defined cases (PendingAny) and the zero-length-write
// looseness.
func TestTheoremSuccessDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		s := randomState(t, r)
		cmd := randomCommand(r)
		called := Trans(s, types.CallLabel{Pid: 1, Cmd: cmd}, nil)
		if len(called) == 0 {
			continue
		}
		successes, errors, anys := 0, 0, 0
		for _, cand := range TauFor(called[0], 1, nil) {
			switch pend := cand.procs.get(1).PendingRet.(type) {
			case PendingExact:
				if types.IsError(pend.Rv) {
					errors++
				} else {
					successes++
				}
			case PendingAny:
				anys++
			default:
				successes++
			}
		}
		if anys > 0 {
			continue // implementation-defined: exempt
		}
		if w, ok := cmd.(types.Open); ok && w.Flags.Has(types.OWronly) && w.Flags.Has(types.ORdwr) {
			continue
		}
		if successes > 0 && errors > 0 {
			t.Fatalf("trial %d: %v allows both success and failure", trial, cmd)
		}
	}
}

// TestTheoremCheckingIsPure: Trans never mutates its input state.
func TestTheoremCheckingIsPure(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		s := randomState(t, r)
		fp := s.Fingerprint()
		cmd := randomCommand(r)
		called := Trans(s, types.CallLabel{Pid: 1, Cmd: cmd}, nil)
		if len(called) > 0 {
			TauFor(called[0], 1, nil)
		}
		Trans(s, types.TauLabel{}, nil)
		Trans(s, types.ReturnLabel{Pid: 1, Ret: types.RvNone{}}, nil)
		if s.Fingerprint() != fp {
			t.Fatalf("trial %d: Trans mutated its input on %v", trial, cmd)
		}
	}
}
