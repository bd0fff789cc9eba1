package osspec

// Property tests for hash-consed state identity: across randomized
// clone-and-mutate walks of the transition system,
//
//	StateEqual(a, b)  ⇔  a.Fingerprint() == b.Fingerprint()
//	fingerprints equal ⇒ hashes equal
//
// so the hash/equality engine merges exactly the states the legacy
// fingerprint-string deduplication merged — the invariant the checker's
// byte-identical-output guarantee rests on.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// randomWalkStates drives one random command walk and returns every state
// it passed through: pre-τ (calling), candidate (returning, with pending
// patterns of all kinds) and post-return states, plus multi-process
// create/destroy branches — a deliberately diverse population.
func randomWalkStates(rng *rand.Rand, steps int) []*OsState {
	cmds := func() types.Command {
		paths := []string{"/a", "/b", "/a/x", "/a/y", "/missing/z", "/s"}
		p := paths[rng.Intn(len(paths))]
		switch rng.Intn(12) {
		case 0:
			return types.Mkdir{Path: p, Perm: 0o755}
		case 1:
			return types.Open{Path: p, Flags: types.OCreat | types.ORdwr, Perm: 0o644, HasPerm: true}
		case 2:
			return types.Write{FD: types.FD(3 + rng.Intn(3)), Data: []byte("payload"), Size: 7}
		case 3:
			return types.Read{FD: types.FD(3 + rng.Intn(3)), Size: 4}
		case 4:
			return types.Unlink{Path: p}
		case 5:
			return types.Rename{Src: "/a", Dst: "/b"}
		case 6:
			return types.Chmod{Path: p, Perm: 0o700}
		case 7:
			return types.Symlink{Target: "/a", Linkpath: p}
		case 8:
			return types.Opendir{Path: "/a"}
		case 9:
			return types.Readdir{DH: types.DH(1)}
		case 10:
			return types.Lseek{FD: types.FD(3 + rng.Intn(3)), Off: int64(rng.Intn(5)), Whence: types.SeekSet}
		default:
			return types.Close{FD: types.FD(3 + rng.Intn(4))}
		}
	}
	pool := []*OsState{NewOsState(types.DefaultSpec())}
	cur := pool[0]
	nextPid := types.Pid(2)
	for i := 0; i < steps; i++ {
		if rng.Intn(8) == 0 {
			if created := Trans(cur, types.CreateLabel{Pid: nextPid, Uid: 0, Gid: 0}, nil); len(created) > 0 {
				nextPid++
				cur = created[0]
				pool = append(pool, cur)
				continue
			}
		}
		pid := InitialPid
		if nextPid > 2 && rng.Intn(3) == 0 {
			pid = types.Pid(2 + rng.Intn(int(nextPid)-2))
		}
		called := Trans(cur, types.CallLabel{Pid: pid, Cmd: cmds()}, nil)
		if len(called) == 0 {
			continue
		}
		pool = append(pool, called...)
		cands := TauFor(called[0], pid, nil)
		if len(cands) == 0 {
			cur = called[0]
			continue
		}
		pool = append(pool, cands...)
		cand := cands[rng.Intn(len(cands))]
		rvs := ConcreteReturns(cand, pid)
		if len(rvs) == 0 {
			continue
		}
		after := Trans(cand, types.ReturnLabel{Pid: pid, Ret: rvs[rng.Intn(len(rvs))]}, nil)
		if len(after) == 0 {
			continue
		}
		cur = after[0]
		pool = append(pool, cur)
	}
	return pool
}

// TestHashEqualityMatchesFingerprintContract compares every pair in the
// random pool: equality and hashing must agree with the fingerprint
// rendering in both directions.
func TestHashEqualityMatchesFingerprintContract(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := randomWalkStates(rng, 25)
		fps := make([]string, len(pool))
		for i, s := range pool {
			fps[i] = s.Fingerprint()
		}
		for i := 0; i < len(pool); i++ {
			for j := i; j < len(pool); j++ {
				fpEq := fps[i] == fps[j]
				eq := StateEqual(pool[i], pool[j])
				if fpEq != eq {
					t.Fatalf("seed %d: StateEqual=%v but fingerprint-equal=%v\nA: %s\nB: %s",
						seed, eq, fpEq, fps[i], fps[j])
				}
				if fpEq && pool[i].Hash() != pool[j].Hash() {
					t.Fatalf("seed %d: fingerprint-equal states hash %x vs %x\nfp: %s",
						seed, pool[i].Hash(), pool[j].Hash(), fps[i])
				}
			}
		}
	}
}

// TestHashMemoNeverGoesStale re-derives each pooled state's hash with a
// cold memo and compares: a mutation path that forgot to invalidate the
// memoised hash would surface here.
func TestHashMemoNeverGoesStale(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range randomWalkStates(rng, 40) {
		memo := s.Hash()
		s.hvOK = false
		if cold := s.Hash(); cold != memo {
			t.Fatalf("stale hash memo: %x vs cold %x\nstate: %s", memo, cold, s.Fingerprint())
		}
	}
}

// TestCloneMutatePairs pins the clone/mutate contract directly: a clone is
// indistinguishable from its source, and a mutation separates the pair
// under fingerprint, equality and (with overwhelming probability) hash.
func TestCloneMutatePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 10; round++ {
		pool := randomWalkStates(rng, 15)
		s := pool[rng.Intn(len(pool))]
		c := s.Clone()
		if !StateEqual(s, c) || s.Hash() != c.Hash() || s.Fingerprint() != c.Fingerprint() {
			t.Fatal("clone distinguishable from source")
		}
		// Mutate the clone through a real transition (the only supported
		// mutation path) and require the pair to separate consistently.
		called := Trans(c, types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/zz", Perm: 0o700}}, nil)
		if len(called) == 0 {
			continue
		}
		m := called[0]
		fpSep := m.Fingerprint() != s.Fingerprint()
		if !fpSep {
			t.Fatal("call label failed to change the fingerprint")
		}
		if StateEqual(m, s) {
			t.Fatal("mutated clone still StateEqual to source")
		}
		if m.Hash() == s.Hash() {
			t.Fatalf("mutated clone collided with source hash %x", s.Hash())
		}
		// And the source must be untouched by the clone's mutation.
		if s.Fingerprint() != c.Fingerprint() {
			t.Fatal("mutating a transition successor leaked into the source")
		}
	}
}

// TestStateSetMergesExactlyFingerprintDuplicates checks the set facade:
// adding the pool twice keeps exactly one representative per fingerprint.
func TestStateSetMergesExactlyFingerprintDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := randomWalkStates(rng, 30)
	distinct := make(map[string]bool)
	for _, s := range pool {
		distinct[s.Fingerprint()] = true
	}
	set := NewStateSet(len(pool))
	for _, s := range pool {
		set.Add(s)
	}
	for _, s := range pool {
		if set.Add(s.Clone()) {
			t.Fatal("a clone of a pooled state was not recognised as duplicate")
		}
	}
	if set.Len() != len(distinct) {
		t.Fatalf("set kept %d states, fingerprint count is %d", set.Len(), len(distinct))
	}
}

// returningAs is base with pid's process returning pend.
func returningAs(base *OsState, pid types.Pid, pend Pending) *OsState {
	s := base.Clone()
	p := s.mutProc(pid)
	p.Run = RsReturning
	p.PendingRet = pend
	return s
}

// TestPendingIdentityMatchesFingerprint holds hashing and equality to
// the fingerprint contract for returning states of every Pending kind.
// Each kind has variants that render alike — fields Describe omits, such
// as a stat's inode, a read's descriptor or a write's position — and
// variants that do not; the former must merge, the latter must not.
func TestPendingIdentityMatchesFingerprint(t *testing.T) {
	base := NewOsState(types.DefaultSpec())
	st := types.Stats{Kind: types.KindFile, Perm: 0o644, Size: 3, Nlink: 1, Ino: 7}
	stIno, stSize := st, st
	stIno.Ino = 8
	stSize.Size = 4
	pendings := []Pending{
		PendingExact{Rv: types.RvStats{Stats: st}},
		PendingExact{Rv: types.RvStats{Stats: stIno}},
		PendingExact{Rv: types.RvStats{Stats: stSize}},
		PendingExact{Rv: types.RvNum{N: 3}},
		PendingAny{Why: "undefined"},
		PendingAny{Why: "unspecified"},
		PendingReadPrefix{Pid: 1, Fid: 1, Data: []byte("abc"), Seq: true},
		PendingReadPrefix{Pid: 1, Fid: 2, Data: []byte("abc")},
		PendingReadPrefix{Pid: 1, Fid: 1, Data: []byte("ab\"c")},
		PendingWriteUpTo{Pid: 1, Fid: 1, Data: []byte("abc"), At: -1},
		PendingWriteUpTo{Pid: 1, Fid: 1, Data: []byte("xyz"), At: 5, Seq: true},
		PendingWriteUpTo{Pid: 1, Fid: 1, Data: nil},
		PendingReaddir{Pid: 1, DH: 1},
		PendingReaddir{Pid: 2, DH: 1},
		PendingReaddir{Pid: 1, DH: 2},
		// succExact's cached hashes must keep the same identity.
		exactPending(types.RvStats{Stats: st}),
		exactPending(types.RvStats{Stats: stIno}),
		exactPending(types.RvNum{N: 3}),
		exactPending(types.RvNum{N: 0}),
	}
	var pool []*OsState
	for _, pend := range pendings {
		pool = append(pool, returningAs(base, InitialPid, pend))
	}
	for i, a := range pool {
		for _, b := range pool[i:] {
			fpEq := a.Fingerprint() == b.Fingerprint()
			if eq := StateEqual(a, b); eq != fpEq {
				t.Fatalf("StateEqual=%v but fingerprint-equal=%v for %q vs %q",
					eq, fpEq, a.Proc(InitialPid).PendingRet.Describe(), b.Proc(InitialPid).PendingRet.Describe())
			}
			if fpEq && a.Hash() != b.Hash() {
				t.Fatalf("fingerprint-equal states hash %x vs %x (%q)", a.Hash(), b.Hash(), a.Proc(InitialPid).PendingRet.Describe())
			}
		}
	}
	// Stats that differ only in Ino render alike, so the states merge
	// (RvStats.Equal would split them).
	if !StateEqual(pool[0], pool[1]) || pool[0].Hash() != pool[1].Hash() {
		t.Fatal("returning states differing only in the stat's Ino were not merged")
	}
	if StateEqual(pool[0], pool[2]) {
		t.Fatal("returning states with different stat sizes were merged")
	}
}

// TestProcTableOrder creates processes out of pid order and destroys
// one: the table must still list pids ascending, and the state must be
// indistinguishable from one that created the survivors in order.
func TestProcTableOrder(t *testing.T) {
	step := func(s *OsState, l types.Label) *OsState {
		t.Helper()
		next := Trans(s, l, nil)
		if len(next) != 1 {
			t.Fatalf("%v: %d successors, want 1", l, len(next))
		}
		return next[0]
	}
	call := func(pid types.Pid) types.Label {
		return types.CallLabel{Pid: pid, Cmd: types.Mkdir{Path: "/d", Perm: 0o755}}
	}
	a := NewOsState(types.DefaultSpec())
	for _, pid := range []types.Pid{3, 2, 5} {
		a = step(a, types.CreateLabel{Pid: pid})
	}
	a = step(a, types.DestroyLabel{Pid: 3})
	a = step(step(a, call(5)), call(2))

	b := NewOsState(types.DefaultSpec())
	for _, pid := range []types.Pid{2, 5} {
		b = step(b, types.CreateLabel{Pid: pid})
	}
	b = step(step(b, call(2)), call(5))

	if got := fmt.Sprint(a.Pids()); got != "[1 2 5]" {
		t.Fatalf("Pids = %s, want [1 2 5]", got)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("creation order changed the fingerprint:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	if !StateEqual(a, b) || a.Hash() != b.Hash() {
		t.Fatal("creation order changed state identity")
	}
}

// TestProcHashAfterRewrite: a process changed again after its state was
// hashed — in place, since the state still owns it — is re-hashed, not
// served from the memo of its earlier content.
func TestProcHashAfterRewrite(t *testing.T) {
	s := NewOsState(types.DefaultSpec()).Clone()
	s.Hash()
	s.mutProc(InitialPid).Umask = 0o077
	s.Hash()
	s.mutProc(InitialPid).Umask = 0o007
	var full uint64
	for _, e := range s.procs {
		full ^= s.procContribOf(e.pid, e.p)
	}
	if s.Hash(); s.hv != full {
		t.Fatalf("process hash %x after a rewrite, full recompute %x", s.hv, full)
	}
}
