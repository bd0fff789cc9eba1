package osspec

// Property tests for the persistence layer (Spec.Crash): randomized
// clone-mutate-fsync walks assert that
//
//	(a) immediately after a sync barrier the crash-state set is a
//	    singleton whose tree equals the live image, and
//	(b) every tree the walk observed since the last barrier is admitted
//	    as some crash state (no durable prefix is ever dropped).
//
// Plus the O_SYNC regression pin: the flag used to parse and then do
// nothing; these tests fail if it goes dormant again.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/state"
	"repro/internal/types"
)

func crashSpec() types.Spec {
	sp := types.DefaultSpec()
	sp.Crash = true
	return sp
}

// treeContents renders the file tree reachable from the root — and only
// the tree: processes, descriptors and orphaned files are volatile, so
// two states with equal treeContents are crash-equivalent.
func treeContents(s *OsState) string {
	var b strings.Builder
	var walk func(d state.DirRef, path string)
	walk = func(d state.DirRef, path string) {
		dir := s.H.Dir(d)
		for _, name := range s.H.EntryNames(d) {
			e := dir.Entries[name]
			child := path + "/" + name
			switch e.Kind {
			case state.EntryDir:
				fmt.Fprintf(&b, "%s/\n", child)
				walk(e.Dir, child)
			case state.EntrySymlink:
				fmt.Fprintf(&b, "%s -> %q\n", child, string(s.H.File(e.File).Bytes))
			case state.EntryFile:
				fmt.Fprintf(&b, "%s = %q\n", child, string(s.H.File(e.File).Bytes))
			}
		}
	}
	walk(s.H.Root, "")
	return b.String()
}

// stepCmd runs one complete call → τ → return transition sequence,
// deterministically preferring a success return, and reports the chosen
// return value alongside the post-return state.
func stepCmd(t *testing.T, s *OsState, pid types.Pid, cmd types.Command) (*OsState, types.RetValue) {
	t.Helper()
	called := Trans(s, types.CallLabel{Pid: pid, Cmd: cmd}, nil)
	if len(called) == 0 {
		t.Fatalf("call %s not enabled", cmd)
	}
	cands := TauFor(called[0], pid, nil)
	if len(cands) == 0 {
		t.Fatalf("no τ successors for %s", cmd)
	}
	for _, cand := range cands {
		rvs := ConcreteReturns(cand, pid)
		for _, rv := range rvs {
			if _, isErr := rv.(types.RvErr); isErr {
				continue
			}
			if after := Trans(cand, types.ReturnLabel{Pid: pid, Ret: rv}, nil); len(after) > 0 {
				return after[0], rv
			}
		}
	}
	// No success anywhere: take the first allowed error return.
	rvs := ConcreteReturns(cands[0], pid)
	if len(rvs) == 0 {
		t.Fatalf("no allowed returns for %s", cmd)
	}
	after := Trans(cands[0], types.ReturnLabel{Pid: pid, Ret: rvs[0]}, nil)
	if len(after) == 0 {
		t.Fatalf("return %s not enabled for %s", rvs[0], cmd)
	}
	return after[0], rvs[0]
}

// crashContents collects the deduplicated tree renderings of every crash
// state, in enumeration order.
func crashContents(s *OsState) []string {
	var out []string
	for _, cs := range CrashStates(s) {
		out = append(out, treeContents(cs))
	}
	return out
}

// randomCrashWalk drives a randomized clone-mutate-fsync walk under the
// crash spec: mutating calls on a small path/fd vocabulary, interleaved
// with fsync/sync barriers. It maintains the test's own shadow trail —
// every distinct tree observed since the last barrier, oldest first —
// and checks properties (a) and (b) at every step.
func randomCrashWalk(t *testing.T, seed int64, steps int) *OsState {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cur := NewOsState(crashSpec())
	// Prologue: one open descriptor to write through, one O_SYNC-free.
	cur, _ = stepCmd(t, cur, InitialPid, types.Open{Path: "/w", Flags: types.OCreat | types.ORdwr, Perm: 0o644, HasPerm: true})
	trail := []string{treeContents(cur)}
	barrier := func() { trail = trail[len(trail)-1:] }
	if cur.PendingEffects() != 1 {
		// The open created /w: exactly one pending effect so far.
		t.Fatalf("after open: %d pending effects, want 1", cur.PendingEffects())
	}
	paths := []string{"/a", "/b", "/a/x", "/c"}
	for i := 0; i < steps; i++ {
		var cmd types.Command
		switch rng.Intn(10) {
		case 0:
			cmd = types.Mkdir{Path: paths[rng.Intn(len(paths))], Perm: 0o755}
		case 1:
			cmd = types.Open{Path: paths[rng.Intn(len(paths))], Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}
		case 2:
			cmd = types.Write{FD: 3, Data: []byte{byte('a' + i%26)}, Size: 1}
		case 3:
			cmd = types.Unlink{Path: paths[rng.Intn(len(paths))]}
		case 4:
			cmd = types.Rename{Src: paths[rng.Intn(len(paths))], Dst: paths[rng.Intn(len(paths))]}
		case 5:
			cmd = types.Symlink{Target: "/a", Linkpath: paths[rng.Intn(len(paths))]}
		case 6:
			cmd = types.Truncate{Path: "/w", Len: int64(rng.Intn(3))}
		case 7:
			cmd = types.Fsync{FD: 3}
		default:
			cmd = types.Sync{}
		}
		var rv types.RetValue
		cur, rv = stepCmd(t, cur, InitialPid, cmd)
		_, failed := rv.(types.RvErr)
		if tc := treeContents(cur); tc != trail[len(trail)-1] {
			trail = append(trail, tc)
		}
		switch cmd.(type) {
		case types.Fsync, types.Sync:
			if !failed {
				barrier()
				// Property (a): post-barrier the crash set is the singleton
				// live image, and nothing is pending.
				if n := cur.PendingEffects(); n != 0 {
					t.Fatalf("seed %d step %d: %d pending effects after %s", seed, i, n, cmd)
				}
				got := crashContents(cur)
				if len(got) != 1 {
					t.Fatalf("seed %d step %d: %d crash states after %s, want 1", seed, i, len(got), cmd)
				}
				if got[0] != treeContents(cur) {
					t.Fatalf("seed %d step %d: post-%s crash state differs from live image:\n%s\nvs\n%s",
						seed, i, cmd, got[0], treeContents(cur))
				}
			}
		}
		// Property (b): every tree the walk observed since the last barrier
		// must be admitted as some crash state.
		got := make(map[string]bool)
		for _, tc := range crashContents(cur) {
			got[tc] = true
		}
		for _, want := range trail {
			if !got[want] {
				t.Fatalf("seed %d step %d (%s): observed durable prefix not admitted as a crash state:\n%s",
					seed, i, cmd, want)
			}
		}
		// Structural bound: at most durable + one per pending effect.
		if len(got) > cur.PendingEffects()+1 {
			t.Fatalf("seed %d step %d: %d distinct crash states from %d pending effects",
				seed, i, len(got), cur.PendingEffects())
		}
	}
	return cur
}

func TestCrashWalkProperties(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		randomCrashWalk(t, seed, 40)
	}
}

// TestCrashStatesKnownWorkloads pins hand-computed crash-state sets for
// small workloads — independent of the pending-log plumbing, these are
// the sets the ordered-global-log model must produce.
func TestCrashStatesKnownWorkloads(t *testing.T) {
	s := NewOsState(crashSpec())
	if got := crashContents(s); len(got) != 1 || got[0] != "" {
		t.Fatalf("initial state crash set: %q, want one empty tree", got)
	}

	// mkdir /a; mkdir /b with no barrier: {}, {a}, {a,b}.
	s, _ = stepCmd(t, s, InitialPid, types.Mkdir{Path: "/a", Perm: 0o755})
	s, _ = stepCmd(t, s, InitialPid, types.Mkdir{Path: "/b", Perm: 0o755})
	got := crashContents(s)
	want := []string{"", "/a/\n", "/a/\n/b/\n"}
	if len(got) != len(want) {
		t.Fatalf("mkdir-mkdir crash set has %d states, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("crash state %d:\n%q\nwant\n%q", i, got[i], want[i])
		}
	}

	// sync; mkdir /c: {a,b}, {a,b,c} — the pre-barrier prefix states are gone.
	s, _ = stepCmd(t, s, InitialPid, types.Sync{})
	s, _ = stepCmd(t, s, InitialPid, types.Mkdir{Path: "/c", Perm: 0o755})
	got = crashContents(s)
	want = []string{"/a/\n/b/\n", "/a/\n/b/\n/c/\n"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("post-sync crash set: %q, want %q", got, want)
	}

	// Unlink of a synced file may un-happen: create+sync /f, unlink it —
	// the crash set holds both the file present and absent.
	s = NewOsState(crashSpec())
	s, _ = stepCmd(t, s, InitialPid, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
	s, _ = stepCmd(t, s, InitialPid, types.Write{FD: 3, Data: []byte("x"), Size: 1})
	s, _ = stepCmd(t, s, InitialPid, types.Close{FD: 3})
	s, _ = stepCmd(t, s, InitialPid, types.Sync{})
	s, _ = stepCmd(t, s, InitialPid, types.Unlink{Path: "/f"})
	got = crashContents(s)
	if len(got) != 2 || got[0] != "/f = \"x\"\n" || got[1] != "" {
		t.Fatalf("unlink crash set: %q", got)
	}
}

// TestCrashStateIsRemounted pins the remount semantics: fresh initial
// process only, no descriptors, no pending effects, and orphaned files
// (open but unlinked at the crash) swept.
func TestCrashStateIsRemounted(t *testing.T) {
	s := NewOsState(crashSpec())
	s, _ = stepCmd(t, s, InitialPid, types.Open{Path: "/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
	s, _ = stepCmd(t, s, InitialPid, types.Write{FD: 3, Data: []byte("x"), Size: 1})
	s, _ = stepCmd(t, s, InitialPid, types.Sync{})
	s, _ = stepCmd(t, s, InitialPid, types.Unlink{Path: "/f"})
	s, _ = stepCmd(t, s, InitialPid, types.Sync{})
	// The file is unlinked but still open: alive in the live state, an
	// orphan in every crash state.
	for _, cs := range CrashStates(s) {
		if n := cs.PendingEffects(); n != 0 {
			t.Fatalf("crash state has %d pending effects", n)
		}
		if len(cs.procs) != 1 || cs.procs.get(InitialPid) == nil {
			t.Fatalf("crash state processes: %v, want fresh pid %d only", len(cs.procs), InitialPid)
		}
		if len(cs.procs.get(InitialPid).Fds) != 0 {
			t.Fatal("crash state kept descriptors across the power cycle")
		}
		for _, fr := range cs.H.SortedFileRefs() {
			if f := cs.H.File(fr); f != nil && f.Nlink == 0 {
				t.Fatal("orphaned file survived the remount sweep")
			}
		}
		// A crash state is itself durable: crashing it again is a no-op.
		again := CrashStates(cs)
		if len(again) != 1 || treeContents(again[0]) != treeContents(cs) {
			t.Fatal("re-crashing a crash state changed it")
		}
	}
}

// TestOSyncWritesSelfFlush is the dormant-flag regression pin: O_SYNC was
// parsed into OpenFlags and then ignored everywhere. A write through an
// O_SYNC descriptor must now act as its own barrier — if the flag goes
// dormant again, the with/without runs below become indistinguishable and
// both subtests fail.
func TestOSyncWritesSelfFlush(t *testing.T) {
	run := func(flags types.OpenFlags) *OsState {
		s := NewOsState(crashSpec())
		s, _ = stepCmd(t, s, InitialPid, types.Open{Path: "/f", Flags: flags, Perm: 0o644, HasPerm: true})
		s, _ = stepCmd(t, s, InitialPid, types.Sync{})
		s, rv := stepCmd(t, s, InitialPid, types.Write{FD: 3, Data: []byte("x"), Size: 1})
		if n, ok := rv.(types.RvNum); !ok || n.N != 1 {
			t.Fatalf("write returned %s", rv)
		}
		return s
	}
	withSync := run(types.OCreat | types.OWronly | types.OSync)
	if n := withSync.PendingEffects(); n != 0 {
		t.Fatalf("O_SYNC write left %d pending effects, want 0 (flag dormant again?)", n)
	}
	if got := crashContents(withSync); len(got) != 1 || got[0] != "/f = \"x\"\n" {
		t.Fatalf("O_SYNC crash set: %q, want exactly the written file", got)
	}
	without := run(types.OCreat | types.OWronly)
	if n := without.PendingEffects(); n == 0 {
		t.Fatal("plain write self-flushed: O_SYNC semantics leaked to every descriptor")
	}
	if got := crashContents(without); len(got) != 2 {
		t.Fatalf("plain-write crash set: %q, want durable-empty plus written", got)
	}
}

// TestCrashTrackingOffByDefault pins the golden-fixture safety property:
// without Spec.Crash nothing persistence-related exists — no durable
// image, no crash states, and fingerprints carry no persistence suffix.
func TestCrashTrackingOffByDefault(t *testing.T) {
	s := NewOsState(types.DefaultSpec())
	s, _ = stepCmd(t, s, InitialPid, types.Mkdir{Path: "/a", Perm: 0o755})
	if s.DurableImage() != nil || s.PendingEffects() != 0 {
		t.Fatal("crash tracking active without Spec.Crash")
	}
	if CrashStates(s) != nil {
		t.Fatal("CrashStates enumerated without Spec.Crash")
	}
	if strings.Contains(s.Fingerprint(), "durable") {
		t.Fatal("fingerprint carries persistence state outside crash mode")
	}
}
