package osspec

import (
	"testing"

	"repro/internal/types"
)

// TestConsTableInterns pins the table's core contract: a Put followed by
// a Get of the same (source, key) pair returns the identical slice,
// hashed and frozen, and the counters attribute hits, misses and retained
// states correctly.
func TestConsTableInterns(t *testing.T) {
	src := NewOsState(types.DefaultSpec())
	src.Hash()
	src.Freeze()
	tbl := NewConsTable(0, 0)

	lbl := types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}}
	key := AppendLabelKey(nil, lbl)
	if _, ok := tbl.Get(src, key, nil); ok {
		t.Fatal("empty table reported a hit")
	}
	succs := Trans(src, lbl, nil)
	if len(succs) == 0 {
		t.Fatal("mkdir produced no successors")
	}
	tbl.Put(src, key, succs, nil)
	for _, ns := range succs {
		if !ns.frozen {
			t.Fatal("Put published an unfrozen successor")
		}
		if !ns.hvOK {
			t.Fatal("Put published an unhashed successor")
		}
	}
	got, ok := tbl.Get(src, key, nil)
	if !ok || got[0] != succs[0] {
		t.Fatal("Get did not return the interned slice")
	}
	st := tbl.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.Retained != len(succs) {
		t.Fatalf("retained %d states, want %d", st.Retained, len(succs))
	}
}

// TestConsTableEpochReset pins the memory bound: once retained successors
// would pass the cap, the table drops the whole epoch, so live heap
// objects held by the table never exceed cap plus one fan-out.
func TestConsTableEpochReset(t *testing.T) {
	src := NewOsState(types.DefaultSpec())
	src.Hash()
	src.Freeze()
	const cap = 4
	tbl := NewConsTable(cap, 0)
	// Distinct labels produce distinct entries from the same source.
	paths := []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"}
	maxFan := 0
	for _, p := range paths {
		lbl := types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: p, Perm: 0o755}}
		succs := Trans(src, lbl, nil)
		if len(succs) > maxFan {
			maxFan = len(succs)
		}
		tbl.Put(src, AppendLabelKey(nil, lbl), succs, nil)
		if got := tbl.Stats().Retained; got > cap+maxFan {
			t.Fatalf("retained %d states, cap %d + fan-out %d", got, cap, maxFan)
		}
	}
	st := tbl.Stats()
	if st.Resets == 0 {
		t.Fatalf("no epoch reset after %d puts against cap %d", len(paths), cap)
	}
}

// TestLabelKeyInjectiveAcrossKinds spot-checks the type-tag discipline:
// labels of different kinds can never share a key, and the τ-expansion
// sentinel cannot collide with any rendered label. Keys appended behind a
// prefix render the same bytes after it, so a reused buffer cannot leak
// one step's key into the next.
func TestLabelKeyInjectiveAcrossKinds(t *testing.T) {
	keys := map[string]string{}
	for name, lbl := range map[string]types.Label{
		"call":    types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}},
		"ret":     types.ReturnLabel{Pid: 1, Ret: types.RvNone{}},
		"tau":     types.TauLabel{},
		"create":  types.CreateLabel{Pid: 2, Uid: 0, Gid: 0},
		"destroy": types.DestroyLabel{Pid: 2},
	} {
		k := string(AppendLabelKey(nil, lbl))
		if k == string(tauExpandKey) {
			t.Fatalf("%s label collides with the τ-expansion sentinel", name)
		}
		if prev, dup := keys[k]; dup {
			t.Fatalf("labels %s and %s share key %q", prev, name, k)
		}
		keys[k] = name
		if got := string(AppendLabelKey([]byte("prefix"), lbl)); got != "prefix"+k {
			t.Fatalf("%s key behind a prefix = %q, want %q", name, got, "prefix"+k)
		}
	}
	if got, want := string(AppendLabelKey(nil, types.CreateLabel{Pid: 3, Uid: 1000, Gid: 50})), "n3,1000,50"; got != want {
		t.Fatalf("create key = %q, want %q", got, want)
	}
}

// TestClosureSkipsMemoWithoutCallingProc: a state with no pending call has
// no τ-successors, so closing it must not consult the cons table at all,
// while closing a state with a pending call still goes through the table.
func TestClosureSkipsMemoWithoutCallingProc(t *testing.T) {
	memo := NewConsTable(0, 0)
	lookups := func() int64 { st := memo.Stats(); return st.Hits + st.Misses }
	closure := func(s *OsState) (int, int64) {
		before := lookups()
		out, _, _ := TauClosureWith([]*OsState{s}, ClosureOpts{Memo: memo})
		return len(out), lookups() - before
	}
	idle := NewOsState(types.DefaultSpec())
	if n, got := closure(idle); n != 1 || got != 0 {
		t.Errorf("closure of an idle state: %d states, %d cons lookups; want 1, 0", n, got)
	}
	called := Trans(idle, types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/d", Perm: 0o755}}, nil)
	if len(called) != 1 {
		t.Fatalf("mkdir call gave %d states", len(called))
	}
	// The calling state and its τ-successor: one lookup, for the former.
	if n, got := closure(called[0]); n != 2 || got != 1 {
		t.Errorf("closure of a calling state: %d states, %d cons lookups; want 2, 1", n, got)
	}
}
