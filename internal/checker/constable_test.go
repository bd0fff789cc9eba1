package checker

import (
	"context"
	"encoding/binary"
	"testing"

	"repro/internal/cov"
	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/osspec"
	"repro/internal/testgen"
	"repro/internal/types"
)

// frozenSource returns the model's initial state, hashed and frozen as
// every cons-table source is.
func frozenSource() *osspec.OsState {
	src := osspec.NewOsState(types.DefaultSpec())
	src.Hash()
	src.Freeze()
	return src
}

// mkdirPair returns the call and return of a successful mkdir of path by
// the initial process.
func mkdirPair(path string) (types.CallLabel, types.ReturnLabel) {
	return types.CallLabel{Pid: osspec.InitialPid, Cmd: types.Mkdir{Path: path, Perm: 0o755}},
		types.ReturnLabel{Pid: osspec.InitialPid, Ret: types.RvNone{}}
}

// TestConsTableInterns pins the table's core contract: a Put followed by
// a Get of the same (source, pair key) returns the identical slice,
// frozen, with the τ outcome counts and coverage points it was stored
// with, and the counters attribute hits, misses and retained states
// correctly.
func TestConsTableInterns(t *testing.T) {
	src := frozenSource()
	tbl := NewConsTable(0, 0)
	call, ret := mkdirPair("/a")
	key := AppendPairKey(nil, call, ret)
	if _, _, _, ok := tbl.Get(src, key, nil); ok {
		t.Fatal("empty table reported a hit")
	}
	var set osspec.StateSet
	var fan cov.Set
	succs, expansions, distinct := osspec.CallReturn(src, call, ret, &set, &fan)
	if len(succs) == 0 || expansions == 0 || distinct == 0 {
		t.Fatalf("mkdir pair: %d successors, %d expansions, %d distinct", len(succs), expansions, distinct)
	}
	if !succs[0].H.Written() {
		t.Fatal("a fresh mkdir successor does not own its heap")
	}
	tbl.Put(src, key, succs, &fan, expansions, distinct)
	for _, ns := range succs {
		if ns.H.Written() {
			t.Fatal("Put published an unfrozen successor")
		}
	}
	var hits cov.Set
	got, e, d, ok := tbl.Get(src, key, &hits)
	if !ok || got[0] != succs[0] {
		t.Fatal("Get did not return the interned slice")
	}
	if e != expansions || d != distinct {
		t.Fatalf("replayed counts %d/%d, stored %d/%d", e, d, expansions, distinct)
	}
	if hits != fan {
		t.Fatalf("replayed coverage %v, stored %v", hits.Names(), fan.Names())
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
// objects held by the table never exceed cap plus one pair's successors.
func TestConsTableEpochReset(t *testing.T) {
	src := frozenSource()
	const cap = 4
	tbl := NewConsTable(cap, 0)
	var set osspec.StateSet
	// Distinct pairs produce distinct entries from the same source.
	maxFan := 0
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"} {
		call, ret := mkdirPair(p)
		succs, expansions, distinct := osspec.CallReturn(src, call, ret, &set, nil)
		maxFan = max(maxFan, len(succs))
		tbl.Put(src, AppendPairKey(nil, call, ret), succs, nil, expansions, distinct)
		if got := tbl.Stats().Retained; got > cap+maxFan {
			t.Fatalf("retained %d states, cap %d + fan-out %d", got, cap, maxFan)
		}
	}
	if st := tbl.Stats(); st.Resets == 0 {
		t.Fatalf("no epoch reset after 8 puts against cap %d", cap)
	}
}

// TestAppendPairKey pins the pair key's layout: a 'p' tag, the call
// label's rendering behind its length as four big-endian bytes, then the
// return label's, appended behind whatever dst holds. Distinct pairs get
// distinct keys, among them two whose renderings concatenate to the same
// bytes, which only the length tells apart.
func TestAppendPairKey(t *testing.T) {
	call, ret := mkdirPair("/a")
	key := AppendPairKey([]byte("prefix"), call, ret)
	c, r := call.String(), ret.String()
	want := "prefixp" + string(binary.BigEndian.AppendUint32(nil, uint32(len(c)))) + c + r
	if string(key) != want {
		t.Fatalf("key = %q, want %q", key, want)
	}

	type pair struct {
		call types.CallLabel
		ret  types.ReturnLabel
	}
	pairs := []pair{
		// `1: mkdir "a" 0o755` + `12: RV_none` and `1: mkdir "a" 0o7551` +
		// `2: RV_none` are the same bytes.
		{types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "a", Perm: 0o755}}, types.ReturnLabel{Pid: 12, Ret: types.RvNone{}}},
		{types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "a", Perm: 0o7551}}, types.ReturnLabel{Pid: 2, Ret: types.RvNone{}}},
		{types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "a", Perm: 0o755}}, types.ReturnLabel{Pid: 1, Ret: types.RvNone{}}},
		{types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "a", Perm: 0o755}}, types.ReturnLabel{Pid: 1, Ret: types.RvErr{Err: types.EEXIST}}},
		{types.CallLabel{Pid: 2, Cmd: types.Mkdir{Path: "a", Perm: 0o755}}, types.ReturnLabel{Pid: 2, Ret: types.RvNone{}}},
		{types.CallLabel{Pid: 1, Cmd: types.Rmdir{Path: "a"}}, types.ReturnLabel{Pid: 1, Ret: types.RvNone{}}},
	}
	if a, b := pairs[0], pairs[1]; a.call.String()+a.ret.String() != b.call.String()+b.ret.String() {
		t.Fatal("the crafted pairs' renderings do not concatenate to the same bytes")
	}
	seen := map[string]int{}
	for i, p := range pairs {
		k := string(AppendPairKey(nil, p.call, p.ret))
		if j, dup := seen[k]; dup {
			t.Fatalf("pairs %d and %d share key %q", j, i, k)
		}
		seen[k] = i
	}
}

// TestConsTableFusedPairsOnly pins that the table holds fused pairs and
// nothing else: checking the crash universe, which never fuses, makes no
// lookup and no map, and a sequential trace whose second process makes a
// call/return pair fall back to two steps looks up only the pair it
// fuses, missing once and then hitting.
func TestConsTableFusedPairsOnly(t *testing.T) {
	ctx := context.Background()
	prof := fsimpl.LinuxProfile("ext4")
	prof.Crash = true
	spec := types.DefaultSpec()
	spec.Crash = true
	c := newChecker(spec, true, 0)
	for _, s := range testgen.CrashScripts() {
		tr, err := exec.Run(ctx, s, fsimpl.MemFactory(prof), nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if r := c.Check(tr); !r.Accepted {
			t.Fatalf("%s rejected: %+v", s.Name, r.Errors)
		}
	}
	if st := c.Memo.Stats(); st.Hits+st.Misses != 0 || st.Mapped {
		t.Errorf("crash universe: %d hits, %d misses, map made %v; want no lookup and no map", st.Hits, st.Misses, st.Mapped)
	}

	// Pid 1's mkdir fuses; its rmdir, made while pid 2 exists, is two
	// steps, as are the create, pid 2's stat and return and the destroy.
	tr := parse(t, `@type trace
1: mkdir "d" 0o755
1: RV_none
create 2 0 0
2: stat "d"
1: rmdir "d"
1: RV_none
2: ENOENT
destroy 2
`)
	c = newChecker(types.DefaultSpec(), true, 0)
	for pass, want := range []ConsStats{{Misses: 1}, {Hits: 1, Misses: 1}} {
		if r := c.Check(tr); !r.Accepted {
			t.Fatalf("pass %d rejected: %+v", pass, r.Errors)
		}
		st := c.Memo.Stats()
		if st.Hits != want.Hits || st.Misses != want.Misses {
			t.Errorf("pass %d: %d hits, %d misses; want %d, %d", pass, st.Hits, st.Misses, want.Hits, want.Misses)
		}
	}
}
