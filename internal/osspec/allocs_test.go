//go:build !race

package osspec

import (
	"testing"

	"repro/internal/types"
)

// statReturning builds a fresh state whose initial process has called
// stat "/" and is returning its single allowed value, a PendingExact
// holding RvStats — the pending that used to render through
// RvStats.String for every hash and comparison.
func statReturning(t *testing.T) *OsState {
	t.Helper()
	called := Trans(NewOsState(types.DefaultSpec()), types.CallLabel{Pid: InitialPid, Cmd: types.Stat{Path: "/"}}, nil)
	if len(called) != 1 {
		t.Fatalf("stat call: %d successors, want 1", len(called))
	}
	for _, c := range TauFor(called[0], InitialPid, nil) {
		if pe, ok := c.Proc(InitialPid).PendingRet.(PendingExact); ok {
			if _, ok := pe.Rv.(types.RvStats); ok {
				return c
			}
		}
	}
	t.Fatal("stat \"/\" left no PendingExact{RvStats} candidate")
	return nil
}

// TestPendingIdentityAllocs pins that state identity renders pending
// returns into a pooled buffer: re-hashing a returning state and
// confirming two equal ones allocate nothing.
func TestPendingIdentityAllocs(t *testing.T) {
	a, b := statReturning(t), statReturning(t)
	if !StateEqual(a, b) || a.Hash() != b.Hash() {
		t.Fatal("independently built equal states are not identified")
	}
	if n := testing.AllocsPerRun(100, func() {
		a.dirty()
		a.Hash()
	}); n != 0 {
		t.Errorf("Hash after dirty: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !StateEqual(a, b) {
			t.Fatal("StateEqual turned false")
		}
	}); n != 0 {
		t.Errorf("StateEqual on equal returning states: %.1f allocations, want 0", n)
	}
}

// countingRv renders like the RvNum it embeds and counts its renders.
type countingRv struct {
	types.RvNum
	renders *int
}

func (r countingRv) Append(b []byte) []byte {
	*r.renders++
	return r.RvNum.Append(b)
}

// TestPendingExactHashAllocs pins that a PendingExact built by succExact
// is rendered once, when it is built: hashing it again, and telling it
// apart from a different one, render nothing and allocate nothing.
func TestPendingExactHashAllocs(t *testing.T) {
	var renders int
	var p, q Pending = exactPending(countingRv{types.RvNum{N: 3}, &renders}),
		exactPending(countingRv{types.RvNum{N: 4}, &renders})
	if renders != 2 {
		t.Fatalf("building two PendingExacts rendered %d times, want 2", renders)
	}
	renders = 0
	if n := testing.AllocsPerRun(100, func() {
		pendingHash(p)
		if pendingEqual(p, q) {
			t.Fatal("different PendingExacts compared equal")
		}
	}); n != 0 {
		t.Errorf("pendingHash + pendingEqual: %.1f allocations, want 0", n)
	}
	if renders != 0 {
		t.Errorf("pendingHash + pendingEqual rendered %d times, want 0", renders)
	}
}

// threeProcs is a state with three processes in which "/a" exists,
// process 2 has called stat "/a" and process 3 has called mkdir "/a":
// both τs are local, one returning a stat, the other EEXIST.
func threeProcs(t *testing.T) *OsState {
	t.Helper()
	s := NewOsState(types.DefaultSpec())
	step := func(lbl types.Label) {
		next := Trans(s, lbl, nil)
		if len(next) != 1 {
			t.Fatalf("%s: %d successors, want 1", lbl, len(next))
		}
		s = next[0]
	}
	step(types.CallLabel{Pid: InitialPid, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}})
	done := TauFor(s, InitialPid, nil)
	if len(done) != 1 {
		t.Fatalf("mkdir /a: %d successors, want 1", len(done))
	}
	s = done[0]
	step(types.ReturnLabel{Pid: InitialPid, Ret: types.RvNone{}})
	step(types.CreateLabel{Pid: 2})
	step(types.CreateLabel{Pid: 3})
	step(types.CallLabel{Pid: 2, Cmd: types.Stat{Path: "/a"}})
	step(types.CallLabel{Pid: 3, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}})
	s.Hash()
	s.Freeze()
	return s
}

// TestLocalTauAllocs pins what one local τ-successor costs to build and
// hash on a three-process state, as the closure builds it: a stat
// (RvStats) and an EEXIST. Before clones took one allocation, errno sets
// became bitsets, the file-system context lost its per-call InGroup
// closure, path splitting took one allocation, PendingExact stopped
// being boxed to hash it and error returns began to share prebuilt
// pendings, both cost 16 allocations per successor.
func TestLocalTauAllocs(t *testing.T) {
	s := threeProcs(t)
	for _, c := range []struct {
		name string
		pid  types.Pid
		want float64
	}{
		{"stat", 2, 10},
		{"EEXIST", 3, 7},
	} {
		succs := TauFor(s, c.pid, nil)
		if len(succs) != 1 {
			t.Fatalf("%s: %d successors, want 1", c.name, len(succs))
		}
		n := testing.AllocsPerRun(100, func() {
			for _, ns := range TauFor(s, c.pid, nil) {
				ns.Hash()
			}
		})
		t.Logf("%s: %.1f allocations per successor", c.name, n)
		if n > c.want {
			t.Errorf("%s: %.1f allocations per successor, want at most %.0f", c.name, n, c.want)
		}
	}
}
