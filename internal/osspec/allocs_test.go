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
	called := Trans(NewOsState(types.DefaultSpec()), types.CallLabel{Pid: InitialPid, Cmd: types.Stat{Path: "/"}})
	if len(called) != 1 {
		t.Fatalf("stat call: %d successors, want 1", len(called))
	}
	for _, c := range TauFor(called[0], InitialPid) {
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
