//go:build !race

package checker

import (
	"context"
	"testing"

	"repro/internal/cov"
	"repro/internal/osspec"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// seqTrace is a 14-step sequential trace: seven calls, each followed by
// its return.
const seqTrace = `@type trace
1: mkdir "d" 0o755
1: RV_none
1: open "d/f" [O_CREAT;O_WRONLY] 0o644
1: RV_file_descriptor(FD 3)
1: write (FD 3) "hi" 2
1: RV_num(2)
1: close (FD 3)
1: RV_none
1: stat "d/f"
1: RV_stats { st_kind=S_IFREG; st_perm=0o644; st_size=2; st_nlink=1; st_uid=0; st_gid=0 }
1: rename "d/f" "d/g"
1: RV_none
1: lstat "d/g"
1: RV_stats { st_kind=S_IFREG; st_perm=0o644; st_size=2; st_nlink=1; st_uid=0; st_gid=0 }
`

// TestSequentialStepAllocs pins the allocation cost of a sequential step
// once the cons table holds every transition: the per-trace scratch, the
// inline dedup set, the calling-state check, label keys rendered into a
// reused buffer and a union loop without a per-step closure leave no
// allocation per step. The bound has headroom over the measured 0 (the
// count is process-wide); the closure cost 1.0 allocations per step here,
// allocating every label key 3.1, and the pre-fast-path checker 11.
func TestSequentialStepAllocs(t *testing.T) {
	tr := parse(t, seqTrace)
	c := New(types.DefaultSpec())
	c.Memo = osspec.NewConsTable(0, 0)
	c.Tel = telemetry.NewRegistry()
	if r := c.Check(tr); !r.Accepted || r.Steps != 14 {
		t.Fatalf("first pass: accepted=%v steps=%d errors=%+v", r.Accepted, r.Steps, r.Errors)
	}
	perTrace := testing.AllocsPerRun(50, func() {
		if r := c.Check(tr); !r.Accepted {
			t.Fatal("warm pass rejected")
		}
	})
	perStep := perTrace / 14
	t.Logf("%.1f allocations per trace, %.2f per step", perTrace, perStep)
	if perStep > 0.25 {
		t.Errorf("%.2f allocations per warm sequential step, want <= 0.25", perStep)
	}
}

// TestSerialUnionAllocs pins that a transition union whose every fan-out
// the cons table already holds allocates nothing: the loop runs inline,
// with no per-step closure, and writes into the trace's scratch, coverage
// set included.
func TestSerialUnionAllocs(t *testing.T) {
	c := New(types.DefaultSpec())
	c.Memo = osspec.NewConsTable(0, 0)
	tr := parse(t, seqTrace)
	states := []*osspec.OsState{c.initialState()}
	var sc traceScratch
	lbl := tr.Steps[0].Label // the mkdir call
	if next := c.unionTrans(states, lbl, &sc, nil); len(next) != 1 {
		t.Fatalf("first union: %d successors, want 1", len(next))
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.unionTrans(states, lbl, &sc, nil)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per memo-hit serial union, want 0", allocs)
	}
}

// TestTauMissAllocs pins what the τ-closure before a return costs when
// its fan-out misses a fresh cons table: what the same closure costs
// without a table, plus what storing one entry costs, and nothing more.
// The miss's coverage set is the closure scratch's; a set allocated per
// miss cost one allocation more.
func TestTauMissAllocs(t *testing.T) {
	c := New(types.DefaultSpec())
	call := parse(t, seqTrace).Steps[0].Label // the mkdir call
	// After the call pid 1 is calling, so the closure expands its state.
	states := osspec.Trans(c.initialState(), call, nil)
	states[0].Hash()
	states[0].Freeze()
	var sc traceScratch
	closure := func(memo *osspec.ConsTable) {
		c.Memo = memo
		var res Result
		if out, _ := c.tauClosure(context.Background(), states, &res, &sc); len(out) != 2 {
			t.Fatalf("closure of the calling state: %d states, want 2", len(out))
		}
	}
	plain := testing.AllocsPerRun(100, func() { closure(nil) })
	missed := testing.AllocsPerRun(100, func() {
		memo := osspec.NewConsTable(0, 0)
		closure(memo)
		if st := memo.Stats(); st.Misses != 1 || st.Retained != 1 {
			t.Fatalf("fresh table: %d misses, %d retained, want 1 and 1", st.Misses, st.Retained)
		}
	})
	// The same entry stored by hand in a fresh table, under a key as long
	// as the closure's. The table escapes, as the checker's does.
	succs := osspec.Trans(states[0], types.TauLabel{}, nil)
	key := []byte("\x00tau*")
	var fan cov.Set
	var memo *osspec.ConsTable
	stored := testing.AllocsPerRun(100, func() {
		memo = osspec.NewConsTable(0, 0)
		memo.Put(states[0], key, succs, &fan)
	})
	t.Logf("closure %.0f allocations without a table, %.0f on a fresh table's miss; storing the entry %.0f", plain, missed, stored)
	if missed > plain+stored {
		t.Errorf("a τ miss costs %.0f allocations beyond the closure and the stored entry, want 0", missed-plain-stored)
	}
}
