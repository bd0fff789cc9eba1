//go:build !race

package checker

import (
	"testing"

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
// allocation per step. The bound has headroom over the measured 0 (a
// collection may empty the scratch pool mid-measurement); the closure
// cost 1.0 allocations per step here, allocating every label key 3.1,
// and the pre-fast-path checker 11.
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
