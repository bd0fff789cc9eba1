//go:build !race

package checker

import (
	"testing"

	"repro/internal/osspec"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// TestSequentialStepAllocs pins the allocation cost of a sequential step
// once the cons table holds every fused pair: the per-trace scratch, the
// inline dedup set, the calling-state check and pair keys rendered into
// a reused buffer leave no allocation per step. The bound has headroom
// over the measured 0 (the count is process-wide); the closure cost 1.0
// allocations per step here, allocating every label key 3.1, and the
// pre-fast-path checker 11.
func TestSequentialStepAllocs(t *testing.T) {
	tr := parse(t, seqTrace)
	c := New(types.DefaultSpec())
	c.Memo = NewConsTable(0, 0)
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

// TestSequentialStepAllocsNoMemo is TestSequentialStepAllocs without a
// cons table, the way Session.Check, sfs-check and the fuzzer check:
// every call and its return are one fused transition, which builds only
// the τ outcomes and finalizes the kept ones in place. Checked as three
// steps, each call cloned its state for the call label, once per τ
// outcome and once more for the return: 160 allocations per trace here,
// against 118 fused. The bound has headroom over the fused figure and
// fails the stepwise one.
func TestSequentialStepAllocsNoMemo(t *testing.T) {
	tr := parse(t, seqTrace)
	c := New(types.DefaultSpec())
	c.Tel = telemetry.NewRegistry()
	if r := c.Check(tr); !r.Accepted || r.Steps != 14 {
		t.Fatalf("first pass: accepted=%v steps=%d errors=%+v", r.Accepted, r.Steps, r.Errors)
	}
	perTrace := testing.AllocsPerRun(50, func() {
		if r := c.Check(tr); !r.Accepted {
			t.Fatal("second pass rejected")
		}
	})
	t.Logf("%.1f allocations per trace without a cons table", perTrace)
	if perTrace > 125 {
		t.Errorf("%.1f allocations per sequential trace without a cons table, want <= 125", perTrace)
	}
}

// TestConsGetHitAllocs pins the table's hot path: rendering a pair key
// into a reused buffer and looking up a hit with it allocates nothing,
// because the compiler elides the string conversion of a map index.
func TestConsGetHitAllocs(t *testing.T) {
	src := frozenSource()
	call, ret := mkdirPair("/a")
	tbl := NewConsTable(0, 0)
	var set osspec.StateSet
	succs, expansions, distinct := osspec.CallReturn(src, call, ret, &set, nil)
	tbl.Put(src, AppendPairKey(nil, call, ret), succs, nil, expansions, distinct)
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendPairKey(buf[:0], call, ret)
		if _, _, _, ok := tbl.Get(src, buf, nil); !ok {
			t.Fatal("interned pair missed")
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per cons hit, want 0", allocs)
	}
}
