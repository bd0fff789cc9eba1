//go:build !race

package checker

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// TestSequentialStepAllocs pins the allocation cost of checking a trace
// the checker's history holds whole, as a suite's checks hold most of
// their trace: the check resumes past every step, taking its snapshots
// and label renderings into the history's reused buffers, and allocates
// nothing per step. The bound has headroom over the measured 0 (the count
// is process-wide).
func TestSequentialStepAllocs(t *testing.T) {
	tr := parse(t, seqTrace)
	c := New(types.DefaultSpec())
	c.Tel = telemetry.NewRegistry()
	if r := c.Check(tr); !r.Accepted || r.Steps != 14 {
		t.Fatalf("first pass: accepted=%v steps=%d errors=%+v", r.Accepted, r.Steps, r.Errors)
	}
	checks := 0
	perTrace := testing.AllocsPerRun(50, func() {
		if r := c.Check(tr); !r.Accepted {
			t.Fatal("warm pass rejected")
		}
		checks++
	})
	perStep := perTrace / 14
	t.Logf("%.1f allocations per trace, %.2f per step", perTrace, perStep)
	if perStep > 0.25 {
		t.Errorf("%.2f allocations per resumed sequential step, want <= 0.25", perStep)
	}
	if n := c.Tel.Counter("checker.reused_steps").Value(); n != int64(14*checks) {
		t.Errorf("%d steps reused, want %d", n, 14*checks)
	}
}

// TestSequentialStepAllocsWhole is TestSequentialStepAllocs with nothing
// to resume from: the checks alternate between the trace and a copy of it
// one line down, which shares no step with it, so every check walks all
// of its steps. Every call and its return are one fused transition,
// which builds only the τ outcomes and finalizes the kept ones in place.
// Checked as three steps, each call cloned its state for the call label,
// once per τ outcome and once more for the return: 160 allocations per
// trace here, against 118 fused. The bound has headroom over the fused
// figure and fails the stepwise one.
func TestSequentialStepAllocsWhole(t *testing.T) {
	tr := parse(t, seqTrace)
	down := &trace.Trace{Name: tr.Name}
	for _, st := range tr.Steps {
		down.Steps = append(down.Steps, trace.Step{Label: st.Label, Line: st.Line + 1})
	}
	c := New(types.DefaultSpec())
	c.Tel = telemetry.NewRegistry()
	if r := c.Check(tr); !r.Accepted || r.Steps != 14 {
		t.Fatalf("first pass: accepted=%v steps=%d errors=%+v", r.Accepted, r.Steps, r.Errors)
	}
	traces := []*trace.Trace{down, tr}
	i := 0
	perTrace := testing.AllocsPerRun(50, func() {
		if r := c.Check(traces[i%2]); !r.Accepted {
			t.Fatal("second pass rejected")
		}
		i++
	})
	t.Logf("%.1f allocations per trace walked whole", perTrace)
	if perTrace > 125 {
		t.Errorf("%.1f allocations per sequential trace walked whole, want <= 125", perTrace)
	}
	if n := c.Tel.Counter("checker.reused_steps").Value(); n != 0 {
		t.Errorf("%d steps reused, want 0", n)
	}
}
