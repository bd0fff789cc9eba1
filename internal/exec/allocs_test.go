//go:build !race

package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fsimpl"
	"repro/internal/trace"
	"repro/internal/types"
)

// nopFS answers every call with one preallocated value, so a run's
// allocations are the executor's own.
type nopFS struct{}

var nopRet types.RetValue = types.RvNone{}

func (nopFS) Name() string                                  { return "nop" }
func (nopFS) Apply(types.Pid, types.Command) types.RetValue { return nopRet }
func (nopFS) CreateProcess(types.Pid, types.Uid, types.Gid) {}
func (nopFS) DestroyProcess(types.Pid)                      {}
func (nopFS) Close() error                                  { return nil }

// TestRunAllocs pins that Run allocates the trace's steps once, sized for
// the script, and boxes no label but the returns: each further call costs
// exactly one allocation, its return label.
func TestRunAllocs(t *testing.T) {
	factory := func() (fsimpl.FS, error) { return nopFS{}, nil }
	script := func(calls int) *trace.Script {
		var b strings.Builder
		b.WriteString("@type script\n# Test exec___allocs\n")
		for i := range calls {
			fmt.Fprintf(&b, "mkdir \"d%d\" 0o755\n", i)
		}
		s, err := trace.ParseScript(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	allocs := func(s *trace.Script) float64 {
		return testing.AllocsPerRun(20, func() {
			tr, err := Run(context.Background(), s, factory, nil)
			if err != nil || len(tr.Steps) != 2*len(s.Steps) || cap(tr.Steps) != len(tr.Steps) {
				t.Fatalf("trace of %d steps (cap %d), err %v", len(tr.Steps), cap(tr.Steps), err)
			}
		})
	}
	small, large := allocs(script(20)), allocs(script(60))
	t.Logf("%.0f allocations for 20 calls, %.0f for 60", small, large)
	if large-small != 40 {
		t.Errorf("40 more calls cost %.0f more allocations, want 40 (one return label each)", large-small)
	}
}
