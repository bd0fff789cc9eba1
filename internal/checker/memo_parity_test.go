package checker

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/osspec"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/types"
)

// TestMemoParityConcurrent pins that the cons table is only an execution
// strategy on concurrent traces too, now that pipeline runs never offer it
// there: the concurrent universe, executed under several seeded
// schedules, checks to the same verdicts, work counters, rendered
// checked text and coverage sets with a table shared across every trace
// as without one.
func TestMemoParityConcurrent(t *testing.T) {
	scripts := testgen.ConcurrentScripts()
	factory := fsimpl.MemFactory(fsimpl.LinuxProfile("ext4"))
	memo := New(types.DefaultSpec())
	memo.Memo = osspec.NewConsTable(0, 0)
	memo.Tel = telemetry.NewRegistry()
	plain := New(types.DefaultSpec())
	plain.Tel = telemetry.NewRegistry()

	type outcome struct {
		Accepted      bool
		Errors        []StepError
		Steps         int
		MaxStates     int
		SumStates     int
		TauExpansions int
		CapHit        bool
		Checked       string
		Coverage      []string
	}
	project := func(r Result, checked string) outcome {
		return outcome{r.Accepted, r.Errors, r.Steps, r.MaxStates, r.SumStates,
			r.TauExpansions, r.StateSetCapHit, checked, r.Coverage.Names()}
	}
	const schedules = 8
	for seed := int64(1); seed <= schedules; seed++ {
		for _, s := range scripts {
			tr, err := exec.RunConcurrent(context.Background(), s, factory,
				exec.ConcurrentOptions{Seeded: true, Seed: seed}, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			r := memo.Check(tr)
			got := project(r, RenderChecked(tr, r))
			r = plain.Check(tr)
			want := project(r, RenderChecked(tr, r))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: memo changed the result:\n got %+v\nwant %+v", s.Name, seed, got, want)
			}
		}
	}
	st := memo.Memo.Stats()
	t.Logf("cons table: %d hits, %d misses", st.Hits, st.Misses)
	if st.Hits == 0 {
		t.Fatalf("the table never replayed a fan-out (%d misses): the parity is vacuous", st.Misses)
	}
}
