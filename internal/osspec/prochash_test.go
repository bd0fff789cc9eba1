package osspec_test

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/osspec"
	"repro/internal/testgen"
	"repro/internal/types"
)

// TestIncrementalProcHash walks the concurrent universe under 8 seeded
// schedules through the transition function — closing over τ before
// every return, destroy and crash, as the checker does — and holds the
// incrementally maintained process-table hash of every state it builds
// to a full recompute.
func TestIncrementalProcHash(t *testing.T) {
	factory := fsimpl.MemFactory(fsimpl.LinuxProfile("ext4"))
	checked := 0
	check := func(name string, line int, states []*osspec.OsState) {
		for _, s := range states {
			if incr, full := osspec.ProcHashes(s); incr != full {
				t.Fatalf("%s line %d: incremental process hash %x, full recompute %x", name, line, incr, full)
			}
			checked++
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, sc := range testgen.ConcurrentScripts() {
			tr, err := exec.RunConcurrent(context.Background(), sc, factory, exec.ConcurrentOptions{Seeded: true, Seed: seed}, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			states := []*osspec.OsState{osspec.NewOsState(types.DefaultSpec())}
			for _, st := range tr.Steps {
				switch st.Label.(type) {
				case types.ReturnLabel, types.DestroyLabel, types.CrashLabel:
					states, _, _ = osspec.TauClosureWith(states, osspec.ClosureOpts{Cap: 4096})
					check(sc.Name, st.Line, states)
				}
				set := osspec.NewStateSet(len(states))
				var next []*osspec.OsState
				for _, s := range states {
					succs := osspec.Trans(s, st.Label, nil)
					check(sc.Name, st.Line, succs)
					for _, ns := range succs {
						if set.Add(ns) {
							next = append(next, ns)
						}
					}
				}
				if len(next) == 0 {
					t.Fatalf("%s seed %d line %d: %s not allowed", sc.Name, seed, st.Line, st.Label)
				}
				states = next
			}
		}
	}
	t.Logf("%d states checked", checked)
}
