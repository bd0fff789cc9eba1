package pipeline

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cov"
	"repro/internal/fsimpl"
	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

// TestCoverageSetsMemoInvariant: every executed trace's coverage set, and
// the registry the run's workers merge into, are the same with one and
// two workers and with the jobs in suite order and reversed. Each check
// resumes from its worker's previous one, and a resumed check's set
// carries the points of the steps it resumed past, so a trace's set does
// not depend on which trace its worker checked before. Covers a
// sequential slice of the suite run on the determinized model (whose
// execution-side points join each trace's set) and the crash universe.
func TestCoverageSetsMemoInvariant(t *testing.T) {
	var slice []*trace.Script
	for i, s := range testgen.Generate().Scripts {
		if i%40 == 0 {
			slice = append(slice, s)
		}
	}
	crashSpec := types.DefaultSpec()
	crashSpec.Crash = true
	crashProfile := fsimpl.LinuxProfile("ext4")
	crashProfile.Crash = true
	for _, u := range []struct {
		name    string
		scripts []*trace.Script
		factory fsimpl.Factory
		spec    types.Spec
	}{
		{"sequential", slice, fsimpl.SpecFactory("spec:linux", types.DefaultSpec()), types.DefaultSpec()},
		{"crash", testgen.CrashScripts(), fsimpl.MemFactory(crashProfile), crashSpec},
	} {
		type run struct {
			sets     map[string]cov.Set
			ids      []string
			counts   []uint64
			hitCount int
		}
		do := func(workers int, reversed bool) run {
			var mu sync.Mutex
			sets := make(map[string]cov.Set)
			jobCoverageHook = func(script string, hits cov.Set) {
				mu.Lock()
				sets[script] = hits
				mu.Unlock()
			}
			defer func() { jobCoverageHook = nil }()
			scripts := u.scripts
			if reversed {
				scripts = append([]*trace.Script(nil), scripts...)
				slices.Reverse(scripts)
			}
			reg := cov.NewRegistry()
			cfg := Config{
				Name: u.name, Scripts: scripts, Factory: u.factory, FSName: u.name,
				Spec: u.spec, Workers: workers, Cov: reg,
			}
			if _, _, err := Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			ids, counts := reg.Snapshot()
			return run{sets, ids, counts, reg.HitCount()}
		}
		want := do(1, false)
		if len(want.sets) != len(u.scripts) || want.hitCount == 0 {
			t.Fatalf("%s: %d sets for %d scripts, %d points hit", u.name, len(want.sets), len(u.scripts), want.hitCount)
		}
		for _, c := range []struct {
			workers  int
			reversed bool
		}{{1, true}, {2, false}, {2, true}} {
			got := do(c.workers, c.reversed)
			for name, hits := range want.sets {
				if g := got.sets[name]; g != hits {
					t.Fatalf("%s, %d workers, reversed %v: %s hit %v, want %v", u.name, c.workers, c.reversed,
						name, g.Names(), hits.Names())
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d workers, reversed %v: merged registry differs", u.name, c.workers, c.reversed)
			}
		}
	}
}
