package fuzz

// Crash-mode fuzzing: the durability operators (fsync/sync barriers,
// crash labels) must produce well-formed, parsable candidates, and a
// short crash session must reach model coverage a plain session cannot —
// the persistence transitions only crash scripts exercise.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/fsimpl"
	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

func crashFuzzProfile() fsimpl.Profile {
	p := fsimpl.LinuxProfile("ext4")
	p.Crash = true
	return p
}

func crashFuzzSpec() types.Spec {
	sp := types.DefaultSpec()
	sp.Crash = true
	return sp
}

// TestMutatorCrashOps: with the crash operators on, mutation products stay lifecycle-
// valid and render/parse round-trip — including across crash labels, which
// reset process liveness — and the operator mix actually reaches both new
// step kinds (barriers and crashes).
func TestMutatorCrashOps(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := &mutator{r: r, maxSteps: 30, crash: true}
	parent := testgen.RandomScript(17, 0, 12)
	donor := testgen.RandomScript(17, 1, 12)
	sawCrash, sawBarrier := false, false
	for i := 0; i < 500; i++ {
		cand := m.mutate(parent, donor)
		if !validLifecycle(cand) {
			t.Fatalf("iteration %d: ill-formed lifecycle:\n%s", i, cand.Render())
		}
		text := cand.Render()
		back, err := trace.ParseScript(text)
		if err != nil {
			t.Fatalf("iteration %d: crash mutant does not parse: %v\n%s", i, err, text)
		}
		if back.Render() != text {
			t.Fatalf("iteration %d: render/parse round-trip changed the script:\n%s", i, text)
		}
		for _, st := range cand.Steps {
			switch l := st.Label.(type) {
			case types.CrashLabel:
				sawCrash = true
			case types.CallLabel:
				switch l.Cmd.(type) {
				case types.Fsync, types.Sync:
					sawBarrier = true
				}
			}
		}
		if i%7 == 0 {
			parent = cand
		}
	}
	if !sawCrash {
		t.Error("500 crash-mode mutations produced no crash label")
	}
	if !sawBarrier {
		t.Error("500 crash-mode mutations produced no fsync/sync barrier")
	}
}

// TestValidLifecycleCrash pins the reset semantics: a crash kills every
// process except the remounted initial one.
func TestValidLifecycleCrash(t *testing.T) {
	call := func(pid types.Pid) trace.Step {
		return trace.Step{Label: types.CallLabel{Pid: pid, Cmd: types.Stat{Path: "/"}}}
	}
	crash := trace.Step{Label: types.CrashLabel{Keep: 0}}
	create2 := trace.Step{Label: types.CreateLabel{Pid: 2, Uid: 1, Gid: 1}}

	for name, s := range map[string]*trace.Script{
		"crash alone":             {Steps: []trace.Step{crash}},
		"call 1 after crash":      {Steps: []trace.Step{call(1), crash, call(1)}},
		"recreate pid after":      {Steps: []trace.Step{create2, call(2), crash, create2, call(2)}},
		"double crash":            {Steps: []trace.Step{crash, crash, call(1)}},
		"create same pid twice ×": {Steps: []trace.Step{create2, crash, create2}},
	} {
		if !validLifecycle(s) {
			t.Errorf("%s: rejected, want accepted", name)
		}
	}
	for name, s := range map[string]*trace.Script{
		"call from dead pid":    {Steps: []trace.Step{create2, crash, call(2)}},
		"destroy of dead pid":   {Steps: []trace.Step{create2, crash, {Label: types.DestroyLabel{Pid: 2}}}},
		"duplicate create only": {Steps: []trace.Step{create2, create2}},
	} {
		if validLifecycle(s) {
			t.Errorf("%s: accepted, want rejected", name)
		}
	}
}

// TestFuzzCrashConfigValidation: crash candidates are sequential-executor
// only, so a Spec.Crash session with Concurrent must be rejected up front.
func TestFuzzCrashConfigValidation(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Factory:    fsimpl.MemFactory(crashFuzzProfile()),
		Spec:       crashFuzzSpec(),
		Concurrent: true,
		MaxRuns:    1,
	})
	if err == nil {
		t.Fatal("Spec.Crash+Concurrent session accepted")
	}
}

// TestFuzzCrashCoverageGain is the smoke test of the satellite: a short
// crash session reaches the persistence transition (osspec/trans/crash)
// that an identically-budgeted plain session cannot, and its corpus
// absorbs crash-labelled entries.
func TestFuzzCrashCoverageGain(t *testing.T) {
	run := func(prof fsimpl.Profile, spec types.Spec, seeds []*trace.Script) (*Result, *cov.Registry) {
		reg := cov.NewRegistry()
		res, err := Run(context.Background(), Config{
			Name:     "crash-smoke",
			Factory:  fsimpl.MemFactory(prof),
			Spec:     spec,
			Seed:     23,
			Workers:  1,
			MaxRuns:  150,
			Seeds:    seeds,
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg
	}
	hit := func(reg *cov.Registry, point string) bool {
		for _, unhit := range reg.Unhit() {
			if unhit == point {
				return false
			}
		}
		return true
	}

	seeds := testgen.CrashScripts()[:4]
	crashRes, crashReg := run(crashFuzzProfile(), crashFuzzSpec(), seeds)
	plainRes, plainReg := run(fsimpl.LinuxProfile("ext4"), types.DefaultSpec(), nil)

	if !hit(crashReg, "osspec/trans/crash") {
		t.Error("crash session never exercised the model's crash transition")
	}
	if hit(plainReg, "osspec/trans/crash") {
		t.Error("plain session exercised the crash transition — the gate leaks")
	}
	if crashRes.Runs == 0 || plainRes.Runs == 0 {
		t.Fatalf("sessions did not run: crash=%d plain=%d", crashRes.Runs, plainRes.Runs)
	}
	if crashRes.CorpusSize == 0 {
		t.Error("crash session admitted no corpus entries")
	}
}

// TestFuzzCrashSeedFilter: a crash-labelled corpus reloaded into a
// non-crash session is skipped at seeding (the factory cannot power-cycle)
// instead of erroring on every replay.
func TestFuzzCrashSeedFilter(t *testing.T) {
	crashSeed := &trace.Script{Name: "crash___seed", Steps: []trace.Step{
		{Label: types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "/d", Perm: 0o755}}},
		{Label: types.CrashLabel{Keep: 0}},
	}}
	res, err := Run(context.Background(), Config{
		Factory: fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		Spec:    types.DefaultSpec(),
		Seed:    9,
		Workers: 1,
		MaxRuns: 1,
		Seeds:   []*trace.Script{crashSeed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecErrors != 0 {
		t.Errorf("crash seed reached the non-crash executor: %d exec errors", res.ExecErrors)
	}
	// The skipped seed replays nothing, so seeding leaves coverage at zero
	// (the session's one fresh candidate runs after the figure is taken).
	if res.InitialCovHit != 0 {
		t.Errorf("crash seed was replayed at seeding: initial coverage %d, want 0", res.InitialCovHit)
	}
}
