package checker

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

// rejectedPosixovlTrace executes rename___symlink_chain___hardlink on
// posixovl_vfat_1.2, whose leaked hard link the linux model rejects: a
// trace with a deviation the walk must diagnose and continue past.
func rejectedPosixovlTrace(t *testing.T) *trace.Trace {
	t.Helper()
	var prof fsimpl.Profile
	for _, p := range fsimpl.SurveyProfiles() {
		if p.Name == "posixovl_vfat_1.2" {
			prof = p
		}
	}
	for _, s := range testgen.Generate().Scripts {
		if s.Name == "rename___symlink_chain___hardlink" {
			tr, err := exec.Run(context.Background(), s, fsimpl.MemFactory(prof), nil)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
	}
	t.Fatal("rename___symlink_chain___hardlink not generated")
	return nil
}

// TestWalkMatchesCheckCtx: walking a trace a step at a time, reading the
// result after every step as sfs-debug does, gives exactly CheckCtx's
// Result, and the set each step returns is the one the next step checks
// against (SumStates adds them up). Covered: the conc___ universe under
// schedule 1, the crash___ universe with a crash-mode checker, and a
// posixovl trace the oracle rejects.
func TestWalkMatchesCheckCtx(t *testing.T) {
	ctx := context.Background()
	type group struct {
		spec   types.Spec
		traces []*trace.Trace
	}
	var conc, crash group
	conc.spec = types.DefaultSpec()
	ext4 := fsimpl.MemFactory(fsimpl.LinuxProfile("ext4"))
	for _, s := range testgen.ConcurrentScripts() {
		tr, err := exec.RunConcurrent(ctx, s, ext4, exec.ConcurrentOptions{Seeded: true, Seed: 1}, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		conc.traces = append(conc.traces, tr)
	}
	crash.spec = types.DefaultSpec()
	crash.spec.Crash = true
	prof := fsimpl.LinuxProfile("ext4")
	prof.Crash = true
	for _, s := range testgen.CrashScripts() {
		tr, err := exec.Run(ctx, s, fsimpl.MemFactory(prof), nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		crash.traces = append(crash.traces, tr)
	}
	rejected := group{types.DefaultSpec(), []*trace.Trace{rejectedPosixovlTrace(t)}}

	var sawCrash, sawReject, sawBranch bool
	for _, g := range []group{conc, crash, rejected} {
		checked, walked := New(g.spec), New(g.spec)
		for _, tr := range g.traces {
			want, err := checked.CheckCtx(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}
			w := walked.Walk(ctx, tr.Name)
			sum := 0
			for i, st := range tr.Steps {
				states, err := w.Step(st)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Result(); err != nil {
					t.Fatal(err)
				}
				if i < len(tr.Steps)-1 {
					sum += len(states)
				}
				sawBranch = sawBranch || len(states) > 1
			}
			got, err := w.Result()
			if err != nil {
				t.Fatal(err)
			}
			got.TauNanos, want.TauNanos = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: walked %+v\nchecked %+v", tr.Name, got, want)
			}
			if len(tr.Steps) > 0 && 1+sum != want.SumStates {
				t.Fatalf("%s: the walk's sets add up to %d, SumStates %d", tr.Name, 1+sum, want.SumStates)
			}
			sawCrash = sawCrash || want.CrashPoints > 0
			sawReject = sawReject || (!want.Accepted && len(want.Errors) > 0)
		}
	}
	if !sawCrash || !sawReject || !sawBranch {
		t.Fatalf("fixtures missed a case: crash points %v, rejection %v, branching set %v", sawCrash, sawReject, sawBranch)
	}
}

// TestWalkCancelled: a walk whose context is done applies no step and
// reports the context's error, from Step and from Result.
func TestWalkCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := ctxTrace(1)
	w := New(types.DefaultSpec()).Walk(ctx, tr.Name)
	if _, err := w.Step(tr.Steps[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step: err = %v, want context.Canceled", err)
	}
	if res, err := w.Result(); !errors.Is(err, context.Canceled) || res.Steps != 0 {
		t.Fatalf("Result: %d steps, err = %v; want 0 and context.Canceled", res.Steps, err)
	}
}
