package exec

import (
	"context"

	"testing"

	"repro/internal/fsimpl"
	"repro/internal/trace"
	"repro/internal/types"
)

// racyScript builds the canonical racy fixture: n processes racing mkdir
// and stat on one shared path plus a private child each.
func racyScript(n int) *trace.Script {
	s := &trace.Script{Name: "racy"}
	for p := 2; p <= n; p++ {
		s.Steps = append(s.Steps, trace.Step{Label: types.CreateLabel{Pid: types.Pid(p), Uid: 0, Gid: 0}})
	}
	for p := 1; p <= n; p++ {
		pid := types.Pid(p)
		s.Steps = append(s.Steps,
			trace.Step{Label: types.CallLabel{Pid: pid, Cmd: types.Mkdir{Path: "/r", Perm: 0o755}}},
			trace.Step{Label: types.CallLabel{Pid: pid, Cmd: types.Mkdir{Path: "/r/c" + itoa(p), Perm: 0o755}}},
			trace.Step{Label: types.CallLabel{Pid: pid, Cmd: types.Stat{Path: "/r"}}},
		)
	}
	for p := 2; p <= n; p++ {
		s.Steps = append(s.Steps, trace.Step{Label: types.DestroyLabel{Pid: types.Pid(p)}})
	}
	return s
}

func memFactory() fsimpl.Factory { return fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")) }

func TestConcurrentSeededDeterministic(t *testing.T) {
	s := racyScript(3)
	for _, seed := range []int64{1, 7, 12345} {
		a, err := RunConcurrent(context.Background(), s, memFactory(), ConcurrentOptions{Seeded: true, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunConcurrent(context.Background(), s, memFactory(), ConcurrentOptions{Seeded: true, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Render() != b.Render() {
			t.Fatalf("seed %d: traces differ:\n%s\n---\n%s", seed, a.Render(), b.Render())
		}
	}
}

func TestConcurrentSeedsProduceDifferentInterleavings(t *testing.T) {
	s := racyScript(3)
	seen := make(map[string]bool)
	for seed := int64(1); seed <= 8; seed++ {
		tr, err := RunConcurrent(context.Background(), s, memFactory(), ConcurrentOptions{Seeded: true, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[tr.Render()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("8 seeds produced %d distinct interleavings on a racy fixture", len(seen))
	}
}

// checkTraceShape verifies the structural invariants any concurrent trace
// must satisfy: per-process program order is preserved, every call is
// answered by exactly one return for that pid before its next call, calls
// appear only between the pid's create and destroy.
func checkTraceShape(t *testing.T, s *trace.Script, tr *trace.Trace) {
	t.Helper()
	wantCalls := make(map[types.Pid][]types.Command)
	for _, st := range s.Steps {
		if cl, ok := st.Label.(types.CallLabel); ok {
			wantCalls[cl.Pid] = append(wantCalls[cl.Pid], cl.Cmd)
		}
	}
	gotCalls := make(map[types.Pid][]types.Command)
	pending := make(map[types.Pid]bool)
	alive := map[types.Pid]bool{1: true}
	for _, st := range tr.Steps {
		switch lbl := st.Label.(type) {
		case types.CreateLabel:
			if alive[lbl.Pid] {
				t.Fatalf("line %d: create of live pid %d", st.Line, lbl.Pid)
			}
			alive[lbl.Pid] = true
		case types.DestroyLabel:
			if !alive[lbl.Pid] || pending[lbl.Pid] {
				t.Fatalf("line %d: destroy of pid %d (alive=%v pending=%v)", st.Line, lbl.Pid, alive[lbl.Pid], pending[lbl.Pid])
			}
			delete(alive, lbl.Pid)
		case types.CallLabel:
			if !alive[lbl.Pid] {
				t.Fatalf("line %d: call from dead pid %d", st.Line, lbl.Pid)
			}
			if pending[lbl.Pid] {
				t.Fatalf("line %d: pid %d issued a second call with one outstanding", st.Line, lbl.Pid)
			}
			pending[lbl.Pid] = true
			gotCalls[lbl.Pid] = append(gotCalls[lbl.Pid], lbl.Cmd)
		case types.ReturnLabel:
			if !pending[lbl.Pid] {
				t.Fatalf("line %d: return for pid %d with no outstanding call", st.Line, lbl.Pid)
			}
			pending[lbl.Pid] = false
		}
	}
	for pid, want := range wantCalls {
		got := gotCalls[pid]
		if len(got) != len(want) {
			t.Fatalf("pid %d: %d calls in trace, script has %d", pid, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("pid %d call %d: got %s, want %s (program order broken)", pid, i, got[i], want[i])
			}
		}
	}
}

func TestConcurrentSeededTraceWellFormed(t *testing.T) {
	s := racyScript(4)
	for seed := int64(1); seed <= 5; seed++ {
		tr, err := RunConcurrent(context.Background(), s, memFactory(), ConcurrentOptions{Seeded: true, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkTraceShape(t, s, tr)
	}
}

func TestConcurrentFreeTraceWellFormed(t *testing.T) {
	// The free-running mode is scheduler-dependent; repeat a few times so
	// the -race CI job gets real interleavings to chew on.
	s := racyScript(4)
	for i := 0; i < 10; i++ {
		tr, err := RunConcurrent(context.Background(), s, memFactory(), ConcurrentOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkTraceShape(t, s, tr)
	}
}

func TestConcurrentRejectsMalformedScripts(t *testing.T) {
	cases := []struct {
		name  string
		steps []types.Label
	}{
		{"return_label", []types.Label{types.ReturnLabel{Pid: 1, Ret: types.RvNone{}}}},
		{"tau_label", []types.Label{types.TauLabel{}}},
		{"call_before_create", []types.Label{types.CallLabel{Pid: 2, Cmd: types.Stat{Path: "/"}}}},
		{"duplicate_create", []types.Label{
			types.CreateLabel{Pid: 2, Uid: 0, Gid: 0},
			types.CreateLabel{Pid: 2, Uid: 0, Gid: 0},
		}},
		{"create_of_pid1", []types.Label{types.CreateLabel{Pid: 1, Uid: 0, Gid: 0}}},
		{"call_after_destroy", []types.Label{
			types.CreateLabel{Pid: 2, Uid: 0, Gid: 0},
			types.DestroyLabel{Pid: 2},
			types.CallLabel{Pid: 2, Cmd: types.Stat{Path: "/"}},
		}},
		{"destroy_unknown", []types.Label{types.DestroyLabel{Pid: 9}}},
	}
	for _, c := range cases {
		s := &trace.Script{Name: c.name}
		for _, l := range c.steps {
			s.Steps = append(s.Steps, trace.Step{Label: l})
		}
		if _, err := RunConcurrent(context.Background(), s, memFactory(), ConcurrentOptions{Seeded: true, Seed: 1}, nil); err == nil {
			t.Errorf("%s: malformed script accepted", c.name)
		}
	}
}

func TestConcurrentAllowsRecreatedPid(t *testing.T) {
	// The fuzz mutators' lifecycle validator permits destroy-then-create
	// of the same pid (e.g. a splice through one parent's destroy into a
	// donor's create); the concurrent executor must execute it, keeping
	// the pid's events in program order.
	s := &trace.Script{Name: "recreate"}
	s.Steps = append(s.Steps,
		trace.Step{Label: types.CreateLabel{Pid: 2, Uid: 0, Gid: 0}},
		trace.Step{Label: types.CallLabel{Pid: 2, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}}},
		trace.Step{Label: types.DestroyLabel{Pid: 2}},
		trace.Step{Label: types.CreateLabel{Pid: 2, Uid: 1000, Gid: 1000}},
		trace.Step{Label: types.CallLabel{Pid: 2, Cmd: types.Stat{Path: "/a"}}},
		trace.Step{Label: types.DestroyLabel{Pid: 2}},
		trace.Step{Label: types.CallLabel{Pid: 1, Cmd: types.Stat{Path: "/"}}},
	)
	for seed := int64(1); seed <= 4; seed++ {
		tr, err := RunConcurrent(context.Background(), s, memFactory(), ConcurrentOptions{Seeded: true, Seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkTraceShape(t, s, tr)
	}
	tr, err := RunConcurrent(context.Background(), s, memFactory(), ConcurrentOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTraceShape(t, s, tr)
}

func TestRunAllConcurrentPreservesOrder(t *testing.T) {
	var scripts []*trace.Script
	for i := 0; i < 30; i++ {
		s := racyScript(2)
		s.Name = "racy" + itoa(i)
		scripts = append(scripts, s)
	}
	traces, err := RunAllConcurrent(context.Background(), scripts, memFactory(), ConcurrentOptions{Seeded: true, Seed: 3}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scripts {
		if traces[i].Name != scripts[i].Name {
			t.Fatalf("order broken at %d", i)
		}
	}
}
