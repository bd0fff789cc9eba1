package exec

import (
	"context"
	"slices"

	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/fsimpl"
	"repro/internal/trace"
	"repro/internal/types"
)

func script(name string, labels ...types.Label) *trace.Script {
	s := &trace.Script{Name: name}
	for _, l := range labels {
		s.Steps = append(s.Steps, trace.Step{Label: l})
	}
	return s
}

func TestRunRecordsCallReturnPairs(t *testing.T) {
	s := script("demo",
		types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "/d", Perm: 0o755}},
		types.CallLabel{Pid: 1, Cmd: types.Stat{Path: "/d"}},
	)
	tr, err := Run(context.Background(), s, fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "demo" || len(tr.Steps) != 4 {
		t.Fatalf("trace = %+v", tr)
	}
	for i := 0; i < len(tr.Steps); i += 2 {
		if _, ok := tr.Steps[i].Label.(types.CallLabel); !ok {
			t.Errorf("step %d not a call", i)
		}
		if _, ok := tr.Steps[i+1].Label.(types.ReturnLabel); !ok {
			t.Errorf("step %d not a return", i+1)
		}
	}
}

func TestRunHandlesProcessEvents(t *testing.T) {
	s := script("procs",
		types.CreateLabel{Pid: 2, Uid: 1000, Gid: 1000},
		types.CallLabel{Pid: 2, Cmd: types.Umask{Mask: 0o077}},
		types.DestroyLabel{Pid: 2},
	)
	tr, err := Run(context.Background(), s, fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 4 { // create, call, return, destroy
		t.Fatalf("steps = %d", len(tr.Steps))
	}
}

func TestRunRejectsReturnLabels(t *testing.T) {
	s := script("bad",
		types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "/d", Perm: 0o755}},
		types.ReturnLabel{Pid: 1, Ret: types.RvNone{}},
	)
	_, err := Run(context.Background(), s, fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")), nil)
	if err == nil {
		t.Fatal("script with return label accepted")
	}
	if !strings.Contains(err.Error(), "return label") || !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("error does not diagnose the return label: %v", err)
	}
}

func TestRunAllFreshInstancePerScript(t *testing.T) {
	// Both scripts create the same path; with a fresh FS per script both
	// must succeed.
	mk := func(n string) *trace.Script {
		return script(n, types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "/same", Perm: 0o755}})
	}
	traces, err := RunAll(context.Background(), []*trace.Script{mk("a"), mk("b")}, fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		ret := tr.Steps[1].Label.(types.ReturnLabel)
		if !ret.Ret.Equal(types.RvNone{}) {
			t.Errorf("%s: mkdir = %v (state leaked between scripts?)", tr.Name, ret.Ret)
		}
	}
}

func TestRunAllPreservesOrder(t *testing.T) {
	var scripts []*trace.Script
	for i := 0; i < 50; i++ {
		scripts = append(scripts, script(string(rune('a'+i%26))+itoa(i),
			types.CallLabel{Pid: 1, Cmd: types.Stat{Path: "/"}}))
	}
	traces, err := RunAll(context.Background(), scripts, fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scripts {
		if traces[i].Name != scripts[i].Name {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestRunRecordsModelCoverage: an implementation that evaluates the
// model (SpecFS) hands its coverage points to the caller's set, RunAll
// merges one set per script into its registry, and an implementation
// that does not evaluate the model records nothing.
func TestRunRecordsModelCoverage(t *testing.T) {
	s := script("cov", types.CallLabel{Pid: 1, Cmd: types.Mkdir{Path: "/d", Perm: 0o755}})
	var hits cov.Set
	if _, err := Run(context.Background(), s, fsimpl.SpecFactory("spec", types.DefaultSpec()), &hits); err != nil {
		t.Fatal(err)
	}
	names := hits.Names()
	if !slices.Contains(names, "fsspec/mkdir/ok") || !slices.Contains(names, "osspec/trans/call") {
		t.Fatalf("SpecFS run hit %v, want fsspec/mkdir/ok and osspec/trans/call among them", names)
	}
	var none cov.Set
	if _, err := Run(context.Background(), s, fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")), &none); err != nil {
		t.Fatal(err)
	}
	if none != (cov.Set{}) {
		t.Fatalf("memfs run recorded model coverage %v", none.Names())
	}
	reg := cov.NewRegistry()
	if _, err := RunAll(context.Background(), []*trace.Script{s, s}, fsimpl.SpecFactory("spec", types.DefaultSpec()), 2, reg); err != nil {
		t.Fatal(err)
	}
	ids, counts := reg.Snapshot()
	for i, id := range ids {
		want := uint64(0)
		if slices.Contains(names, id) {
			want = 2
		}
		if counts[i] != want {
			t.Errorf("%s counted %d times, want %d (once per script that hit it)", id, counts[i], want)
		}
	}
}
