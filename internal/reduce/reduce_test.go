package reduce

import (
	"context"
	"testing"

	"repro/internal/checker"
	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/trace"
	"repro/internal/types"
)

func linuxSpec() types.Spec { return types.DefaultSpec() }

func call(c types.Command) trace.Step {
	return trace.Step{Label: types.CallLabel{Pid: 1, Cmd: c}}
}

// buggyScript pads the chmod-EOPNOTSUPP deviation (HFS+ on Trusty) with
// irrelevant commands; reduction must strip the noise and keep a script
// that still deviates.
func buggyScript() *trace.Script {
	return &trace.Script{Name: "padded", Steps: []trace.Step{
		call(types.Mkdir{Path: "/noise1", Perm: 0o755}),
		call(types.Mkdir{Path: "/noise2", Perm: 0o755}),
		call(types.Symlink{Target: "noise1", Linkpath: "/sn"}),
		call(types.Stat{Path: "/noise2"}),
		call(types.Open{Path: "/t", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
		call(types.Close{FD: 3}),
		call(types.Chmod{Path: "/t", Perm: 0o600}), // the deviating call
		call(types.Unlink{Path: "/sn"}),
		call(types.Rmdir{Path: "/noise2"}),
	}}
}

func trustyHFS() fsimpl.Factory {
	for _, p := range fsimpl.SurveyProfiles() {
		if p.Name == "hfsplus_linux_trusty" {
			return fsimpl.MemFactory(p)
		}
	}
	panic("profile missing")
}

// deviates is the oracle the tests minimize with: it executes the script
// against a fresh instance from factory and reports whether the checker
// rejects the resulting trace.
func deviates(factory fsimpl.Factory) Oracle {
	c := checker.New(linuxSpec())
	return func(s *trace.Script) (bool, error) {
		tr, err := exec.Run(context.Background(), s, factory, nil)
		if err != nil {
			return false, err
		}
		return !c.Check(tr).Accepted, nil
	}
}

func TestMinimizeStripsNoise(t *testing.T) {
	min, err := Minimize(buggyScript(), deviates(trustyHFS()))
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Steps) >= len(buggyScript().Steps) {
		t.Fatalf("no reduction: %d steps", len(min.Steps))
	}
	// The result must still deviate ...
	bad, err := deviates(trustyHFS())(min)
	if err != nil || !bad {
		t.Fatalf("minimized script no longer deviates (err=%v)", err)
	}
	// ... and must still contain the chmod. With one-step granularity the
	// chmod alone deviates, so the minimum is exactly one step.
	if len(min.Steps) != 1 {
		t.Errorf("minimum = %d steps, want 1 (bare chmod)", len(min.Steps))
	}
	if c, ok := min.Steps[0].Label.(types.CallLabel); !ok || c.Cmd.Op() != "chmod" {
		t.Errorf("minimum kept %v", min.Steps[0].Label)
	}
}

func TestMinimizeLeavesCleanScriptsAlone(t *testing.T) {
	s := buggyScript()
	min, err := Minimize(s, deviates(fsimpl.MemFactory(fsimpl.LinuxProfile("ext4"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Steps) != len(s.Steps) {
		t.Error("clean script was modified")
	}
}

// TestMinimizeStatefulDependency: when the deviation needs earlier setup
// (the OpenZFS O_APPEND bug needs pre-existing content), reduction keeps
// the dependency chain.
func TestMinimizeStatefulDependency(t *testing.T) {
	var prof fsimpl.Profile
	for _, p := range fsimpl.SurveyProfiles() {
		if p.Name == "openzfs_0.6.3_trusty" {
			prof = p
		}
	}
	s := &trace.Script{Name: "append", Steps: []trace.Step{
		call(types.Mkdir{Path: "/unrelated", Perm: 0o755}),
		call(types.Open{Path: "/t", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true}),
		call(types.Write{FD: 3, Data: []byte("precious"), Size: 8}),
		call(types.Close{FD: 3}),
		call(types.Open{Path: "/t", Flags: types.OWronly | types.OAppend}),
		call(types.Write{FD: 4, Data: []byte("XY"), Size: 2}),
		call(types.Close{FD: 4}),
		call(types.Open{Path: "/t", Flags: types.ORdonly}),
		call(types.Read{FD: 5, Size: 16}),
	}}
	min, err := Minimize(s, deviates(fsimpl.MemFactory(prof)))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := deviates(fsimpl.MemFactory(prof))(min)
	if err != nil || !bad {
		t.Fatalf("minimized script no longer deviates")
	}
	// The unrelated mkdir must be gone; the write/append chain must stay.
	for _, st := range min.Steps {
		if c, ok := st.Label.(types.CallLabel); ok && c.Cmd.Op() == "mkdir" {
			t.Error("unrelated mkdir survived reduction")
		}
	}
	if len(min.Steps) >= len(s.Steps) {
		t.Errorf("no reduction: %d steps", len(min.Steps))
	}
}
