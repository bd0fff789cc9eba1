package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

// debugTrace writes tr as a trace file, runs sfs-debug on it against the
// linux model (types.DefaultSpec), and returns its output and the trace
// as parsed back from the file (whose step lines are the file's).
func debugTrace(t *testing.T, tr *trace.Trace) (string, *trace.Trace) {
	t.Helper()
	path := filepath.Join(t.TempDir(), tr.Name+".trace")
	if err := os.WriteFile(path, []byte(tr.Render()), 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ParseTrace(tr.Render())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), &out, path, types.PlatformLinux, false); err != nil {
		t.Fatal(err)
	}
	return out.String(), parsed
}

// stepBlocks splits sfs-debug's output into the block each step prints,
// keyed by the step's line: its header and everything up to the next.
func stepBlocks(t *testing.T, out string, tr *trace.Trace) map[int]string {
	t.Helper()
	blocks := make(map[int]string)
	rest := out
	for i, st := range tr.Steps {
		header := fmt.Sprintf("step %d: %s\n", st.Line, st.Label)
		at := strings.Index(rest, header)
		if at < 0 {
			t.Fatalf("no output for step %d (%s)", st.Line, st.Label)
		}
		rest = rest[at+len(header):]
		end := len(rest)
		if i+1 < len(tr.Steps) {
			end = strings.Index(rest, fmt.Sprintf("step %d: ", tr.Steps[i+1].Line))
			if end < 0 {
				t.Fatalf("no output for step %d", tr.Steps[i+1].Line)
			}
		}
		blocks[st.Line] = rest[:end]
	}
	return blocks
}

// TestDebugContinuesPastDeviation: on a trace the oracle rejects
// (posixovl's leaked hard link), sfs-debug prints every step, the
// oracle's Fig 4 diagnosis under the deviating one, and the verdict.
func TestDebugContinuesPastDeviation(t *testing.T) {
	var prof fsimpl.Profile
	for _, p := range fsimpl.SurveyProfiles() {
		if p.Name == "posixovl_vfat_1.2" {
			prof = p
		}
	}
	var tr *trace.Trace
	for _, s := range testgen.Generate().Scripts {
		if s.Name == "rename___symlink_chain___hardlink" {
			var err error
			if tr, err = exec.Run(context.Background(), s, fsimpl.MemFactory(prof), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr == nil {
		t.Fatal("rename___symlink_chain___hardlink not generated")
	}
	out, parsed := debugTrace(t, tr)
	res := checker.New(types.DefaultSpec()).Check(parsed)
	if res.Accepted || len(res.Errors) == 0 {
		t.Fatalf("the oracle accepts %s; the fixture needs a deviation", tr.Name)
	}
	blocks := stepBlocks(t, out, parsed)
	for _, e := range res.Errors {
		for _, line := range strings.Split(strings.TrimSuffix(e.Message(), "\n"), "\n") {
			if !strings.Contains(blocks[e.Line], "  "+line+"\n") {
				t.Errorf("step %d's output lacks the diagnosis line %q:\n%s", e.Line, line, blocks[e.Line])
			}
		}
	}
	if want := fmt.Sprintf("# Trace NOT accepted: %d error(s).\n", len(res.Errors)); !strings.HasSuffix(out, want) {
		t.Errorf("output does not end with %q", want)
	}
}

// TestDebugShowsCheckerSets: on conc___mkdir_race___4 under schedule 1,
// every set sfs-debug reports is the one the checker's walk tracks after
// that step. The old hand-written loop skipped the closure before a
// destroy and showed 96 states at line 33, where the oracle tracks 192.
func TestDebugShowsCheckerSets(t *testing.T) {
	var tr *trace.Trace
	factory := fsimpl.MemFactory(fsimpl.LinuxProfile("ext4"))
	for _, s := range testgen.ConcurrentScripts() {
		if s.Name == "conc___mkdir_race___4" {
			var err error
			if tr, err = exec.RunConcurrent(context.Background(), s, factory, exec.ConcurrentOptions{Seeded: true, Seed: 1}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr == nil {
		t.Fatal("conc___mkdir_race___4 not generated")
	}
	out, parsed := debugTrace(t, tr)
	blocks := stepBlocks(t, out, parsed)
	w := checker.New(types.DefaultSpec()).Walk(context.Background(), parsed.Name)
	for _, st := range parsed.Steps {
		states, err := w.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("  tracking %d state(s)\n", len(states))
		if !strings.Contains(blocks[st.Line], want) {
			t.Fatalf("step %d: output lacks %q:\n%s", st.Line, want, blocks[st.Line])
		}
	}
	if !strings.Contains(blocks[33], "  tracking 192 state(s)\n") {
		t.Errorf("line 33: want 192 tracked states:\n%s", blocks[33])
	}
}

// TestDebugCrashTrace: a trace with crash labels is walked under the
// persistence model, which admits the power cycles. Without it every
// crash step was "no behaviour allowed" and crash___double___0 ended
// with 6 errors.
func TestDebugCrashTrace(t *testing.T) {
	prof := fsimpl.LinuxProfile("ext4")
	prof.Crash = true
	var tr *trace.Trace
	for _, s := range testgen.CrashScripts() {
		if s.Name == "crash___double___0" {
			var err error
			if tr, err = exec.Run(context.Background(), s, fsimpl.MemFactory(prof), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr == nil {
		t.Fatal("crash___double___0 not generated")
	}
	out, _ := debugTrace(t, tr)
	if strings.Contains(out, "no behaviour allowed") {
		t.Errorf("a crash step was rejected:\n%s", out)
	}
	if !strings.HasSuffix(out, "# Trace accepted.\n") {
		t.Errorf("output does not end with the accepted verdict:\n%s", out)
	}
}
