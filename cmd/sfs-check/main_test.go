package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/cliutil"
	"repro/internal/exec"
	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

// record executes scripts on the target's implementation and writes
// each trace into dir.
func record(t *testing.T, dir string, target cliutil.Target, scripts []*trace.Script) {
	t.Helper()
	for _, s := range scripts {
		tr, err := exec.Run(context.Background(), s, target.Factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, tr.Name+".trace"), []byte(tr.Render()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckCrashTraces: a directory holding the 40 crash___ traces of
// ext4 next to sequential ones is accepted whole — crash traces are
// checked under the persistence model, the others exactly as a plain
// checker checks them.
func TestCheckCrashTraces(t *testing.T) {
	in, out := t.TempDir(), t.TempDir()
	crash, err := cliutil.Resolve("ext4", "", cliutil.UniverseCrash, false)
	if err != nil {
		t.Fatal(err)
	}
	record(t, in, crash, testgen.CrashScripts())
	seq, err := cliutil.Resolve("ext4", "", cliutil.UniverseSequential, false)
	if err != nil {
		t.Fatal(err)
	}
	record(t, in, seq, cliutil.Sample(testgen.Generate().Scripts, 1000))

	var w bytes.Buffer
	summary, err := run(context.Background(), &w, in, out, "mixed vs linux", types.DefaultSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Total <= 40 || summary.Accepted != summary.Total {
		t.Fatalf("%d/%d traces accepted:\n%s", summary.Accepted, summary.Total, w.String())
	}
	if !strings.HasPrefix(w.String(), "mixed vs linux: ") {
		t.Errorf("summary is not titled by name:\n%s", w.String())
	}
	traces, err := cliutil.LoadTraces(in)
	if err != nil {
		t.Fatal(err)
	}
	plain := checker.New(types.DefaultSpec())
	for _, tr := range traces {
		if trace.HasCrashLabel(tr.Steps) {
			continue
		}
		got, err := os.ReadFile(filepath.Join(out, tr.Name+".checked"))
		if err != nil {
			t.Fatal(err)
		}
		if want := checker.RenderChecked(tr, plain.Check(tr)); string(got) != want {
			t.Errorf("%s: checked file differs from a plain checker's:\n%s\nwant:\n%s", tr.Name, got, want)
		}
	}
}
