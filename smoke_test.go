package sibylfs

import (
	"context"
	"testing"

	"repro/internal/fsimpl"
)

// TestSmokePipeline is the end-to-end sanity check: a handful of scripts
// executed against the determinized model and against memfs must be
// accepted by the oracle.
func TestSmokePipeline(t *testing.T) {
	scriptText := `@type script
# Test rename___rename_emptydir___nonemptydir
mkdir "emptydir" 0o777
mkdir "nonemptydir" 0o777
open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
rename "emptydir" "nonemptydir"
`
	s, err := ParseScript(scriptText)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, factory := range []Factory{
		SpecFS("spec", DefaultSpec()),
		MemFS(LinuxProfile("ext4")),
	} {
		tr := executeOne(t, s, factory)
		r := checkOne(t, DefaultSpec(), tr)
		if !r.Accepted {
			t.Errorf("trace not accepted:\n%s", RenderChecked(tr, r))
		}
	}
}

// TestSmokeSSHFSRenameEPERM reproduces Fig 4: SSHFS returning EPERM for a
// rename of an empty dir onto a non-empty dir is rejected with the right
// diagnosis.
func TestSmokeSSHFSRenameEPERM(t *testing.T) {
	traceText := `@type trace
# Test rename___rename_emptydir___nonemptydir
1: mkdir "emptydir" 0o777
1: RV_none
1: mkdir "nonemptydir" 0o777
1: RV_none
1: open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
1: RV_file_descriptor(FD 3)
1: rename "emptydir" "nonemptydir"
1: EPERM
`
	tr, err := ParseTrace(traceText)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r := checkOne(t, DefaultSpec(), tr)
	if r.Accepted {
		t.Fatalf("EPERM rename should be rejected")
	}
	if len(r.Errors) != 1 {
		t.Fatalf("want 1 error, got %+v", r.Errors)
	}
	got := r.Errors[0].Allowed
	want := map[string]bool{"EEXIST": true, "ENOTEMPTY": true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Errorf("allowed = %v, want EEXIST and ENOTEMPTY", got)
	}
}

// TestSmokeSuiteSample executes a slice of the generated suite on the
// conforming Linux memfs and checks acceptance.
func TestSmokeSuiteSample(t *testing.T) {
	suite := generate(t, (*Session).Generate)
	if len(suite) < 1000 {
		t.Fatalf("suite too small: %d", len(suite))
	}
	sample := suite[:0:0]
	for i := 0; i < len(suite); i += 97 {
		sample = append(sample, suite[i])
	}
	traces, results := executeAndCheck(t, sample, MemFS(fsimpl.LinuxProfile("ext4")), 0)
	bad := 0
	for i, r := range results {
		if !r.Accepted {
			bad++
			if bad <= 5 {
				t.Logf("rejected:\n%s", RenderChecked(traces[i], r))
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d sampled traces rejected", bad, len(sample))
	}
}

// generate builds one universe (a Session.Generate* method) in a fresh
// session.
func generate(tb testing.TB, universe func(*Session, context.Context) ([]*Script, error)) []*Script {
	tb.Helper()
	scripts, err := universe(New(), context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return scripts
}

// executeAndCheck executes scripts on factory with the given number of
// workers, then checks the traces against the default spec.
func executeAndCheck(t *testing.T, scripts []*Script, factory Factory, workers int) ([]*Trace, []CheckResult) {
	t.Helper()
	ctx := context.Background()
	traces, err := New(WithWorkers(workers)).Execute(ctx, scripts, factory)
	if err != nil {
		t.Fatal(err)
	}
	results, err := New().Check(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	return traces, results
}

// executeOne runs one script against factory in a fresh session.
func executeOne(tb testing.TB, s *Script, factory Factory) *Trace {
	tb.Helper()
	traces, err := New().Execute(context.Background(), []*Script{s}, factory)
	if err != nil {
		tb.Fatalf("exec %s: %v", s.Name, err)
	}
	return traces[0]
}

// checkOne checks one trace against spec in a fresh session.
func checkOne(t *testing.T, spec Spec, tr *Trace) CheckResult {
	t.Helper()
	r, err := New(WithSpec(spec)).CheckOne(context.Background(), tr)
	if err != nil {
		t.Fatalf("check %s: %v", tr.Name, err)
	}
	return r
}
