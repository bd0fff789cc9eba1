package checker

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/types"
)

func parse(t *testing.T, text string) *trace.Trace {
	t.Helper()
	tr, err := trace.ParseTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAcceptsConformingTrace(t *testing.T) {
	tr := parse(t, `@type trace
1: mkdir "d" 0o755
1: RV_none
1: open "d/f" [O_CREAT;O_WRONLY] 0o644
1: RV_file_descriptor(FD 3)
1: write (FD 3) "hi" 2
1: RV_num(2)
1: close (FD 3)
1: RV_none
1: stat "d/f"
1: RV_stats { st_kind=S_IFREG; st_perm=0o644; st_size=2; st_nlink=1; st_uid=0; st_gid=0 }
`)
	r := New(types.DefaultSpec()).Check(tr)
	if !r.Accepted {
		t.Fatalf("conforming trace rejected: %+v", r.Errors)
	}
	if r.MaxStates < 1 {
		t.Error("state set never populated")
	}
}

func TestRejectsWithDiagnosis(t *testing.T) {
	tr := parse(t, `@type trace
1: mkdir "d" 0o755
1: EEXIST
`)
	r := New(types.DefaultSpec()).Check(tr)
	if r.Accepted {
		t.Fatal("bad trace accepted")
	}
	if len(r.Errors) != 1 {
		t.Fatalf("errors = %+v", r.Errors)
	}
	e := r.Errors[0]
	if e.Observed != "EEXIST" {
		t.Errorf("observed = %q", e.Observed)
	}
	if len(e.Allowed) != 1 || e.Allowed[0] != "RV_none" {
		t.Errorf("allowed = %v", e.Allowed)
	}
	msg := e.Message()
	for _, want := range []string{"# Error:", "unexpected results: EEXIST", "allowed are only: RV_none", "continuing with"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message missing %q:\n%s", want, msg)
		}
	}
}

func TestContinuesAfterError(t *testing.T) {
	// After the wrong mkdir return, checking continues with the allowed
	// value (the dir exists), so the subsequent stat must be accepted.
	tr := parse(t, `@type trace
1: mkdir "d" 0o755
1: EEXIST
1: stat "d"
1: RV_stats { st_kind=S_IFDIR; st_perm=0o755; st_size=0; st_nlink=2; st_uid=0; st_gid=0 }
`)
	r := New(types.DefaultSpec()).Check(tr)
	if len(r.Errors) != 1 {
		t.Fatalf("recovery failed; errors = %+v", r.Errors)
	}
}

func TestLooseErrorEnvelope(t *testing.T) {
	// rename empty dir onto non-empty dir: both ENOTEMPTY and EEXIST are
	// accepted; EPERM is not (the Fig 4 scenario).
	base := `@type trace
1: mkdir "e" 0o755
1: RV_none
1: mkdir "d" 0o755
1: RV_none
1: mkdir "d/x" 0o755
1: RV_none
1: rename "e" "d"
1: %s
`
	for _, errname := range []string{"ENOTEMPTY", "EEXIST"} {
		tr := parse(t, strings.Replace(base, "%s", errname, 1))
		if r := New(types.DefaultSpec()).Check(tr); !r.Accepted {
			t.Errorf("%s rejected: %+v", errname, r.Errors)
		}
	}
	tr := parse(t, strings.Replace(base, "%s", "EPERM", 1))
	if r := New(types.DefaultSpec()).Check(tr); r.Accepted {
		t.Error("EPERM accepted")
	}
}

func TestReaddirNondeterminismResolved(t *testing.T) {
	// The trace returns entries in reverse-alphabetical order — allowed,
	// since readdir order is unspecified.
	tr := parse(t, `@type trace
1: mkdir "d" 0o755
1: RV_none
1: open "d/a" [O_CREAT;O_WRONLY] 0o644
1: RV_file_descriptor(FD 3)
1: close (FD 3)
1: RV_none
1: open "d/b" [O_CREAT;O_WRONLY] 0o644
1: RV_file_descriptor(FD 4)
1: close (FD 4)
1: RV_none
1: opendir "d"
1: RV_dir_handle(DH 1)
1: readdir (DH 1)
1: RV_readdir("b")
1: readdir (DH 1)
1: RV_readdir("a")
1: readdir (DH 1)
1: RV_readdir_end
1: closedir (DH 1)
1: RV_none
`)
	if r := New(types.DefaultSpec()).Check(tr); !r.Accepted {
		t.Fatalf("reverse-order readdir rejected: %+v", r.Errors)
	}
}

func TestMultiProcessInterleaving(t *testing.T) {
	tr := parse(t, `@type trace
1: mkdir "d" 0o755
1: RV_none
create 2 0 0
2: stat "d"
2: RV_stats { st_kind=S_IFDIR; st_perm=0o755; st_size=0; st_nlink=2; st_uid=0; st_gid=0 }
2: rmdir "d"
2: RV_none
1: stat "d"
1: ENOENT
destroy 2
`)
	if r := New(types.DefaultSpec()).Check(tr); !r.Accepted {
		t.Fatalf("cross-process trace rejected: %+v", r.Errors)
	}
}

func TestPlatformVariantsDiffer(t *testing.T) {
	tr := parse(t, `@type trace
1: mkdir "d" 0o755
1: RV_none
1: unlink "d"
1: EISDIR
`)
	if r := New(types.Spec{Platform: types.PlatformLinux, Permissions: true, RootUser: true}).Check(tr); !r.Accepted {
		t.Error("Linux variant must allow EISDIR for unlink(dir)")
	}
	if r := New(types.Spec{Platform: types.PlatformOSX, Permissions: true, RootUser: true}).Check(tr); r.Accepted {
		t.Error("OS X variant must reject EISDIR for unlink(dir)")
	}
}

func TestPermissionsTraitToggle(t *testing.T) {
	tr := parse(t, `@type trace
1: mkdir "p" 0o700
1: RV_none
1: chown "p" 5 5
1: RV_none
create 2 1000 1000
2: opendir "p"
2: EACCES
`)
	withPerms := types.DefaultSpec()
	if r := New(withPerms).Check(tr); !r.Accepted {
		t.Errorf("EACCES rejected with permissions on: %+v", r.Errors)
	}
	noPerms := withPerms
	noPerms.Permissions = false
	if r := New(noPerms).Check(tr); r.Accepted {
		t.Error("EACCES accepted with permissions off (core without permissions)")
	}
}

func TestUnexpectedLabelRecovery(t *testing.T) {
	// A return with no outstanding call: flagged, then skipped.
	tr := parse(t, `@type trace
1: RV_none
1: mkdir "d" 0o755
1: RV_none
`)
	r := New(types.DefaultSpec()).Check(tr)
	if r.Accepted || len(r.Errors) != 1 {
		t.Fatalf("result = %+v", r)
	}
}

// TestCheckAllParallelMatchesSerial: checking a slice of traces in
// parallel, one checker per par.Each worker as every parallel caller
// does, gives each trace the result a lone serial checker gives it.
// TauNanos is wall-clock telemetry and is zeroed.
func TestCheckAllParallelMatchesSerial(t *testing.T) {
	mk := func() *trace.Trace {
		return parse(t, `@type trace
1: mkdir "d" 0o755
1: RV_none
1: rmdir "d"
1: RV_none
`)
	}
	var traces []*trace.Trace
	for i := 0; i < 64; i++ {
		traces = append(traces, mk())
	}
	serial := New(types.DefaultSpec())
	want := make([]Result, len(traces))
	for i, tr := range traces {
		want[i] = serial.Check(tr)
		want[i].TauNanos = 0
	}
	const workers = 8
	checkers := make([]*Checker, workers)
	for w := range checkers {
		checkers[w] = New(types.DefaultSpec())
	}
	got := make([]Result, len(traces))
	par.Each(context.Background(), workers, len(traces), func(w, i int) bool {
		got[i] = checkers[w].Check(traces[i])
		got[i].TauNanos = 0
		return true
	})
	for i, r := range got {
		if !r.Accepted {
			t.Fatalf("trace %d rejected in parallel run", i)
		}
		if !reflect.DeepEqual(r, want[i]) {
			t.Fatalf("trace %d: parallel result differs from serial:\n%+v\nwant\n%+v", i, r, want[i])
		}
	}
}

func TestRenderChecked(t *testing.T) {
	tr := parse(t, `@type trace
1: mkdir "d" 0o755
1: EEXIST
`)
	r := New(types.DefaultSpec()).Check(tr)
	out := RenderChecked(tr, r)
	for _, want := range []string{"@type checked_trace", "# Error:", "NOT accepted"} {
		if !strings.Contains(out, want) {
			t.Errorf("checked trace missing %q:\n%s", want, out)
		}
	}
	good := parse(t, `@type trace
1: mkdir "d" 0o755
1: RV_none
`)
	out = RenderChecked(good, New(types.DefaultSpec()).Check(good))
	if !strings.Contains(out, "# Trace accepted.") {
		t.Error("accepted marker missing")
	}
}

func TestStateSetStaysSmall(t *testing.T) {
	// Sequential traces must keep the state set tiny (the §3 engineering
	// claim: no blowup without backtracking).
	var b strings.Builder
	b.WriteString("@type trace\n")
	b.WriteString("1: mkdir \"d\" 0o755\n1: RV_none\n")
	for i := 0; i < 20; i++ {
		name := string(rune('a' + i%26))
		b.WriteString("1: open \"d/" + name + "\" [O_CREAT;O_WRONLY] 0o644\n")
		b.WriteString("1: RV_file_descriptor(FD " + itoa(3+i) + ")\n")
	}
	tr := parse(t, b.String())
	r := New(types.DefaultSpec()).Check(tr)
	if !r.Accepted {
		t.Fatalf("trace rejected: %+v", r.Errors)
	}
	if r.MaxStates > 8 {
		t.Errorf("state set grew to %d on a deterministic trace", r.MaxStates)
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
