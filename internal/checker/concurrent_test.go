package checker

// Golden multi-process trace fixtures: hand-written traces with genuinely
// overlapping calls, pinning down the oracle's τ-closure behaviour — the
// state-set strategy of §3 under real concurrency. These are regression
// tests for the concurrent executor's checker side: acceptance, the
// MaxStates the closure must reach, and byte-stable diagnoses.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/types"
)

// twoWriterTrace: two processes race O_CREAT opens and writes on one path;
// the calls overlap (both calls are outstanding before either return).
// The final read observes "aa" — the linearisation where pid 1 wrote last.
const twoWriterTrace = `@type trace
create 2 0 0
1: open "/f" [O_CREAT;O_WRONLY] 0o644
2: open "/f" [O_CREAT;O_WRONLY] 0o644
1: RV_file_descriptor(FD 3)
2: RV_file_descriptor(FD 3)
1: write (FD 3) "aa" 2
2: write (FD 3) "bb" 2
2: RV_num(2)
1: RV_num(2)
1: close (FD 3)
2: close (FD 3)
2: RV_none
1: RV_none
destroy 2
1: open "/f" [O_RDONLY]
1: RV_file_descriptor(FD 4)
1: read (FD 4) 4
1: RV_bytes("aa")
`

func TestTwoWritersRacingOnePath(t *testing.T) {
	tr := parse(t, twoWriterTrace)
	r := New(types.DefaultSpec()).Check(tr)
	if !r.Accepted {
		t.Fatalf("racing-writers trace rejected:\n%s", RenderChecked(tr, r))
	}
	if r.MaxStates <= 1 {
		t.Errorf("MaxStates = %d, want > 1: the closure never branched on write order", r.MaxStates)
	}
	if r.TauExpansions == 0 {
		t.Error("no τ-expansions on an overlapping-call trace")
	}
}

// TestCheckerReusableAfterPanic: a checker's traces all reuse its one
// scratch, and the fuzzer recovers a panic mid-check and checks its next
// candidate with the same checker. A check cut short by a panic must
// leave nothing behind: the next traces, one opening with a create and
// one with a call, check exactly as on a fresh checker, with a cons table
// or without.
func TestCheckerReusableAfterPanic(t *testing.T) {
	bad := parse(t, twoWriterTrace)
	// Pid 1's write returns no value at all: the check dies on it, after
	// the closure over both pending writes has filled the scratch.
	if _, ok := bad.Steps[8].Label.(types.ReturnLabel); !ok {
		t.Fatalf("step 8 is %s, want pid 1's write return", bad.Steps[8].Label)
	}
	bad.Steps[8].Label = types.ReturnLabel{Pid: 1}
	good := []*trace.Trace{parse(t, twoWriterTrace), parse(t, `@type trace
1: mkdir "d" 0o755
1: RV_none
`)}
	for _, memo := range []bool{false, true} {
		c := New(types.DefaultSpec())
		if memo {
			c.Memo = NewConsTable(0, 0)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("memo=%v: a return without a value did not panic", memo)
				}
			}()
			c.Check(bad)
		}()
		for _, tr := range good {
			want := New(types.DefaultSpec()).Check(tr)
			got := c.Check(tr)
			got.TauNanos, want.TauNanos = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("memo=%v: %s after a panic diverged:\n%+v\nwant\n%+v", memo, tr.Steps[0].Label, got, want)
			}
		}
	}
}

func TestTwoWritersOtherLinearisationAlsoAccepted(t *testing.T) {
	// "bb" — pid 2 wrote last — is the other allowed outcome.
	tr := parse(t, strings.Replace(twoWriterTrace, `RV_bytes("aa")`, `RV_bytes("bb")`, 1))
	if r := New(types.DefaultSpec()).Check(tr); !r.Accepted {
		t.Fatalf("other write order rejected:\n%s", RenderChecked(tr, r))
	}
}

func TestTwoWritersImpossibleContentRejectedStably(t *testing.T) {
	// "ab" interleaves the two writes byte-wise — no linearisation of
	// whole-call effects produces it, so the oracle must reject, and the
	// diagnosis must be identical on every run (stable over map iteration,
	// closure order, etc.).
	tr := parse(t, strings.Replace(twoWriterTrace, `RV_bytes("aa")`, `RV_bytes("ab")`, 1))
	c := New(types.DefaultSpec())
	first := c.Check(tr)
	if first.Accepted {
		t.Fatal("impossible write interleaving accepted")
	}
	if len(first.Errors) == 0 {
		t.Fatal("rejected without diagnosis")
	}
	if obs := first.Errors[0].Observed; obs != `RV_bytes("ab")` {
		t.Errorf("diagnosis observed %q", obs)
	}
	rendered := RenderChecked(tr, first)
	for i := 0; i < 5; i++ {
		again := c.Check(tr)
		if !reflect.DeepEqual(again.Errors, first.Errors) {
			t.Fatalf("diagnoses unstable:\n%+v\nvs\n%+v", first.Errors, again.Errors)
		}
		if RenderChecked(tr, again) != rendered {
			t.Fatal("checked-trace rendering unstable")
		}
	}
}

// createDestroyOverlapTrace: a process is created, runs and is destroyed
// entirely inside the window where pid 1's mkdir is pending (call issued,
// return not yet observed). The stat's ENOENT answer is the linearisation
// where pid 1's τ had not happened yet.
const createDestroyOverlapTrace = `@type trace
1: mkdir "/y" 0o755
create 3 0 0
3: stat "/y"
3: ENOENT
destroy 3
1: RV_none
1: stat "/y"
1: RV_stats { st_kind=S_IFDIR; st_perm=0o755; st_size=0; st_nlink=2; st_uid=0; st_gid=0 }
`

func TestCreateDestroyOverlappingPendingCall(t *testing.T) {
	tr := parse(t, createDestroyOverlapTrace)
	r := New(types.DefaultSpec()).Check(tr)
	if !r.Accepted {
		t.Fatalf("create/destroy inside a pending call rejected:\n%s", RenderChecked(tr, r))
	}
	if r.MaxStates <= 1 {
		t.Errorf("MaxStates = %d, want > 1", r.MaxStates)
	}

	// The other linearisation: the short-lived process observes the
	// directory because pid 1's τ happened before its stat.
	other := strings.Replace(createDestroyOverlapTrace,
		"3: ENOENT",
		"3: RV_stats { st_kind=S_IFDIR; st_perm=0o755; st_size=0; st_nlink=2; st_uid=0; st_gid=0 }", 1)
	if r := New(types.DefaultSpec()).Check(parse(t, other)); !r.Accepted {
		t.Fatalf("dir-visible linearisation rejected:\n%s", RenderChecked(parse(t, other), r))
	}

	// EACCES is in no linearisation: rejected with a stable diagnosis.
	bad := strings.Replace(createDestroyOverlapTrace, "3: ENOENT", "3: EACCES", 1)
	rb := New(types.DefaultSpec()).Check(parse(t, bad))
	if rb.Accepted {
		t.Fatal("EACCES accepted")
	}
	if len(rb.Errors) == 0 || rb.Errors[0].Observed != "EACCES" {
		t.Fatalf("diagnosis = %+v", rb.Errors)
	}
}

// TestMkdirRaceClosureGrowth: n processes with simultaneously pending
// mkdirs of the same path force the closure to enumerate processing
// orders; MaxStates must grow with n and the mean must exceed 1.
func TestMkdirRaceClosureGrowth(t *testing.T) {
	build := func(n int) string {
		var b strings.Builder
		b.WriteString("@type trace\n")
		for p := 2; p <= n; p++ {
			b.WriteString("create " + itoa(p) + " 0 0\n")
		}
		for p := 1; p <= n; p++ {
			b.WriteString(itoa(p) + `: mkdir "/r" 0o755` + "\n")
		}
		// First return succeeds, the rest observe EEXIST.
		b.WriteString("1: RV_none\n")
		for p := 2; p <= n; p++ {
			b.WriteString(itoa(p) + ": EEXIST\n")
		}
		return b.String()
	}
	prev := 0
	for _, n := range []int{2, 3, 4} {
		r := New(types.DefaultSpec()).Check(parse(t, build(n)))
		if !r.Accepted {
			t.Fatalf("n=%d race rejected: %+v", n, r.Errors)
		}
		if r.MaxStates <= prev {
			t.Errorf("n=%d: MaxStates = %d, not growing past %d", n, r.MaxStates, prev)
		}
		if r.MeanStates() <= 1 {
			t.Errorf("n=%d: mean states %.2f, want > 1", n, r.MeanStates())
		}
		prev = r.MaxStates
	}
}
