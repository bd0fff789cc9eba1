package checker

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// fresh checks tr on a checker of its own, with no history to resume
// from.
func fresh(spec types.Spec, maxStates int, tr *trace.Trace) Result {
	return newChecker(spec, maxStates).Check(tr)
}

// reusedSteps returns the steps c's checks have resumed past so far.
func reusedSteps(c *Checker) int64 {
	return c.Tel.Counter("checker.reused_steps").Value()
}

// deviating makes four directories, each observed as already there: one
// error per return, so Result.Errors outgrows a capacity of two. The
// errors leave the tracked set one state, so the walk snapshots at every
// step.
const deviating = `@type trace
1: mkdir "a" 0o755
1: EEXIST
1: mkdir "b" 0o755
1: EEXIST
1: mkdir "c" 0o755
1: EEXIST
1: mkdir "d" 0o755
1: EEXIST
`

// TestPrefixReuseDeviation: a trace that shares a deviating prefix with
// the previous one resumes past the prefix's errors, and appending its
// own errors to them never writes into the previous trace's Result.
// After three errors the Errors slice has room for a fourth, which the
// previous trace filled: an unclipped resume would overwrite it. Nor
// does a caller's write into a returned Result reach the history the
// next check resumes from.
func TestPrefixReuseDeviation(t *testing.T) {
	first := parse(t, deviating)
	second := parse(t, deviating)
	second.Steps[7].Label = types.ReturnLabel{Pid: 1, Ret: types.RvErr{Err: types.ENOENT}}
	c := New(types.DefaultSpec())
	c.Tel = telemetry.NewRegistry()
	r1 := c.Check(first)
	if len(r1.Errors) != 4 {
		t.Fatalf("%d errors, want 4:\n%s", len(r1.Errors), RenderChecked(first, r1))
	}
	kept := append([]StepError(nil), r1.Errors...)
	r2 := c.Check(second)
	sameResult(t, c, second, r2, fresh(c.Spec, 0, second))
	if n := reusedSteps(c); n != 6 {
		t.Errorf("%d steps reused, want the 6 before the traces part", n)
	}
	if !reflect.DeepEqual(r1.Errors, kept) {
		t.Fatalf("the previous trace's errors changed:\n got %+v\nwant %+v", r1.Errors, kept)
	}
	for i := range r2.Errors {
		r2.Errors[i].Observed = "clobbered"
		if len(r2.Errors[i].Allowed) > 0 {
			r2.Errors[i].Allowed[0] = "clobbered"
		}
	}
	sameResult(t, c, second, c.Check(second), fresh(c.Spec, 0, second))
}

// TestPrefixReuseInode: inode numbers are not part of the model, so two
// traces that differ only in a stat return's st_ino are both accepted,
// and each checks to the same Result as on a fresh checker whichever of
// the two the checker checked first.
func TestPrefixReuseInode(t *testing.T) {
	plain := parse(t, seqTrace)
	ino := parse(t, strings.Replace(seqTrace, "st_gid=0 }", "st_gid=0; st_ino=7 }", 1))
	for _, tr := range []*trace.Trace{plain, ino} {
		if r := fresh(types.DefaultSpec(), 0, tr); !r.Accepted {
			t.Fatalf("%s not accepted: %+v", tr.Name, r.Errors)
		}
	}
	for _, order := range [][2]*trace.Trace{{plain, ino}, {ino, plain}} {
		c := New(types.DefaultSpec())
		c.Check(order[0])
		second := order[1]
		sameResult(t, c, second, c.Check(second), fresh(c.Spec, 0, second))
	}
}

// TestPrefixReuseNeedsSameLines: steps with equal labels on other lines
// are other steps, since errors carry their lines: a trace that repeats
// the previous one's labels a line down resumes past nothing.
func TestPrefixReuseNeedsSameLines(t *testing.T) {
	first := parse(t, deviating)
	down := &trace.Trace{Name: "down"}
	for _, st := range first.Steps {
		down.Steps = append(down.Steps, trace.Step{Label: st.Label, Line: st.Line + 1})
	}
	c := New(types.DefaultSpec())
	c.Tel = telemetry.NewRegistry()
	c.Check(first)
	sameResult(t, c, down, c.Check(down), fresh(c.Spec, 0, down))
	if n := reusedSteps(c); n != 0 {
		t.Errorf("%d steps reused across different lines, want 0", n)
	}
}

// TestPrefixReuseAfterCancel: a cancelled check publishes no history, so
// the check after it starts from the initial state and equals a fresh
// one; a completed check publishes again.
func TestPrefixReuseAfterCancel(t *testing.T) {
	tr := parse(t, seqTrace)
	c := New(types.DefaultSpec())
	c.Tel = telemetry.NewRegistry()
	c.Check(tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CheckCtx(ctx, tr); err == nil {
		t.Fatal("a check under a cancelled context reported no error")
	}
	before := reusedSteps(c)
	sameResult(t, c, tr, c.Check(tr), fresh(c.Spec, 0, tr))
	if n := reusedSteps(c) - before; n != 0 {
		t.Errorf("the check after a cancelled one resumed past %d steps, want 0", n)
	}
	sameResult(t, c, tr, c.Check(tr), fresh(c.Spec, 0, tr))
	if n := reusedSteps(c) - before; n != int64(len(tr.Steps)) {
		t.Errorf("a check after a completed one resumed past %d steps, want %d", n, len(tr.Steps))
	}
}

// TestPrefixReuseCapChange: a history walked under one state-set cap is
// not resumed under another, whose walk may truncate differently.
func TestPrefixReuseCapChange(t *testing.T) {
	tr := parse(t, twoWriterTrace)
	c := New(types.DefaultSpec())
	c.Tel = telemetry.NewRegistry()
	c.Check(tr)
	c.MaxStateSet = 2
	sameResult(t, c, tr, c.Check(tr), fresh(c.Spec, 2, tr))
	if n := reusedSteps(c); n != 0 {
		t.Errorf("%d steps reused across a cap change, want 0", n)
	}
}

// FuzzPrefixReuseParity: for any two traces the parser accepts, a check
// of the first's first cut steps followed by the second's steps, made
// right after a check of the first, equals a fresh check of it in every
// Result field but TauNanos, and leaves the first's Result as it was.
func FuzzPrefixReuseParity(f *testing.F) {
	var seeds []string
	for _, s := range fusedSeeds {
		seeds = append(seeds, s)
	}
	for _, prof := range []string{"ext4", "hfsplus_linux_trusty"} {
		for _, tr := range runSuite(f, prof, 1500) {
			seeds = append(seeds, tr.Render())
		}
	}
	for i, a := range seeds {
		b := seeds[(i+1)%len(seeds)]
		f.Add(a, b, uint8(i))
		f.Add(a, a, uint8(i))
	}
	// A pair that differs only in a stat return's st_ino, which the
	// parser drops.
	ino := strings.Replace(seqTrace, "st_gid=0 }", "st_gid=0; st_ino=7 }", 1)
	f.Add(seqTrace, ino, uint8(0))
	f.Add(ino, seqTrace, uint8(0))
	f.Fuzz(func(t *testing.T, a, b string, cut uint8) {
		first, err := trace.ParseTrace(a)
		if err != nil {
			t.Skip()
		}
		suffix, err := trace.ParseTrace(b)
		if err != nil {
			t.Skip()
		}
		n := int(cut) % (len(first.Steps) + 1)
		second := &trace.Trace{Name: "second"}
		second.Steps = append(append(second.Steps, first.Steps[:n]...), suffix.Steps...)
		spec := types.DefaultSpec()
		c := newChecker(spec, 0)
		r1 := c.Check(first)
		kept := r1
		kept.Errors = append([]StepError(nil), r1.Errors...)
		sameResult(t, c, second, c.Check(second), fresh(spec, 0, second))
		sameResult(t, c, first, r1, kept)
	})
}
