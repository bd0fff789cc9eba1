package checker

// Cancellation contract of the oracle: CheckCtx stops between steps and
// returns context.Canceled; the Background-based Check wrapper is
// unaffected.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
	"repro/internal/types"
)

func ctxTrace(steps int) *trace.Trace {
	t := &trace.Trace{Name: "ctx"}
	line := 0
	for i := 0; i < steps; i++ {
		line++
		t.Steps = append(t.Steps, trace.Step{Line: line, Label: types.CallLabel{
			Pid: 1, Cmd: types.Stat{Path: "/"},
		}})
		line++
		t.Steps = append(t.Steps, trace.Step{Line: line, Label: types.ReturnLabel{
			Pid: 1, Ret: types.RvStats{},
		}})
	}
	return t
}

func TestCheckCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(types.DefaultSpec())
	_, err := c.CheckCtx(ctx, ctxTrace(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckCtxBackgroundMatchesCheck: the ctx plumbing must not perturb
// verdicts — CheckCtx with a background context equals Check.
func TestCheckCtxBackgroundMatchesCheck(t *testing.T) {
	c := New(types.DefaultSpec())
	tr := ctxTrace(3)
	want := c.Check(tr)
	got, err := c.CheckCtx(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accepted != want.Accepted || got.Steps != want.Steps ||
		got.TauExpansions != want.TauExpansions || got.MaxStates != want.MaxStates {
		t.Fatalf("CheckCtx %+v differs from Check %+v", got, want)
	}
}
