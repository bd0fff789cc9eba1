package exec

// Cancellation contract of the executors: a cancelled context abandons
// work promptly and surfaces context.Canceled, never a partial trace.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fsimpl"
	"repro/internal/trace"
	"repro/internal/types"
)

func cancelScript(name string, steps int) *trace.Script {
	s := &trace.Script{Name: name}
	for i := 0; i < steps; i++ {
		s.Steps = append(s.Steps, trace.Step{Label: types.CallLabel{
			Pid: 1, Cmd: types.Stat{Path: "/"},
		}})
	}
	return s
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := Run(ctx, cancelScript("c", 4), fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr != nil {
		t.Fatal("cancelled Run returned a trace")
	}
}

func TestRunAllCancelled(t *testing.T) {
	scripts := make([]*trace.Script, 50)
	for i := range scripts {
		scripts[i] = cancelScript("c", 4)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAll(ctx, scripts, fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")), 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunConcurrentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, seeded := range []bool{true, false} {
		tr, err := RunConcurrent(ctx, cancelScript("c", 4),
			fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
			ConcurrentOptions{Seeded: seeded, Seed: 1}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seeded=%v: err = %v, want context.Canceled", seeded, err)
		}
		if tr != nil {
			t.Fatalf("seeded=%v: cancelled RunConcurrent returned a trace", seeded)
		}
	}
}
