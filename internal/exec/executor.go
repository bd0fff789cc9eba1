package exec

import (
	"context"
	"fmt"

	"repro/internal/cov"
	"repro/internal/fsimpl"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// Run executes one script against a fresh instance from factory and
// records the trace. An instance that evaluates the model (fsimpl.SpecFS)
// adds the coverage points it hit to hits. Cancellation is checked
// between steps: a cancelled ctx abandons the script and returns
// ctx.Err() (a call already handed to the implementation still completes
// — calls are not interruptible).
func Run(ctx context.Context, s *trace.Script, factory fsimpl.Factory, hits *cov.Set) (*trace.Trace, error) {
	fs, err := factory()
	if err != nil {
		return nil, fmt.Errorf("exec: creating file system: %w", err)
	}
	defer fs.Close()
	defer covered(fs, hits)
	// A call yields two labels and every other step at most one, so the
	// steps are allocated once.
	t := &trace.Trace{Name: s.Name, Steps: make([]trace.Step, 0, 2*len(s.Steps))}
	line := 0
	emit := func(lbl types.Label) {
		line++
		t.Steps = append(t.Steps, trace.Step{Label: lbl, Line: line})
	}
	for _, st := range s.Steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A script label is emitted as st.Label, already boxed; only the
		// return is a new label.
		switch lbl := st.Label.(type) {
		case types.CallLabel:
			emit(st.Label)
			rv := fs.Apply(lbl.Pid, lbl.Cmd)
			emit(types.ReturnLabel{Pid: lbl.Pid, Ret: rv})
		case types.CreateLabel:
			fs.CreateProcess(lbl.Pid, lbl.Uid, lbl.Gid)
			emit(st.Label)
		case types.DestroyLabel:
			fs.DestroyProcess(lbl.Pid)
			emit(st.Label)
		case types.CrashLabel:
			// Power loss + remount. The implementation picks which pending
			// effects survived (lbl.Keep, clamped by the backend); the oracle
			// ignores Keep and admits every prefix, so any backend choice is
			// inside the envelope. Backends without persistence simulation
			// cannot execute crash scripts — fail loudly rather than emit a
			// label the trace did not earn.
			cfs, ok := fs.(fsimpl.CrashFS)
			if !ok {
				return nil, fmt.Errorf("exec: script %q line %d: %s does not support crash simulation", s.Name, st.Line, fs.Name())
			}
			if err := cfs.Crash(lbl.Keep); err != nil {
				return nil, fmt.Errorf("exec: script %q line %d: %w", s.Name, st.Line, err)
			}
			emit(st.Label)
		case types.TauLabel:
			// Scripts don't contain τ; ignore if present.
		case types.ReturnLabel:
			// A return in a *script* would otherwise be silently re-emitted
			// as if the executor had observed it — reject it loudly instead:
			// returns are executor output, not script input.
			return nil, fmt.Errorf("exec: script %q line %d contains a return label (%s); returns are executor output, not script input", s.Name, st.Line, lbl)
		}
	}
	return t, nil
}

// Count adds t, a trace the executor produced, to tel's exec.* counters:
// exec.traces (exec.traces_concurrent for RunConcurrent's) and
// exec.steps. The executor holds no registry; the layers that execute
// (pipeline.Run, Session.Execute*, the fuzzer) count into theirs.
func Count(tel *telemetry.Registry, t *trace.Trace, concurrent bool) {
	if concurrent {
		tel.Counter("exec.traces_concurrent").Inc()
	} else {
		tel.Counter("exec.traces").Inc()
	}
	tel.Counter("exec.steps").Add(int64(len(t.Steps)))
}

// RunAll executes many scripts concurrently (workers ≤ 0 selects
// GOMAXPROCS), one fresh file system per script, preserving order.
// Implementations with process-global state (HostFS's umask) should be run
// with workers = 1. A cancelled ctx stops dispatching further scripts,
// waits for in-flight ones to notice, and returns ctx.Err() with the
// traces completed so far in place (unstarted slots nil). Each script's
// model coverage is merged into reg (nil: discarded).
func RunAll(ctx context.Context, scripts []*trace.Script, factory fsimpl.Factory, workers int, reg *cov.Registry) ([]*trace.Trace, error) {
	return runPool(ctx, len(scripts), workers, reg, func(i int, hits *cov.Set) (*trace.Trace, error) {
		return Run(ctx, scripts[i], factory, hits)
	})
}

// covered adds the model coverage of fs, if it evaluates the model, to
// hits.
func covered(fs fsimpl.FS, hits *cov.Set) {
	if sfs, ok := fs.(*fsimpl.SpecFS); ok {
		hits.Or(sfs.Coverage())
	}
}

// runPool runs fn for every index on a bounded worker pool (workers ≤ 0
// selects GOMAXPROCS), preserving order and reporting the first error.
// Each call gets a coverage set of its own, merged into reg once it
// returns (when reg is non-nil). Cancellation stops dispatch;
// already-running fn calls are expected to observe ctx themselves.
func runPool(ctx context.Context, n, workers int, reg *cov.Registry, fn func(i int, hits *cov.Set) (*trace.Trace, error)) ([]*trace.Trace, error) {
	traces := make([]*trace.Trace, n)
	errs := make([]error, n)
	par.Each(ctx, workers, n, func(_, i int) bool {
		var hits cov.Set
		traces[i], errs[i] = fn(i, &hits)
		if reg != nil {
			reg.Merge(&hits)
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return traces, err
	}
	for _, e := range errs {
		if e != nil {
			return traces, e
		}
	}
	return traces, nil
}
