package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cov"
	"repro/internal/fsimpl"
	"repro/internal/trace"
	"repro/internal/types"
)

// ConcurrentOptions configure the concurrent executor.
type ConcurrentOptions struct {
	// Seeded selects the deterministic scheduler: the process interleaving
	// is drawn from a PRNG seeded with Seed, so the same (script, seed)
	// pair always yields a byte-identical trace. When false, each process
	// runs as a free goroutine and the interleaving is whatever the Go
	// scheduler produces — genuinely racy, and what the -race CI job
	// exercises.
	Seeded bool
	// Seed picks the interleaving in seeded mode.
	Seed int64
}

// procEvent is one step of a process's program: its own create, a call, or
// its destroy. Keeping creates and destroys in the per-pid event stream
// (rather than hoisting them to a prologue/epilogue) lets a pid be
// destroyed and re-created mid-script — a shape the fuzz mutators'
// lifecycle validator permits.
type procEvent struct {
	create  *types.CreateLabel
	call    *types.CallLabel
	destroy bool
}

// procProgram is one process's slice of a script: its events in script
// order. Concurrent execution preserves program order within each process
// and deliberately drops all cross-process ordering — that is the
// concurrency under test.
type procProgram struct {
	pid    types.Pid
	events []procEvent
}

// splitPrograms decomposes a script into per-process programs, rejecting
// scripts the concurrent interpretation cannot express: return/τ labels
// (executor output, not input) and per-process lifecycle violations
// (calls outside a pid's create..destroy window, create of a live pid,
// destroy of a dead one).
func splitPrograms(s *trace.Script) ([]*procProgram, error) {
	byPid := make(map[types.Pid]*procProgram)
	alive := map[types.Pid]bool{1: true}
	var order []*procProgram
	get := func(pid types.Pid) *procProgram {
		p, ok := byPid[pid]
		if !ok {
			p = &procProgram{pid: pid}
			byPid[pid] = p
			order = append(order, p)
		}
		return p
	}
	get(types.Pid(1)) // implicit root process, even if it issues no calls
	for _, st := range s.Steps {
		switch lbl := st.Label.(type) {
		case types.CallLabel:
			if !alive[lbl.Pid] {
				return nil, fmt.Errorf("exec: script %q line %d: call from pid %d outside its create..destroy window", s.Name, st.Line, lbl.Pid)
			}
			l := lbl
			get(lbl.Pid).events = append(get(lbl.Pid).events, procEvent{call: &l})
		case types.CreateLabel:
			if alive[lbl.Pid] {
				return nil, fmt.Errorf("exec: script %q line %d: create of live pid %d", s.Name, st.Line, lbl.Pid)
			}
			alive[lbl.Pid] = true
			l := lbl
			get(lbl.Pid).events = append(get(lbl.Pid).events, procEvent{create: &l})
		case types.DestroyLabel:
			if !alive[lbl.Pid] {
				return nil, fmt.Errorf("exec: script %q line %d: destroy of pid %d, which is not alive", s.Name, st.Line, lbl.Pid)
			}
			alive[lbl.Pid] = false
			get(lbl.Pid).events = append(get(lbl.Pid).events, procEvent{destroy: true})
		case types.CrashLabel:
			// A crash is a whole-machine event with no per-process program
			// order — the sequential executor owns crash scripts.
			return nil, fmt.Errorf("exec: script %q line %d contains a crash label; crash scripts are sequential-executor only", s.Name, st.Line)
		case types.ReturnLabel:
			return nil, fmt.Errorf("exec: script %q line %d contains a return label; returns are executor output, not script input", s.Name, st.Line)
		case types.TauLabel:
			return nil, fmt.Errorf("exec: script %q line %d contains a τ label; internal steps are the model's, not the script's", s.Name, st.Line)
		}
	}
	return order, nil
}

// RunConcurrent executes one script with its processes running
// concurrently against a fresh instance from factory, recording call and
// return events in observed order — so calls from different processes
// genuinely overlap in the trace and the oracle's τ-closure is exercised.
// Model coverage goes to hits, as in Run. Cancellation is checked between
// events (seeded mode: between micro-steps); a cancelled script returns
// ctx.Err() and no trace.
func RunConcurrent(ctx context.Context, s *trace.Script, factory fsimpl.Factory, opts ConcurrentOptions, hits *cov.Set) (*trace.Trace, error) {
	progs, err := splitPrograms(s)
	if err != nil {
		return nil, err
	}
	fs, err := factory()
	if err != nil {
		return nil, fmt.Errorf("exec: creating file system: %w", err)
	}
	defer fs.Close()
	defer covered(fs, hits)
	var t *trace.Trace
	if opts.Seeded {
		t = runSeeded(ctx, s.Name, progs, fs, opts.Seed)
	} else {
		t = runFree(ctx, s.Name, progs, fs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// runFree is the racy mode: one goroutine per process, trace appends
// ordered by a mutex (observed wall-clock order). A pid's create is the
// first event of its own goroutine, so the trace never shows a call from
// a not-yet-created pid. The implementation under test must be internally
// synchronized (memfs, hostfs and specfs are).
//
// Create and destroy perform their effect and emit their label in one
// critical section: the model applies those effects at the label itself,
// so a globally observable side effect (destroy closing descriptors and
// freeing an unlinked file's blocks, say) must not become visible to
// another process's call before the label lands in the trace. Calls need
// no such atomicity — their effect may occur anywhere between their call
// and return labels, which is exactly the τ window the oracle explores.
func runFree(ctx context.Context, name string, progs []*procProgram, fs fsimpl.FS) *trace.Trace {
	t := &trace.Trace{Name: name}
	var mu sync.Mutex
	appendStep := func(lbl types.Label) {
		t.Steps = append(t.Steps, trace.Step{Label: lbl, Line: len(t.Steps) + 1})
	}
	emit := func(lbl types.Label) {
		mu.Lock()
		appendStep(lbl)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, p := range progs {
		wg.Add(1)
		go func(p *procProgram) {
			defer wg.Done()
			for _, ev := range p.events {
				if ctx.Err() != nil {
					return // the caller discards the partial trace
				}
				switch {
				case ev.create != nil:
					mu.Lock()
					fs.CreateProcess(ev.create.Pid, ev.create.Uid, ev.create.Gid)
					appendStep(*ev.create)
					mu.Unlock()
				case ev.call != nil:
					emit(*ev.call)
					rv := fs.Apply(ev.call.Pid, ev.call.Cmd)
					emit(types.ReturnLabel{Pid: ev.call.Pid, Ret: rv})
				case ev.destroy:
					mu.Lock()
					fs.DestroyProcess(p.pid)
					appendStep(types.DestroyLabel{Pid: p.pid})
					mu.Unlock()
				}
			}
		}(p)
	}
	wg.Wait()
	return t
}

// Micro-step phases of one call under the seeded scheduler. Scheduling the
// call emission, the effect (the τ point, unobserved in the trace) and the
// return emission as three separate events decouples effect order from
// both call order and return order — the full τ-nondeterminism the oracle
// must absorb, reproducible from the seed.
const (
	phEmitCall = iota
	phApply
	phEmitReturn
)

type seededRunner struct {
	prog  *procProgram
	idx   int // next event
	phase int // progress through the current call event
	rv    types.RetValue
}

// runSeeded simulates the concurrent run on a single goroutine: a PRNG
// repeatedly picks one unfinished process and advances it by one
// micro-step. The PRNG replays the seed's cached stream (seedStreams).
func runSeeded(ctx context.Context, name string, progs []*procProgram, fs fsimpl.FS, seed int64) *trace.Trace {
	r := rand.New(seedStreams.source(seed))
	t := &trace.Trace{Name: name}
	emit := func(lbl types.Label) {
		t.Steps = append(t.Steps, trace.Step{Label: lbl, Line: len(t.Steps) + 1})
	}
	var live []*seededRunner
	for _, p := range progs {
		if len(p.events) > 0 {
			live = append(live, &seededRunner{prog: p})
		}
	}
	for len(live) > 0 {
		if ctx.Err() != nil {
			return t // abandoned; RunConcurrent reports ctx.Err()
		}
		i := r.Intn(len(live))
		ru := live[i]
		ev := ru.prog.events[ru.idx]
		switch {
		case ev.create != nil:
			fs.CreateProcess(ev.create.Pid, ev.create.Uid, ev.create.Gid)
			emit(*ev.create)
			ru.idx++
		case ev.call != nil:
			switch ru.phase {
			case phEmitCall:
				emit(*ev.call)
				ru.phase = phApply
			case phApply:
				ru.rv = fs.Apply(ev.call.Pid, ev.call.Cmd)
				ru.phase = phEmitReturn
			default:
				emit(types.ReturnLabel{Pid: ev.call.Pid, Ret: ru.rv})
				ru.idx++
				ru.phase = phEmitCall
			}
		case ev.destroy:
			fs.DestroyProcess(ru.prog.pid)
			emit(types.DestroyLabel{Pid: ru.prog.pid})
			ru.idx++
		}
		if ru.idx == len(ru.prog.events) {
			live = append(live[:i], live[i+1:]...)
		}
	}
	return t
}

// RunAllConcurrent executes many scripts with the concurrent executor,
// workers scripts in flight at once (≤ 0 selects GOMAXPROCS), preserving
// order; within a script, parallelism is one goroutine per process
// regardless. In seeded mode every script uses the same scheduler seed,
// so each trace is reproducible from (script, seed) independent of its
// position in the suite. Cancellation and coverage behave as in RunAll.
func RunAllConcurrent(ctx context.Context, scripts []*trace.Script, factory fsimpl.Factory, opts ConcurrentOptions, workers int, reg *cov.Registry) ([]*trace.Trace, error) {
	return runPool(ctx, len(scripts), workers, reg, func(i int, hits *cov.Set) (*trace.Trace, error) {
		return RunConcurrent(ctx, scripts[i], factory, opts, hits)
	})
}
