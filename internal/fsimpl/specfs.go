package fsimpl

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cov"
	"repro/internal/osspec"
	"repro/internal/types"
)

// SpecFS determinizes the model and runs it as an implementation — the
// paper mounts previous SibylFS versions as prototype FUSE file systems the
// same way (§8, "Differential testing"). At each call it computes the
// allowed next states from os_trans and picks one deterministically
// (success preferred, then the smallest errno). Traces produced by SpecFS
// are by construction inside the model's envelope, which gives the test
// suite a self-check: the oracle must accept 100% of SpecFS traces.
type SpecFS struct {
	mu   sync.Mutex // linearises concurrent calls on the single model state
	name string
	st   *osspec.OsState
	hits cov.Set // the model coverage of every call so far
}

// NewSpecFS builds the determinized model for the given variant.
func NewSpecFS(name string, spec types.Spec) *SpecFS {
	return &SpecFS{name: name, st: osspec.NewOsState(spec)}
}

// SpecFactory returns a Factory producing fresh SpecFS instances.
func SpecFactory(name string, spec types.Spec) Factory {
	return func() (FS, error) { return NewSpecFS(name, spec), nil }
}

// Name implements FS.
func (fs *SpecFS) Name() string { return fs.name }

// Close implements FS.
func (fs *SpecFS) Close() error { return nil }

// Coverage is the set of model coverage points the instance has hit so
// far; whoever executes it merges the set. Read it once the instance is
// idle.
func (fs *SpecFS) Coverage() *cov.Set { return &fs.hits }

// CreateProcess implements FS.
func (fs *SpecFS) CreateProcess(pid types.Pid, uid types.Uid, gid types.Gid) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	next := osspec.Trans(fs.st, types.CreateLabel{Pid: pid, Uid: uid, Gid: gid}, &fs.hits)
	if len(next) > 0 {
		fs.st = next[0]
	}
}

// DestroyProcess implements FS.
func (fs *SpecFS) DestroyProcess(pid types.Pid) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	next := osspec.Trans(fs.st, types.DestroyLabel{Pid: pid}, &fs.hits)
	if len(next) > 0 {
		fs.st = next[0]
	}
}

// Crash implements CrashFS by asking the model itself for the remounted
// state in which the first keep pending effects survived. SpecFS is always
// quiescent between calls (Apply runs call → τ → return to completion), so
// no in-flight effects need resolving here.
func (fs *SpecFS) Crash(keep int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	next := osspec.CrashWithKeep(fs.st, keep)
	if next == nil {
		return fmt.Errorf("specfs %s: crash simulation requires Spec.Crash", fs.name)
	}
	fs.st = next
	return nil
}

// Apply implements FS: call → τ → pick one allowed return.
func (fs *SpecFS) Apply(pid types.Pid, cmd types.Command) types.RetValue {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	called := osspec.Trans(fs.st, types.CallLabel{Pid: pid, Cmd: cmd}, &fs.hits)
	if len(called) == 0 {
		return types.RvErr{Err: types.EINVAL}
	}
	cands := osspec.TauFor(called[0], pid, &fs.hits)
	if len(cands) == 0 {
		return types.RvErr{Err: types.EINVAL}
	}
	// Deterministic choice: prefer a success over an error, then the
	// representation that sorts first; this mirrors "selecting one of the
	// many possible states at each step".
	type choice struct {
		rv   types.RetValue
		next *osspec.OsState
	}
	var choices []choice
	for _, c := range cands {
		for _, rv := range representativeReturns(c, pid) {
			after := osspec.Trans(c, types.ReturnLabel{Pid: pid, Ret: rv}, &fs.hits)
			if len(after) > 0 {
				choices = append(choices, choice{rv: rv, next: after[0]})
			}
		}
	}
	if len(choices) == 0 {
		return types.RvErr{Err: types.EINVAL}
	}
	sort.Slice(choices, func(i, j int) bool {
		ie, iErr := choices[i].rv.(types.RvErr)
		je, jErr := choices[j].rv.(types.RvErr)
		if iErr != jErr {
			return !iErr // successes first
		}
		if iErr {
			return ie.Err < je.Err
		}
		in, iNum := choices[i].rv.(types.RvNum)
		jn, jNum := choices[j].rv.(types.RvNum)
		if iNum && jNum && in.N != jn.N {
			return in.N > jn.N // prefer the complete write over a short one
		}
		return choices[i].rv.String() < choices[j].rv.String()
	})
	fs.st = choices[0].next
	return choices[0].rv
}

// representativeReturns enumerates concrete allowed returns of a candidate
// state (full reads/writes; every must entry and end-of-dir for readdir).
func representativeReturns(s *osspec.OsState, pid types.Pid) []types.RetValue {
	return osspec.ConcreteReturns(s, pid)
}
