package checker

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/osspec"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/types"
)

// closureRun is what one τ-closure produced: its states by Fingerprint,
// in order, and its rounds, expansion count and cap verdict.
type closureRun struct {
	fps        []string
	rounds     int
	expansions int
	capHit     bool
}

func runClosure(states []*osspec.OsState, covered []uint64, cap int) closureRun {
	var st osspec.ClosureStats
	out, n, capHit := osspec.TauClosureWith(states, osspec.ClosureOpts{
		Cap: cap, Stats: &st, Covered: covered,
	})
	return closureRun{fingerprints(out), st.Rounds, n, capHit}
}

func fingerprints(states []*osspec.OsState) []string {
	fps := make([]string, len(states))
	for i, s := range states {
		fps[i] = s.Fingerprint()
	}
	return fps
}

// naiveClosure is the reference τ-closure: breadth-first rounds, every
// calling pid's τ-successors (osspec.TauFor) in pid order, deduplicated
// by a StateSet, and the same cap rule — stop after the round that
// reaches cap, a hit if a state it added still has a pending call.
func naiveClosure(states []*osspec.OsState, cap int) closureRun {
	out := append([]*osspec.OsState(nil), states...)
	set := osspec.NewStateSet(len(out))
	for _, s := range out {
		set.Add(s)
	}
	var run closureRun
	for lo := 0; lo < len(out); {
		hi := len(out)
		run.rounds++
		for _, s := range out[lo:hi] {
			for _, pid := range s.Pids() {
				for _, ns := range osspec.TauFor(s, pid, nil) {
					run.expansions++
					if set.Add(ns) {
						out = append(out, ns)
					}
				}
			}
		}
		lo = hi
		if cap > 0 && len(out) >= cap {
			for _, s := range out[hi:] {
				for _, pid := range s.Pids() {
					run.capHit = run.capHit || s.Proc(pid).Run == osspec.RsCalling
				}
			}
			break
		}
	}
	run.fps = fingerprints(out)
	return run
}

// TestClosureCoveredParity holds the closure's pruning — the covered
// masks the checker carries across labels and the sleep sets the closure
// grows itself — to its promise on the concurrent universe under 20
// seeded schedules: every τ-closure the checker runs (before each
// return, destroy and crash) yields exactly what a naive closure yields — the same states in the same order, the
// same rounds, the same cap verdict — and never generates more
// successors. Over the whole run it must generate fewer, or the pruning
// is doing nothing.
func TestClosureCoveredParity(t *testing.T) {
	scripts := testgen.ConcurrentScripts()
	factory := fsimpl.MemFactory(fsimpl.LinuxProfile("ext4"))
	c := New(types.DefaultSpec())
	c.Tel = telemetry.NewRegistry()
	ctx := context.Background()
	var closures, pruned, with, without int
	for seed := int64(1); seed <= 20; seed++ {
		for _, s := range scripts {
			tr, err := exec.RunConcurrent(ctx, s, factory, exec.ConcurrentOptions{Seeded: true, Seed: seed}, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			w := c.Walk(ctx, tr.Name)
			for _, st := range tr.Steps {
				switch st.Label.(type) {
				case types.ReturnLabel, types.DestroyLabel, types.CrashLabel:
					want := naiveClosure(w.states, c.MaxStateSet)
					got := runClosure(w.states, c.scratch.covered, c.MaxStateSet)
					if got.expansions > want.expansions {
						t.Fatalf("%s seed %d line %d: %d expansions pruned, %d naive",
							s.Name, seed, st.Line, got.expansions, want.expansions)
					}
					closures++
					with += got.expansions
					without += want.expansions
					if got.expansions < want.expansions {
						pruned++
					}
					got.expansions = want.expansions
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d line %d: pruning changed the closure: %d states in %d rounds (cap hit %v), want %d in %d (%v)",
							s.Name, seed, st.Line, len(got.fps), got.rounds, got.capHit,
							len(want.fps), want.rounds, want.capHit)
					}
				}
				states, _ := w.Step(st)
				if len(c.scratch.covered) != len(states) {
					t.Fatalf("%s seed %d line %d: %d masks for %d states", s.Name, seed, st.Line, len(c.scratch.covered), len(states))
				}
			}
		}
	}
	t.Logf("%d closures, %d pruned; expansions %d pruned, %d naive", closures, pruned, with, without)
	if with >= without {
		t.Fatalf("nothing pruned: %d expansions pruned, %d naive", with, without)
	}
}

// stepThrough walks the trace's steps up to and including the one on
// line stop, and returns the result and the checker's scratch, whose
// covered slice holds the tracked set's masks after that step.
func stepThrough(t *testing.T, c *Checker, text string, stop int) (Result, *traceScratch) {
	t.Helper()
	tr := parse(t, text)
	w := c.Walk(context.Background(), tr.Name)
	for _, st := range tr.Steps {
		w.Step(st)
		if st.Line == stop {
			res, _ := w.Result()
			return res, &c.scratch
		}
	}
	t.Fatalf("no step on line %d", stop)
	return Result{}, nil
}

func anyCovered(masks []uint64) bool {
	for _, m := range masks {
		if m != 0 {
			return true
		}
	}
	return false
}

// raceReturnLine is the line of raceTrace's first return ("1: RV_none").
func raceReturnLine(n int) int { return 2*n + 1 }

// TestCoveredAfterReturn is the positive control the zero cases below
// are measured against: in a 4-way mkdir race, the return of the winner
// leaves the losers calling, and the states it yields carry their bits.
func TestCoveredAfterReturn(t *testing.T) {
	_, sc := stepThrough(t, New(types.DefaultSpec()), raceTrace(4), raceReturnLine(4))
	want := osspec.PidBit(2) | osspec.PidBit(3) | osspec.PidBit(4)
	if len(sc.covered) == 0 || sc.covered[0] != want {
		t.Fatalf("masks after the winner's return: %v, want [%b ...]", sc.covered, want)
	}
}

// TestNoCoveredAfterCapHitClosure: a closure cut short by the cap does
// not hold every τ-successor of its states, so the return after it
// vouches for nothing — even though the set it yields is under the cap.
func TestNoCoveredAfterCapHitClosure(t *testing.T) {
	c := New(types.DefaultSpec())
	c.MaxStateSet = 5 // the first round of a 4-way race fills it
	res, sc := stepThrough(t, c, raceTrace(4), raceReturnLine(4))
	if !res.StateSetCapHit || len(sc.covered) >= c.MaxStateSet {
		t.Fatalf("cap hit %v with %d states: want a cap-hit closure and a set under the cap",
			res.StateSetCapHit, len(sc.covered))
	}
	if len(sc.covered) == 0 || anyCovered(sc.covered) {
		t.Fatalf("masks after a cap-hit closure: %v, want all zero", sc.covered)
	}
}

// TestNoCoveredAfterRecovery: a deviating return continues from
// synthesised states, which no closure vouches for.
func TestNoCoveredAfterRecovery(t *testing.T) {
	text := strings.Replace(raceTrace(4), "1: RV_none", "1: ENOENT", 1)
	res, sc := stepThrough(t, New(types.DefaultSpec()), text, raceReturnLine(4))
	if res.Accepted {
		t.Fatal("an impossible ENOENT was accepted")
	}
	if len(sc.covered) == 0 || anyCovered(sc.covered) {
		t.Fatalf("masks after recovery: %v, want all zero", sc.covered)
	}
}

// TestReduceCovered: reduce keeps the first occurrence's mask when it
// merges duplicates, and drops every mask when it truncates at the cap.
func TestReduceCovered(t *testing.T) {
	s0 := osspec.NewOsState(types.DefaultSpec())
	s1 := osspec.Trans(s0, types.CallLabel{Pid: osspec.InitialPid, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}}, nil)[0]
	s2 := osspec.TauFor(s1, osspec.InitialPid, nil)[0]
	dup := osspec.Trans(s0, types.CallLabel{Pid: osspec.InitialPid, Cmd: types.Mkdir{Path: "/a", Perm: 0o755}}, nil)[0]

	c := New(types.DefaultSpec())
	sc := new(traceScratch)
	var res Result
	sc.covered = []uint64{1, 2, 3, 4}
	out := c.reduce([]*osspec.OsState{s0, s1, dup, s2}, &res, sc)
	if len(out) != 3 || !reflect.DeepEqual(sc.covered, []uint64{1, 2, 4}) || res.StateSetCapHit {
		t.Fatalf("dedup: %d states, masks %v, cap hit %v; want 3, [1 2 4], false", len(out), sc.covered, res.StateSetCapHit)
	}

	c.MaxStateSet = 2
	sc.covered = []uint64{1, 2, 3}
	out = c.reduce([]*osspec.OsState{s0, s1, s2}, &res, sc)
	if len(out) != 2 || !reflect.DeepEqual(sc.covered, []uint64{0, 0}) || !res.StateSetCapHit {
		t.Fatalf("truncation: %d states, masks %v, cap hit %v; want 2, [0 0], true", len(out), sc.covered, res.StateSetCapHit)
	}
}

// TestCoveredStepsKeepMasksAligned walks a whole concurrent trace under
// the race and cap fixtures: whatever path a step takes, the masks stay
// one per tracked state.
func TestCoveredStepsKeepMasksAligned(t *testing.T) {
	texts := []string{raceTrace(3), raceTrace(4), twoWriterTrace,
		strings.Replace(raceTrace(4), "1: RV_none", "1: ENOENT", 1)}
	for _, cap := range []int{4096, 5, 2} {
		for _, text := range texts {
			tr := parse(t, text)
			c := New(types.DefaultSpec())
			c.MaxStateSet = cap
			w := c.Walk(context.Background(), tr.Name)
			for _, st := range tr.Steps {
				states, _ := w.Step(st)
				if len(c.scratch.covered) != len(states) {
					t.Fatalf("cap %d line %d (%s): %d masks for %d states", cap, st.Line,
						st.Label.String(), len(c.scratch.covered), len(states))
				}
			}
		}
	}
}
