package checker

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/trace"
	"repro/internal/types"
)

// stepwise checks tr with a plain Walk/Step loop, every label a
// transition of its own: the reference CheckCtx's fused pairs must equal.
func stepwise(c *Checker, tr *trace.Trace) Result {
	defer c.scratch.release()
	w := c.Walk(context.Background(), tr.Name)
	for _, st := range tr.Steps {
		w.Step(st)
	}
	res, _ := w.Result()
	return res
}

// newChecker returns a checker for spec with the given state-set cap (0:
// the default).
func newChecker(spec types.Spec, maxStates int) *Checker {
	c := New(spec)
	if maxStates > 0 {
		c.MaxStateSet = maxStates
	}
	return c
}

// sameResult fails the test where got differs from want in any Result
// field (TauNanos, wall-clock telemetry, aside).
func sameResult(t testing.TB, c *Checker, tr *trace.Trace, got, want Result) {
	t.Helper()
	got.TauNanos, want.TauNanos = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (%+v, cap %d): result differs:\n got %+v\nwant %+v",
			tr.Name, c.Spec, c.MaxStateSet, got, want)
	}
}

// fusesSome reports whether the first step pair of some trace fuses from
// the initial state, so that a parity test over traces is not vacuous.
func fusesSome(spec types.Spec, traces []*trace.Trace) bool {
	c := New(spec)
	for _, tr := range traces {
		if len(tr.Steps) < 2 {
			continue
		}
		w := c.Walk(context.Background(), tr.Name)
		if _, ok := c.fuse(w.states, tr.Steps[0], tr.Steps[1], &w.res, &c.scratch); ok {
			return true
		}
	}
	return false
}

// runSuite executes every k-th script of the sequential suite on the
// named memfs profile.
func runSuite(t testing.TB, profile string, k int) []*trace.Trace {
	t.Helper()
	var prof fsimpl.Profile
	for _, p := range fsimpl.SurveyProfiles() {
		if p.Name == profile {
			prof = p
		}
	}
	if prof.Name == "" {
		prof = fsimpl.LinuxProfile(profile)
	}
	scripts := testgen.Generate().Scripts
	var sample []*trace.Script
	for i := 0; i < len(scripts); i += k {
		sample = append(sample, scripts[i])
	}
	traces, err := exec.RunAll(context.Background(), sample, fsimpl.MemFactory(prof), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// parityGroup is a set of traces to check under one spec and state-set
// cap (0: the default).
type parityGroup struct {
	name      string
	spec      types.Spec
	maxStates int
	traces    []*trace.Trace
	fuses     bool // sequential, outside crash mode
}

// parityGroups returns the traces the parity tests check: the sequential
// suite on ext4 under all four platform variants, the defect-injected
// hfsplus_linux_trusty profile under Linux, the crash universe, the
// concurrent universe under schedule 1, and the last two again under
// small state-set caps. -short takes a sample of the suite.
func parityGroups(t *testing.T) []parityGroup {
	ctx := context.Background()
	every := 1
	if testing.Short() {
		every = 16
	}
	ext4 := runSuite(t, "ext4", every)
	hfs := runSuite(t, "hfsplus_linux_trusty", 4*every)

	var conc, crash []*trace.Trace
	ext4Fac := fsimpl.MemFactory(fsimpl.LinuxProfile("ext4"))
	for _, s := range testgen.ConcurrentScripts() {
		tr, err := exec.RunConcurrent(ctx, s, ext4Fac, exec.ConcurrentOptions{Seeded: true, Seed: 1}, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		conc = append(conc, tr)
	}
	crashProf := fsimpl.LinuxProfile("ext4")
	crashProf.Crash = true
	for _, s := range testgen.CrashScripts() {
		tr, err := exec.Run(ctx, s, fsimpl.MemFactory(crashProf), nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		crash = append(crash, tr)
	}
	crashSpec := types.DefaultSpec()
	crashSpec.Crash = true

	var groups []parityGroup
	for _, pl := range []types.Platform{types.PlatformLinux, types.PlatformPOSIX, types.PlatformOSX, types.PlatformFreeBSD} {
		groups = append(groups, parityGroup{"ext4 " + pl.String(), types.Spec{Platform: pl, Permissions: true, RootUser: true}, 0, ext4, true})
	}
	return append(groups,
		parityGroup{"hfsplus_linux_trusty", types.DefaultSpec(), 0, hfs, true},
		parityGroup{"conc___ seed 1", types.DefaultSpec(), 0, conc, false},
		parityGroup{"crash___", crashSpec, 0, crash, false},
		parityGroup{"hfsplus_linux_trusty cap 3", types.DefaultSpec(), 3, hfs, true},
		parityGroup{"conc___ seed 1 cap 8", types.DefaultSpec(), 8, conc, false},
	)
}

// TestFusedStepParity pins that checking a call and its return as one
// fused transition, and resuming from the previous trace's walk, are
// exactly the steps they stand for: every Result field, coverage, errors
// and cap hits included, equals a plain Walk/Step loop's from the
// initial state. One checker checks each group's traces in turn, in
// suite order and shuffled, so each check resumes from a predecessor
// that shares more or less of it. The traces are parityGroups': on the
// non-Linux platforms the suite rejects thousands of steps, so
// deviations fall back and recover; the crash universe never fuses, the
// concurrent universe fuses only while one process runs, and the small
// state-set caps make pairs fall back.
func TestFusedStepParity(t *testing.T) {
	ctx := context.Background()
	for _, g := range parityGroups(t) {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			plain := newChecker(g.spec, g.maxStates)
			shuffled := append([]*trace.Trace(nil), g.traces...)
			rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			for _, order := range []struct {
				name   string
				traces []*trace.Trace
			}{{"suite order", g.traces}, {"shuffled", shuffled}} {
				c := newChecker(g.spec, g.maxStates)
				c.Tel = telemetry.NewRegistry()
				var steps, errs, rejected, capHits int
				for _, tr := range order.traces {
					want := stepwise(plain, tr)
					got, err := c.CheckCtx(ctx, tr)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, c, tr, got, want)
					steps += got.Steps
					errs += len(got.Errors)
					if !got.Accepted {
						rejected++
					}
					if got.StateSetCapHit {
						capHits++
					}
				}
				t.Logf("%s: %d traces, %d rejected, %d errors, %d cap hits, %d of %d steps reused",
					order.name, len(g.traces), rejected, errs, capHits, reusedSteps(c), steps)
				// A sequential group that resumes past nothing in suite
				// order would make the resume's parity vacuous.
				if g.fuses && order.name == "suite order" && reusedSteps(c) == 0 {
					t.Error("no step reused in suite order")
				}
			}
			// A group no pair of which fuses would make its parity vacuous.
			if g.fuses && !fusesSome(g.spec, g.traces) {
				t.Error("no trace's first pair fuses")
			}
		})
	}
}

// seqTrace is a 14-step sequential trace: seven calls, each followed by
// its return.
const seqTrace = `@type trace
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
1: rename "d/f" "d/g"
1: RV_none
1: lstat "d/g"
1: RV_stats { st_kind=S_IFREG; st_perm=0o644; st_size=2; st_nlink=1; st_uid=0; st_gid=0 }
`

// fusedSeeds are traces the fuzz target starts from: a conforming one, a
// deviating one, a readdir whose listing is nondeterministic, a second
// process and a trace the parser takes but the model cannot follow.
var fusedSeeds = []string{
	seqTrace,
	`@type trace
1: mkdir "d" 0o755
1: EEXIST
1: rmdir "d"
1: RV_none
1: rmdir "d"
1: ENOTEMPTY
`,
	`@type trace
1: mkdir "d" 0o755
1: RV_none
1: open "d/a" [O_CREAT;O_WRONLY] 0o644
1: RV_file_descriptor(FD 3)
1: opendir "d"
1: RV_dir_handle(DH 1)
1: readdir (DH 1)
1: RV_readdir("a")
1: readdir (DH 1)
1: RV_readdir("b")
`,
	`@type trace
1: mkdir "d" 0o755
1: RV_none
create 2 0 0
2: stat "d"
1: rmdir "d"
1: RV_none
2: ENOENT
destroy 2
`,
	`@type trace
1: RV_none
1: write (FD 7) "x" 1
1: RV_num(1)
`,
}

// FuzzFusedStepParity: for any trace text the parser accepts, checking
// it with fused call/return pairs neither panics nor differs in any
// Result field from the stepwise loop, on a fresh checker and on one
// whose history holds the trace (the second check resumes past all of
// it).
func FuzzFusedStepParity(f *testing.F) {
	for _, s := range fusedSeeds {
		if _, err := trace.ParseTrace(s); err != nil {
			f.Fatalf("seed does not parse: %v\n%s", err, s)
		}
		f.Add(s)
	}
	// Generated traces: conforming ones from ext4 and, from the
	// defect-injected profile, deviating ones.
	for _, prof := range []string{"ext4", "hfsplus_linux_trusty"} {
		for _, tr := range runSuite(f, prof, 1500) {
			f.Add(tr.Render())
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := trace.ParseTrace(text)
		if err != nil {
			t.Skip()
		}
		spec := types.DefaultSpec()
		want := stepwise(newChecker(spec, 0), tr)
		c := newChecker(spec, 0)
		for range 2 {
			got, err := c.CheckCtx(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, c, tr, got, want)
		}
	})
}
