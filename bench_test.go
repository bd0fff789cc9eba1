package sibylfs

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation, regenerating each measured quantity.
//
//	BenchmarkTable71CheckSuite    — §7.1 trace-checking throughput
//	BenchmarkTable71ExecuteSuite  — §7.1 test-suite execution time
//	BenchmarkTable71RenderHTML    — §7.1 HTML generation
//	BenchmarkTable3StateSetCheck  — §3 nondeterminism handling cost
//	BenchmarkAblationStateClone   — the state-clone primitive behind §3
//	BenchmarkFig7ModelSize        — Fig 7 model line counts
//	BenchmarkSpecFSExecute        — determinized-model execution (§8)

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/checker"
	"repro/internal/osspec"
	"repro/internal/types"
)

var benchOnce struct {
	sync.Once
	scripts []*Script
	traces  []*Trace
}

// benchData executes a fixed 2 000-script slice of the suite once and
// shares the traces across benchmarks.
func benchData(b *testing.B) ([]*Script, []*Trace) {
	b.Helper()
	benchOnce.Do(func() {
		ctx := context.Background()
		session := New()
		suite, err := session.Generate(ctx)
		if err != nil {
			panic(err)
		}
		var sel []*Script
		for i := 0; i < len(suite) && len(sel) < 2000; i += len(suite)/2000 + 1 {
			sel = append(sel, suite[i])
		}
		traces, err := session.Execute(ctx, sel, MemFS(LinuxProfile("ext4")))
		if err != nil {
			panic(err)
		}
		benchOnce.scripts = sel
		benchOnce.traces = traces
	})
	return benchOnce.scripts, benchOnce.traces
}

// BenchmarkTable71CheckSuite measures oracle throughput with 4 workers,
// the paper's configuration (21 070 traces in ≈79 s = 266 traces/s on a
// 2012 i7; report traces/s for comparison).
func BenchmarkTable71CheckSuite(b *testing.B) {
	_, traces := benchData(b)
	session := New(WithWorkers(4), WithCoverage(NewCoverageRegistry()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Check(context.Background(), traces)
	}
	b.StopTimer()
	perSec := float64(len(traces)) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(perSec, "traces/s")
}

// BenchmarkTable71ExecuteSuite measures test execution on the in-memory
// target (the paper: 152 s on tmpfs for the full suite).
func BenchmarkTable71ExecuteSuite(b *testing.B) {
	scripts, _ := benchData(b)
	factory := MemFS(LinuxProfile("ext4"))
	session := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := session.Execute(context.Background(), scripts, factory); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perSec := float64(len(scripts)) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(perSec, "scripts/s")
}

// BenchmarkTable71RenderHTML measures the result-rendering phase (the
// paper's naive single-threaded HTML generator takes 48 s for a run).
func BenchmarkTable71RenderHTML(b *testing.B) {
	_, traces := benchData(b)
	results, err := New().Check(context.Background(), traces)
	if err != nil {
		b.Fatal(err)
	}
	sum := analysis.Summarise("bench", traces, results)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.RenderIndexHTML(sum); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 50; j++ {
			if _, err := analysis.RenderTraceHTML(traces[j], results[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// nondetTrace builds a readdir/concurrency-heavy trace — the worst case
// for nondeterminism handling (§3).
func nondetTrace(b *testing.B) *Trace {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("@type script\n# Test bench___nondet\n")
	sb.WriteString("mkdir \"d\" 0o755\n")
	names := []string{"a", "b", "c", "e", "f", "g"}
	for i, n := range names {
		sb.WriteString("open \"d/" + n + "\" [O_CREAT;O_WRONLY] 0o644\n")
		sb.WriteString("close (FD " + itoa(3+i) + ")\n")
	}
	sb.WriteString("opendir \"d\"\n")
	for range names {
		sb.WriteString("readdir (DH 1)\n")
	}
	sb.WriteString("unlink \"d/a\"\nrewinddir (DH 1)\n")
	for range names {
		sb.WriteString("readdir (DH 1)\n")
	}
	sb.WriteString("closedir (DH 1)\n")
	s, err := ParseScript(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return executeOne(b, s, MemFS(LinuxProfile("ext4")))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var out []byte
	for n > 0 {
		out = append([]byte{byte('0' + n%10)}, out...)
		n /= 10
	}
	return string(out)
}

// BenchmarkTable3StateSetCheck measures per-trace checking cost on the
// nondeterminism-heavy trace. The §3 claim: milliseconds per trace, not
// the CPU-hours of backtracking approaches (Netsem: ≈2.5 CPU-hours/trace).
func BenchmarkTable3StateSetCheck(b *testing.B) {
	tr := nondetTrace(b)
	c := checker.New(DefaultSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Check(tr)
		if !r.Accepted {
			b.Fatal("bench trace rejected")
		}
	}
}

// BenchmarkCheckConcurrent measures oracle cost on genuinely interleaved
// multi-process traces — the τ-closure enumerating call-processing orders
// (§3's concurrency nondeterminism, the load behind §7.1's MaxStates).
// Complements BenchmarkTable3StateSetCheck, whose nondeterminism is
// readdir-driven and single-process.
func BenchmarkCheckConcurrent(b *testing.B) {
	ctx := context.Background()
	session := New()
	scripts := generate(b, (*Session).GenerateConcurrent)
	traces, err := session.ExecuteConcurrent(ctx, scripts, MemFS(LinuxProfile("ext4")),
		ConcurrentOptions{Seeded: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	c := checker.New(DefaultSpec())
	peak := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tr := range traces {
			r := c.Check(tr)
			if !r.Accepted {
				b.Fatalf("concurrent trace %d rejected", j)
			}
			if r.MaxStates > peak {
				peak = r.MaxStates
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(traces))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
	b.ReportMetric(float64(peak), "peak_states")
}

// BenchmarkAblationStateClone measures the clone primitive that the
// possible-next-state enumeration strategy (§3) rests on.
func BenchmarkAblationStateClone(b *testing.B) {
	s := osspec.NewOsState(DefaultSpec())
	// Populate a fixture-sized state.
	grow := func(cmd types.Command) {
		called := osspec.Trans(s, types.CallLabel{Pid: 1, Cmd: cmd}, nil)
		for _, cand := range osspec.TauFor(called[0], 1, nil) {
			for _, rv := range osspec.ConcreteReturns(cand, 1) {
				if after := osspec.Trans(cand, types.ReturnLabel{Pid: 1, Ret: rv}, nil); len(after) > 0 {
					s = after[0]
					return
				}
			}
		}
	}
	grow(types.Mkdir{Path: "/d", Perm: 0o755})
	for _, n := range []string{"a", "b", "c", "e"} {
		grow(types.Open{Path: "/d/" + n, Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

// closureFixture builds a state set with several processes holding
// conflicting pending calls — the τ-closure's worst case: the closure must
// enumerate processing orders, and only fingerprint-equal interleavings
// merge. This is the micro-workload behind BenchmarkCheckConcurrent's
// per-return closures.
func closureFixture(b *testing.B) []*osspec.OsState {
	b.Helper()
	s := osspec.NewOsState(DefaultSpec())
	for p := 2; p <= 5; p++ {
		next := osspec.Trans(s, types.CreateLabel{Pid: types.Pid(p), Uid: 0, Gid: 0}, nil)
		if len(next) != 1 {
			b.Fatal("create rejected")
		}
		s = next[0]
	}
	calls := []types.Command{
		types.Mkdir{Path: "/a", Perm: 0o755},
		types.Open{Path: "/a/f", Flags: types.OCreat | types.OWronly, Perm: 0o644, HasPerm: true},
		types.Mkdir{Path: "/b", Perm: 0o755},
		types.Rename{Src: "/b", Dst: "/c"},
		types.Unlink{Path: "/a/f"},
	}
	for i, cmd := range calls {
		next := osspec.Trans(s, types.CallLabel{Pid: types.Pid(i + 1), Cmd: cmd}, nil)
		if len(next) != 1 {
			b.Fatal("call rejected")
		}
		s = next[0]
	}
	return []*osspec.OsState{s}
}

// BenchmarkTauClosureSerial measures one full τ-closure over the fixture
// set: every order in which five conflicting pending calls may be
// processed, with state-identity deduplication, on the calling goroutine
// as the checker runs it — the hot loop of concurrent checking.
func BenchmarkTauClosureSerial(b *testing.B) {
	states := closureFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, _ := osspec.TauClosureWith(states, osspec.ClosureOpts{})
		if len(out) < 8 {
			b.Fatalf("closure collapsed to %d states", len(out))
		}
	}
}

// BenchmarkStateClone measures the transition-level clone primitive on a
// populated state (tree of directories, open descriptors, file contents) —
// the allocation every os_trans successor pays.
func BenchmarkStateClone(b *testing.B) {
	s := osspec.NewOsState(DefaultSpec())
	grow := func(cmd types.Command) {
		called := osspec.Trans(s, types.CallLabel{Pid: 1, Cmd: cmd}, nil)
		for _, cand := range osspec.TauFor(called[0], 1, nil) {
			for _, rv := range osspec.ConcreteReturns(cand, 1) {
				if after := osspec.Trans(cand, types.ReturnLabel{Pid: 1, Ret: rv}, nil); len(after) > 0 {
					s = after[0]
					return
				}
			}
		}
		b.Fatalf("fixture command %v not applied", cmd)
	}
	for _, d := range []string{"/d1", "/d2", "/d1/s1", "/d1/s2", "/d2/s3"} {
		grow(types.Mkdir{Path: d, Perm: 0o755})
	}
	for i, f := range []string{"/d1/a", "/d1/b", "/d1/s1/c", "/d2/s3/e", "/f", "/g"} {
		grow(types.Open{Path: f, Flags: types.OCreat | types.ORdwr, Perm: 0o644, HasPerm: true})
		grow(types.Write{FD: types.FD(3 + i), Data: []byte("some file content payload"), Size: 25})
	}
	grow(types.Opendir{Path: "/d1"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

// BenchmarkFig7ModelSize regenerates the Fig 7 table: non-comment lines of
// specification per module (the paper's Lem model totals 5 981 lines).
func BenchmarkFig7ModelSize(b *testing.B) {
	moduleOf := map[string]string{
		"internal/state":   "State",
		"internal/pathres": "Path resolution",
		"internal/fsspec":  "File system",
		"internal/osspec":  "POSIX API",
		"internal/types":   "Types",
		"internal/checker": "Checker",
		"internal/cov":     "Support",
		"internal/trace":   "Support",
	}
	var total float64
	counts := map[string]int{}
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		mod, ok := moduleOf[filepath.ToSlash(filepath.Dir(path))]
		if !ok {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" && !strings.HasPrefix(line, "//") {
				counts[mod]++
				total++
			}
		}
		return sc.Err()
	})
	if err != nil {
		b.Fatal(err)
	}
	for mod, n := range counts {
		b.ReportMetric(float64(n), strings.ReplaceAll(mod, " ", "_")+"_loc")
	}
	b.ReportMetric(total, "total_loc")
	for i := 0; i < b.N; i++ {
		// The measurement is the table itself; nothing per-iteration.
	}
}

// BenchmarkPipelineCold and BenchmarkPipelineWarm measure the cache-backed
// pipeline over a fixed 500-script slice: cold executes and checks every
// script, warm resolves every job from the content-addressed cache. Their
// ratio is the re-run speedup; sfsbench's cold and warm workloads are the
// standing measurement of both paths. Each iteration runs in a fresh
// session, so every run hashes its scripts as a new process would.
func BenchmarkPipelineCold(b *testing.B) {
	scripts, _ := benchData(b)
	job := RunJob{
		Name: "bench-cold", Scripts: scripts[:500],
		Factory: MemFS(LinuxProfile("ext4")), FSName: "ext4",
	}
	sel := job.Scripts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := New().Run(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		if st.Executed != len(sel) {
			b.Fatalf("expected all-cold run, got %s", st)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(sel))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

func BenchmarkPipelineWarm(b *testing.B) {
	scripts, _ := benchData(b)
	job := RunJob{
		Name: "bench-warm", Scripts: scripts[:500],
		Factory: MemFS(LinuxProfile("ext4")), FSName: "ext4",
	}
	sel := job.Scripts
	store, err := OpenPackStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, _, err := New(WithStore(store)).Run(ctx, job); err != nil { // fill the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := New(WithStore(store)).Run(ctx, job)
		if err != nil {
			b.Fatal(err)
		}
		if st.CacheHits != len(sel) {
			b.Fatalf("expected all-warm run, got %s", st)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(sel))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

// BenchmarkSpecFSExecute measures the determinized model run as an
// implementation (the paper mounted SibylFS as a FUSE file system, §8).
func BenchmarkSpecFSExecute(b *testing.B) {
	scripts, _ := benchData(b)
	sel := scripts[:200]
	factory := SpecFS("specfs", DefaultSpec())
	session := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := session.Execute(context.Background(), sel, factory); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perSec := float64(len(sel)) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(perSec, "scripts/s")
}

// BenchmarkCheckSingleWorkerVsFour quantifies the parallel speedup that
// trace independence provides (§7.1 runs with 4 processes).
func BenchmarkCheckSingleWorker(b *testing.B) {
	_, traces := benchData(b)
	sel := traces[:500]
	session := New(WithWorkers(1), WithCoverage(NewCoverageRegistry()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Check(context.Background(), sel)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(sel))*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}
