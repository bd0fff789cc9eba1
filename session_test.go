package sibylfs

// Session facade tests: parity with the layers under it, cooperative
// cancellation with a resumable journal, and per-session coverage-registry
// isolation. The golden-parity test is the acceptance gate for the facade
// — the Session pipeline must be byte-identical to a bare pipeline.Run
// against the recorded oracle fixtures.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/pipeline"
)

// TestSessionGoldenParity drives the same seq_slice7 suite once through
// a bare pipeline.Run and once through Session.Run, and requires
// byte-identical records — then pins both against the golden oracle
// fixtures recorded with the pre-refactor engine.
func TestSessionGoldenParity(t *testing.T) {
	suite := generate(t, (*Session).Generate)
	var sel []*Script
	for i := 0; i < len(suite); i += 7 {
		sel = append(sel, suite[i])
	}

	direct, directStats, err := pipeline.Run(context.Background(), pipeline.Config{
		Name:    "seq_slice7",
		Scripts: sel,
		Factory: MemFS(LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    DefaultSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if directStats.Executed != len(sel) {
		t.Fatalf("direct run not cold: %s", directStats)
	}

	session := New(WithSpec(DefaultSpec()))
	records, stats, err := session.Run(context.Background(), RunJob{
		Name:    "seq_slice7",
		Scripts: sel,
		Factory: MemFS(LinuxProfile("ext4")),
		FSName:  "ext4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(sel) {
		t.Fatalf("session run not cold: %s", stats)
	}
	if len(records) != len(direct) {
		t.Fatalf("session produced %d records, direct %d", len(records), len(direct))
	}
	for i := range records {
		a, err := json.Marshal(records[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(direct[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("record %d (%s) differs between Session and direct paths:\n%s\n%s",
				i, records[i].Name, a, b)
		}
	}

	// Both paths agree; now pin them to the golden fixture.
	data, err := os.ReadFile(filepath.Join("testdata", "oracle_golden.json"))
	if err != nil {
		t.Fatalf("missing golden fixtures: %v", err)
	}
	var want map[string]*goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	w, ok := want["seq_slice7"]
	if !ok {
		t.Fatal("no golden record seq_slice7")
	}
	h := sha256.New()
	for _, rec := range records {
		h.Write([]byte(rec.Checked))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != w.CheckedSHA {
		t.Errorf("session checked-trace digest %s, want golden %s", got, w.CheckedSHA)
	}
}

// smallSuite returns a deterministic slice of the generated suite, big
// enough to span several worker dispatches.
func smallSuite(t *testing.T, n int) []*Script {
	t.Helper()
	suite := generate(t, (*Session).Generate)
	if len(suite) < n*50 {
		t.Fatalf("suite unexpectedly small: %d", len(suite))
	}
	var sel []*Script
	for i := 0; i < len(suite) && len(sel) < n; i += 50 {
		sel = append(sel, suite[i])
	}
	return sel
}

// TestSessionRunCancelResume cancels a pipeline run mid-flight via the
// observer, then proves the journal is valid and that a -resume-style
// session completes it with output byte-identical to an uninterrupted
// run.
func TestSessionRunCancelResume(t *testing.T) {
	scripts := smallSuite(t, 30)
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.jsonl")
	killed := filepath.Join(dir, "killed.jsonl")

	job := func() RunJob {
		return RunJob{
			Name:    "cancel-resume",
			Scripts: scripts,
			Factory: MemFS(LinuxProfile("ext4")),
			FSName:  "ext4",
		}
	}

	// Baseline: uninterrupted run, finalized journal.
	if _, _, err := New(WithJournal(clean)).Run(context.Background(), job()); err != nil {
		t.Fatal(err)
	}

	// Cancelled run: the observer pulls the plug after the third record.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen int
	var mu sync.Mutex
	session := New(
		WithJournal(killed),
		WithWorkers(2),
		WithObserver(func(PipelineRecord) {
			mu.Lock()
			seen++
			if seen == 3 {
				cancel()
			}
			mu.Unlock()
		}),
	)
	_, _, err := session.Run(ctx, job())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: got err %v, want context.Canceled", err)
	}

	// The journal must hold ≥ the records observed before the cancel and
	// parse cleanly (append order, not finalized).
	partial, err := OpenResultSink(killed, true)
	if err != nil {
		t.Fatalf("cancelled journal unreadable: %v", err)
	}
	got := partial.Len()
	partial.Close()
	if got < 3 || got >= len(scripts) {
		t.Fatalf("cancelled journal holds %d records, want a strict partial ≥ 3 of %d", got, len(scripts))
	}

	// Resume: a fresh session over the same journal completes the suite
	// without touching journaled jobs, and finalizes.
	resumed := New(WithJournal(killed), WithResume())
	_, stats, err := resumed.Run(context.Background(), job())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SinkSkipped != got {
		t.Fatalf("resume skipped %d journaled jobs, want %d", stats.SinkSkipped, got)
	}
	if stats.Executed != len(scripts)-got {
		t.Fatalf("resume executed %d, want %d", stats.Executed, len(scripts)-got)
	}

	a, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(killed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed journal is not byte-identical to the uninterrupted run's")
	}
}

// TestSessionRunReturnsFinalizedSink pins a journaled Run's records: the
// records of the whole finalized file, in file order. Shard 0 of 2 runs
// first; shard 1 then resumes the same journal, with a cache that holds
// the first third of the scripts. The second Run must return exactly
// what ReadRecords reads back, with Cached set on exactly the resumed
// shard-0 records and shard 1's cache hits.
func TestSessionRunReturnsFinalizedSink(t *testing.T) {
	scripts := smallSuite(t, 30)
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	journal := filepath.Join(dir, "run.jsonl")
	job := func(shard int) RunJob {
		return RunJob{
			Name:    "finalized-sink",
			Scripts: scripts,
			Factory: MemFS(LinuxProfile("ext4")),
			FSName:  "ext4",
			Shards:  2,
			Shard:   shard,
		}
	}
	run := func(job RunJob, opts ...Option) []PipelineRecord {
		t.Helper()
		s := New(append(opts, WithCacheDir(cacheDir))...)
		defer s.Close()
		records, _, err := s.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	cachedPrefix := len(scripts) / 3
	warm := job(0)
	warm.Shards, warm.Scripts = 0, scripts[:cachedPrefix]
	run(warm)

	readBack := func() []PipelineRecord {
		t.Helper()
		recs, err := pipeline.ReadRecords(journal)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	uncached := func(recs []PipelineRecord) []PipelineRecord {
		out := make([]PipelineRecord, len(recs))
		for i, rec := range recs {
			rec.Cached = false
			out[i] = rec
		}
		return out
	}
	first := run(job(0), WithJournal(journal))
	if want := readBack(); len(first) != (len(scripts)+1)/2 || !reflect.DeepEqual(uncached(first), want) {
		t.Fatalf("shard 0 returned %d records, not the %d its finalized journal holds", len(first), len(want))
	}
	second := run(job(1), WithJournal(journal), WithResume())
	want := readBack()
	if len(second) != len(scripts) || !reflect.DeepEqual(uncached(second), want) {
		t.Fatalf("resumed shard 1 returned %d records, not the %d of its finalized journal in file order",
			len(second), len(want))
	}
	index := make(map[string]int, len(scripts))
	for i, sc := range scripts {
		index[sc.Name] = i
	}
	hits := 0
	for _, rec := range second {
		i := index[rec.Name]
		resumed, hit := i%2 == 0, i%2 == 1 && i < cachedPrefix
		if hit {
			hits++
		}
		if rec.Cached != (resumed || hit) {
			t.Errorf("%s (script %d): Cached %v, want %v", rec.Name, i, rec.Cached, resumed || hit)
		}
	}
	if hits == 0 {
		t.Fatal("shard 1 had no cache hits: the Cached check on hits is vacuous")
	}
}

// TestSessionRunPreCancelled: a context cancelled before Run starts must
// stop promptly, execute nothing, and still leave a valid (empty)
// journal.
func TestSessionRunPreCancelled(t *testing.T) {
	scripts := smallSuite(t, 10)
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := New(WithJournal(journal)).Run(ctx, RunJob{
		Name:    "pre-cancelled",
		Scripts: scripts,
		Factory: MemFS(LinuxProfile("ext4")),
		FSName:  "ext4",
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if stats.Executed != 0 {
		t.Fatalf("pre-cancelled run executed %d jobs", stats.Executed)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal missing after pre-cancelled run: %v", err)
	}
}

// serialCheck is the reference Session.Check is held to: one checker,
// checking the traces in order on the calling goroutine. TauNanos is
// wall-clock telemetry, never equal across two runs and no part of the
// contract, so it is zeroed.
func serialCheck(traces []*Trace) []CheckResult {
	c := checker.New(DefaultSpec())
	out := make([]CheckResult, len(traces))
	for i, tr := range traces {
		out[i] = c.Check(tr)
		out[i].TauNanos = 0
	}
	return out
}

// TestSessionCheckParity: Session.Check, one checker per worker, must
// agree exactly with a serial loop over one checker on a sequential
// slice.
func TestSessionCheckParity(t *testing.T) {
	scripts := smallSuite(t, 64)
	traces, err := New().Execute(context.Background(), scripts, MemFS(LinuxProfile("ext4")))
	if err != nil {
		t.Fatal(err)
	}
	direct := serialCheck(traces)
	session, err := New(WithSpec(DefaultSpec()), WithWorkers(8)).Check(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		session[i].TauNanos = 0
		a, _ := json.Marshal(direct[i])
		b, _ := json.Marshal(session[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("trace %s: session result differs from direct:\n%s\n%s", traces[i].Name, b, a)
		}
		if !session[i].Accepted {
			t.Fatalf("trace %s rejected", traces[i].Name)
		}
	}
}

// TestSessionCheckWorkerCountDoesNotChangeResults: on the concurrent
// universe, where the τ-closure does real work, Session.Check equals the
// serial loop for every worker count — same acceptance, diagnoses,
// state-set statistics and coverage sets. Under -race it also shows that
// the workers' checkers share nothing.
func TestSessionCheckWorkerCountDoesNotChangeResults(t *testing.T) {
	ctx := context.Background()
	scripts := generate(t, (*Session).GenerateConcurrent)
	traces, err := New().ExecuteConcurrent(ctx, scripts, MemFS(LinuxProfile("ext4")),
		ConcurrentOptions{Seeded: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := serialCheck(traces)
	for _, workers := range []int{1, 2, 4} {
		got, err := New(WithWorkers(workers), WithCoverage(NewCoverageRegistry())).Check(ctx, traces)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			got[i].TauNanos = 0
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: %s diverged:\n%+v\nwant\n%+v", workers, traces[i].Name, got[i], want[i])
			}
		}
	}
}

// TestSessionCheckCancelled: a cancelled context stops Session.Check
// between traces and reports context.Canceled.
func TestSessionCheckCancelled(t *testing.T) {
	traces, err := New().Execute(context.Background(), smallSuite(t, 40), MemFS(LinuxProfile("ext4")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(WithWorkers(4)).Check(ctx, traces); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSessionFuzzContextEnd: a fuzz session bounded only by a context
// deadline runs and ends gracefully, reporting results instead of an
// error.
func TestSessionFuzzContextEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	session := New(WithSpec(DefaultSpec()), WithWorkers(2))
	res, err := session.Fuzz(ctx, FuzzJob{
		Name:    "ctx-bounded",
		Factory: MemFS(LinuxProfile("ext4")),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 {
		t.Fatal("deadline-bounded fuzz session executed no candidates")
	}
	if res.Findings != nil && len(res.Findings) > 0 {
		t.Fatalf("conforming memfs produced findings: %v", res.Findings[0].Name)
	}
}

// TestSessionFuzzUnbounded: without MaxRuns or a deadline the session
// must refuse to start rather than spin forever.
func TestSessionFuzzUnbounded(t *testing.T) {
	_, err := New().Fuzz(context.Background(), FuzzJob{
		Name:    "unbounded",
		Factory: MemFS(LinuxProfile("ext4")),
	})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("got %v, want an unbounded-session error naming the deadline", err)
	}
}

// mkdirScript/symlinkScript are disjoint single-command fixtures for the
// coverage-isolation test: checking one can never hit the other's
// command-specific model points.
func parseScriptOrDie(t *testing.T, text string) *Script {
	t.Helper()
	s, err := ParseScript(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConcurrentSessionCoverageIsolation runs two sessions with private
// coverage registries concurrently and proves their counters do not
// bleed: each registry sees exactly the points of its own session's
// checking — count for count the same as a solo baseline — and none of
// the other command's points. Run under -race this also pins the
// per-trace sets and their merges race-clean.
func TestConcurrentSessionCoverageIsolation(t *testing.T) {
	mkdirS := parseScriptOrDie(t, "@type script\n# Test mkdir_iso\nmkdir \"d\" 0o755\n")
	symlinkS := parseScriptOrDie(t, "@type script\n# Test symlink_iso\nsymlink \"t\" \"l\"\n")

	const iters = 5
	runChecks := func(reg *CoverageRegistry, s *Script) error {
		opts := []Option{WithSpec(DefaultSpec()), WithWorkers(2)}
		if reg != nil {
			opts = append(opts, WithCoverage(reg))
		}
		session := New(opts...)
		for i := 0; i < iters; i++ {
			traces, err := session.Execute(context.Background(), []*Script{s}, MemFS(LinuxProfile("ext4")))
			if err != nil {
				return err
			}
			if _, err := session.Check(context.Background(), traces); err != nil {
				return err
			}
		}
		return nil
	}

	// Solo baselines: what each session's registry must end up holding.
	baseMkdir, baseSymlink := NewCoverageRegistry(), NewCoverageRegistry()
	if err := runChecks(baseMkdir, mkdirS); err != nil {
		t.Fatal(err)
	}
	if err := runChecks(baseSymlink, symlinkS); err != nil {
		t.Fatal(err)
	}

	regA, regB := NewCoverageRegistry(), NewCoverageRegistry()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(3)
	go func() { defer wg.Done(); errs[0] = runChecks(regA, mkdirS) }()
	go func() { defer wg.Done(); errs[1] = runChecks(regB, symlinkS) }()
	go func() {
		// A third session, built with plain New, churns concurrently:
		// its traces merge into a registry of its own, so none of its
		// symlink hits may reach the registries above.
		defer wg.Done()
		errs[2] = runChecks(nil, symlinkS)
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	snapshot := func(r *CoverageRegistry) map[string]uint64 {
		ids, counts := r.Snapshot()
		m := make(map[string]uint64, len(ids))
		for i, id := range ids {
			if counts[i] > 0 {
				m[id] = counts[i]
			}
		}
		return m
	}
	a, b := snapshot(regA), snapshot(regB)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("registries recorded no coverage at all")
	}
	if a["fsspec/mkdir/ok"] == 0 {
		t.Error("mkdir session registry missed fsspec/mkdir/ok")
	}
	if b["fsspec/symlink/ok"] == 0 {
		t.Error("symlink session registry missed fsspec/symlink/ok")
	}
	for id := range a {
		if strings.HasPrefix(id, "fsspec/symlink/") {
			t.Errorf("mkdir session registry bled symlink point %s", id)
		}
	}
	for id := range b {
		if strings.HasPrefix(id, "fsspec/mkdir/") {
			t.Errorf("symlink session registry bled mkdir point %s", id)
		}
	}

	// Exactness, not just disjointness: concurrent counters match the solo
	// baselines point for point.
	wantA, wantB := snapshot(baseMkdir), snapshot(baseSymlink)
	for id, n := range wantA {
		if a[id] != n {
			t.Errorf("mkdir registry %s = %d, solo baseline %d", id, a[id], n)
		}
	}
	if len(a) != len(wantA) {
		t.Errorf("mkdir registry holds %d hit points, baseline %d", len(a), len(wantA))
	}
	for id, n := range wantB {
		if b[id] != n {
			t.Errorf("symlink registry %s = %d, solo baseline %d", id, b[id], n)
		}
	}
	if len(b) != len(wantB) {
		t.Errorf("symlink registry holds %d hit points, baseline %d", len(b), len(wantB))
	}
}

// TestDefaultSessionCoverageIsolation: two sessions built with plain New
// keep their coverage apart. A fuzz session resets its coverage registry
// at start, and ResetCoverage zeroes it; neither may move the figures of
// another default session.
func TestDefaultSessionCoverageIsolation(t *testing.T) {
	ctx := context.Background()
	suite := generate(t, (*Session).Generate)
	a := New(WithWorkers(1))
	traces, err := a.Execute(ctx, suite[:200], MemFS(LinuxProfile("ext4")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Check(ctx, traces); err != nil {
		t.Fatal(err)
	}
	hit, total := a.Coverage()
	unhit := a.CoverageUnhit()
	if hit == 0 {
		t.Fatal("session A hit no coverage points")
	}

	b := New()
	if _, err := b.Fuzz(ctx, FuzzJob{Factory: MemFS(LinuxProfile("ext4")), Seed: 1, MaxRuns: 3}); err != nil {
		t.Fatal(err)
	}
	b.ResetCoverage()

	if h, tot := a.Coverage(); h != hit || tot != total {
		t.Errorf("session A coverage moved from %d/%d to %d/%d", hit, total, h, tot)
	}
	if got := a.CoverageUnhit(); !slices.Equal(got, unhit) {
		t.Errorf("session A unhit points moved:\n got %v\nwant %v", got, unhit)
	}
}

// TestSessionObserverStreams: the observer sees every record exactly
// once, including cache hits on a warm run.
func TestSessionObserverStreams(t *testing.T) {
	scripts := smallSuite(t, 12)
	cacheDir := t.TempDir()
	run := func() (int, PipelineStats) {
		var n int
		var mu sync.Mutex
		session := New(
			WithCacheDir(cacheDir),
			WithObserver(func(PipelineRecord) { mu.Lock(); n++; mu.Unlock() }),
		)
		defer session.Close() // the warm session reopens the directory
		_, stats, err := session.Run(context.Background(), RunJob{
			Name:    "observer",
			Scripts: scripts,
			Factory: MemFS(LinuxProfile("ext4")),
			FSName:  "ext4",
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, stats
	}
	if n, stats := run(); n != len(scripts) || stats.Executed != len(scripts) {
		t.Fatalf("cold run: observer saw %d records (stats %s)", n, stats)
	}
	if n, stats := run(); n != len(scripts) || stats.CacheHits != len(scripts) {
		t.Fatalf("warm run: observer saw %d records (stats %s)", n, stats)
	}
}

// TestSessionCloseSealsCache pins the reopen cost a CLI's clean exit
// leaves behind: runs only commit the packed store, and Session.Close
// writes its index sidecar, so the next session on the same directory
// loads the index without scanning the segment — no rebuild, and no
// sidecar rewrite (every scan rewrites it). A session used after Close
// fails instead of reopening the cache.
func TestSessionCloseSealsCache(t *testing.T) {
	reg := NewTelemetryRegistry() // the store's open-time events land here too

	scripts := smallSuite(t, 6)
	cacheDir := t.TempDir()
	job := RunJob{
		Name:    "close",
		Scripts: scripts,
		Factory: MemFS(LinuxProfile("ext4")),
		FSName:  "ext4",
	}
	cold := New(WithCacheDir(cacheDir), WithTelemetry(reg))
	if _, stats, err := cold.Run(context.Background(), job); err != nil || stats.Executed != len(scripts) {
		t.Fatalf("cold run: %s, %v", stats, err)
	}
	if n := reg.Counter("pipeline.index_writes").Value(); n != 0 {
		t.Fatalf("cold run wrote the sidecar %d times before Close, want 0", n)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("pipeline.index_writes").Value(); n != 1 {
		t.Fatalf("Close wrote the sidecar %d times, want 1", n)
	}
	if _, _, err := cold.Run(context.Background(), job); err == nil {
		t.Fatal("Run on a closed session succeeded")
	}

	warm := New(WithCacheDir(cacheDir), WithTelemetry(reg))
	defer warm.Close()
	if _, stats, err := warm.Run(context.Background(), job); err != nil || stats.CacheHits != len(scripts) {
		t.Fatalf("warm run: %s, %v", stats, err)
	}
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 0 {
		t.Fatalf("warm open rebuilt %d segments, want 0", n)
	}
	if n := reg.Counter("pipeline.index_writes").Value(); n != 1 {
		t.Fatalf("warm open scanned the segment (sidecar writes %d, want still 1)", n)
	}
}
