package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/checker"
	"repro/internal/fsimpl"
	"repro/internal/osspec"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// testScripts builds a small deterministic suite: n variations on a
// mkdir/open/rename theme, each with a unique name and content.
func testScripts(t testing.TB, n int) []*trace.Script {
	t.Helper()
	var out []*trace.Script
	for i := 0; i < n; i++ {
		text := fmt.Sprintf(`@type script
# Test pipe___job_%02d
mkdir "d%d" 0o755
open "d%d/f" [O_CREAT;O_WRONLY] 0o644
rename "d%d" "e%d"
`, i, i, i, i, i)
		s, err := trace.ParseScript(text)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func testConfig(scripts []*trace.Script) Config {
	return Config{
		Name:    "pipe-test",
		Scripts: scripts,
		Factory: fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    types.DefaultSpec(),
		Workers: 2,
	}
}

// TestConsTablePolicy pins when Run builds the suite-level cons table:
// for sequential runs, whose traces share a prefix of interned states,
// and never for concurrent ones, whose schedules do not.
func TestConsTablePolicy(t *testing.T) {
	scripts := testScripts(t, 4)
	consMetrics := func(concurrent bool) []string {
		cfg := testConfig(scripts)
		cfg.Concurrent = concurrent
		cfg.SchedSeed = 1
		cfg.Tel = telemetry.NewRegistry()
		if _, _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		snap := cfg.Tel.Snapshot()
		var names []string
		for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
			for name := range m {
				if strings.HasPrefix(name, "checker.cons_") {
					names = append(names, name)
				}
			}
		}
		return names
	}
	if names := consMetrics(true); len(names) != 0 {
		t.Errorf("concurrent run recorded cons-table metrics %v", names)
	}
	if names := consMetrics(false); len(names) == 0 {
		t.Error("sequential run recorded no cons-table metrics")
	}
}

// TestPerWorkerConsTables pins the memo's ownership: every worker checks
// with a table of its own, which changes no record, and Run reports the
// tables' counters summed. The tracked sets, and with them the lookups,
// do not depend on which worker checks a trace, so hits plus misses must
// match the one-table run for every worker count; a report from a single
// worker's table would fall short. The retained total stays within
// DefaultConsCap plus one fan-out per table, since the tables split the
// cap.
func TestPerWorkerConsTables(t *testing.T) {
	// Traces share a two-call prefix, so tables hit, then each makes 60
	// directories of its own, one cons entry each, so the full-size suite
	// outgrows the cap and resets.
	n := 1200
	if testing.Short() {
		n = 150
	}
	var scripts []*trace.Script
	for i := 0; i < n; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, "@type script\n# Test memo___job_%04d\nmkdir \"p\" 0o755\nstat \"p\"\n", i)
		for j := 0; j < 60; j++ {
			fmt.Fprintf(&b, "mkdir \"p/d%d_%d\" 0o755\n", i, j)
		}
		s, err := trace.ParseScript(b.String())
		if err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, s)
	}
	run := func(workers int, noMemo bool) ([]Record, telemetry.Snapshot) {
		cfg := testConfig(scripts)
		cfg.Workers = workers
		cfg.NoSharedCons = noMemo
		cfg.Tel = telemetry.NewRegistry()
		recs, _, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return recs, cfg.Tel.Snapshot()
	}
	want, snap1 := run(1, false)
	lookups := snap1.Counters["checker.cons_hits"] + snap1.Counters["checker.cons_misses"]
	if lookups == 0 {
		t.Fatal("one-worker run made no cons lookups")
	}
	// An entry holds a fused pair's successors: at most its distinct τ
	// outcomes, which the record's MaxStates counts.
	fanout := 0
	for _, r := range want {
		fanout = max(fanout, r.MaxStates)
	}
	for _, workers := range []int{2, 4} {
		recs, snap := run(workers, false)
		if !reflect.DeepEqual(recs, want) {
			t.Errorf("%d workers: records differ from the one-worker run", workers)
		}
		got := snap.Counters["checker.cons_hits"] + snap.Counters["checker.cons_misses"]
		if got != lookups {
			t.Errorf("%d workers: %d cons lookups reported, want %d (the sum over every table)", workers, got, lookups)
		}
		retained := snap.Gauges["checker.cons_retained"]
		if bound := int64(checker.DefaultConsCap + workers*fanout); retained > bound {
			t.Errorf("%d workers: %d states retained, want <= %d", workers, retained, bound)
		}
		if !testing.Short() && snap.Counters["checker.cons_resets"] == 0 {
			t.Errorf("%d workers: no table reset; the suite no longer outgrows the cap", workers)
		}
		t.Logf("%d workers: %d hits, %d misses, %d resets, %d retained", workers,
			snap.Counters["checker.cons_hits"], snap.Counters["checker.cons_misses"],
			snap.Counters["checker.cons_resets"], retained)
	}
	recs, snap := run(2, true)
	if !reflect.DeepEqual(recs, want) {
		t.Error("NoSharedCons: records differ from the memoised run")
	}
	if n := snap.Counters["checker.cons_hits"] + snap.Counters["checker.cons_misses"]; n != 0 {
		t.Errorf("NoSharedCons: %d cons lookups reported", n)
	}
}

func TestCacheHitMissInvalidation(t *testing.T) {
	scripts := testScripts(t, 8)
	store, err := OpenCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(scripts)
	cfg.Store = store

	cold, st, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != len(scripts) || st.CacheHits != 0 {
		t.Fatalf("cold run: executed %d, hits %d, want %d/0", st.Executed, st.CacheHits, len(scripts))
	}

	// Warm: every job is a cache hit and the records are identical.
	warm, st, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != len(scripts) || st.Executed != 0 {
		t.Fatalf("warm run: executed %d, hits %d, want 0/%d", st.Executed, st.CacheHits, len(scripts))
	}
	for i := range cold {
		if !warm[i].Cached {
			t.Errorf("warm record %d not marked cached", i)
		}
		warm[i].Cached = cold[i].Cached
		if fmt.Sprintf("%+v", warm[i]) != fmt.Sprintf("%+v", cold[i]) {
			t.Errorf("record %d differs between cold and warm run", i)
		}
	}

	// A model-version bump invalidates everything.
	bumped := cfg
	bumped.ModelVersion = "test-v2"
	if _, st, err = Run(context.Background(), bumped); err != nil {
		t.Fatal(err)
	}
	if st.Executed != len(scripts) || st.CacheHits != 0 {
		t.Fatalf("after version bump: executed %d, hits %d, want %d/0", st.Executed, st.CacheHits, len(scripts))
	}

	// A spec-variant change invalidates everything too.
	posix := cfg
	posix.Spec = types.Spec{Platform: types.PlatformPOSIX, Permissions: true, RootUser: true}
	if _, st, err = Run(context.Background(), posix); err != nil {
		t.Fatal(err)
	}
	if st.Executed != len(scripts) || st.CacheHits != 0 {
		t.Fatalf("after spec change: executed %d, hits %d, want %d/0", st.Executed, st.CacheHits, len(scripts))
	}

	// Editing one script invalidates only that trace.
	edited := append([]*trace.Script(nil), scripts...)
	mod, err := trace.ParseScript("@type script\n# Test pipe___job_03\nmkdir \"d3\" 0o700\n")
	if err != nil {
		t.Fatal(err)
	}
	edited[3] = mod
	cfg2 := cfg
	cfg2.Scripts = edited
	if _, st, err = Run(context.Background(), cfg2); err != nil {
		t.Fatal(err)
	}
	if st.Executed != 1 || st.CacheHits != len(scripts)-1 {
		t.Fatalf("after one edit: executed %d, hits %d, want 1/%d", st.Executed, st.CacheHits, len(scripts)-1)
	}
}

// finalizedRun runs cfg into a fresh sink at path and finalizes it.
func finalizedRun(t *testing.T, cfg Config, path string, resume bool) Stats {
	t.Helper()
	sink, err := OpenSink(path, resume, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	_, st, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Finalize(); err != nil {
		t.Fatal(err)
	}
	return st
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestShardInvariance(t *testing.T) {
	scripts := testScripts(t, 10)
	dir := t.TempDir()
	cfg := testConfig(scripts)

	// Reference: one unsharded run.
	whole := filepath.Join(dir, "whole.jsonl")
	finalizedRun(t, cfg, whole, false)
	want := readFile(t, whole)

	// Three shards into separate sinks, merged.
	var parts []string
	for k := 0; k < 3; k++ {
		part := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", k))
		scfg := cfg
		scfg.Shards, scfg.Shard = 3, k
		st := finalizedRun(t, scfg, part, false)
		if st.Jobs == 0 {
			t.Fatalf("shard %d got no jobs", k)
		}
		parts = append(parts, part)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	if err := MergeRecords(merged, parts...); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, merged); string(got) != string(want) {
		t.Errorf("merged 3-shard output differs from unsharded run")
	}

	// Three shard invocations resuming into ONE sink.
	shared := filepath.Join(dir, "shared.jsonl")
	for k := 0; k < 3; k++ {
		scfg := cfg
		scfg.Shards, scfg.Shard = 3, k
		finalizedRun(t, scfg, shared, k > 0)
	}
	if got := readFile(t, shared); string(got) != string(want) {
		t.Errorf("shared-sink 3-shard output differs from unsharded run")
	}

	// A different layout (5 shards) lands on the same bytes too.
	shared5 := filepath.Join(dir, "shared5.jsonl")
	for k := 0; k < 5; k++ {
		scfg := cfg
		scfg.Shards, scfg.Shard = 5, k
		finalizedRun(t, scfg, shared5, k > 0)
	}
	if got := readFile(t, shared5); string(got) != string(want) {
		t.Errorf("5-shard output differs from unsharded run")
	}
}

func TestResumeAfterKill(t *testing.T) {
	scripts := testScripts(t, 9)
	dir := t.TempDir()
	cfg := testConfig(scripts)

	// Reference: uninterrupted run.
	whole := filepath.Join(dir, "whole.jsonl")
	finalizedRun(t, cfg, whole, false)
	want := readFile(t, whole)

	// "Killed" run: journal some records, then chop the file mid-line —
	// exactly what dying inside an append leaves behind.
	killed := filepath.Join(dir, "killed.jsonl")
	sink, err := OpenSink(killed, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	part := cfg
	part.Scripts = scripts[:5] // only some jobs "finished" before the kill
	part.Sink = sink
	if _, _, err := Run(context.Background(), part); err != nil {
		t.Fatal(err)
	}
	sink.Close() // no Finalize: the process died
	data := readFile(t, killed)
	if err := os.WriteFile(killed, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err) // torn trailing record
	}

	// Resume over the full job list.
	st := finalizedRun(t, cfg, killed, true)
	if st.SinkSkipped != 4 { // 5 journaled - 1 torn
		t.Errorf("resume skipped %d jobs, want 4", st.SinkSkipped)
	}
	if st.Executed != len(scripts)-4 {
		t.Errorf("resume executed %d jobs, want %d", st.Executed, len(scripts)-4)
	}
	if got := readFile(t, killed); string(got) != string(want) {
		t.Errorf("resumed run's final JSONL differs from uninterrupted run")
	}
}

// TestResumeAfterScriptEdit pins the stale-record defence: a record for
// an edited (or removed) script must not survive a resumed run — by name
// it describes the same test, so keeping both the old and new verdict
// would corrupt summaries and exit codes.
func TestResumeAfterScriptEdit(t *testing.T) {
	scripts := testScripts(t, 6)
	dir := t.TempDir()
	cfg := testConfig(scripts)

	sinkPath := filepath.Join(dir, "run.jsonl")
	finalizedRun(t, cfg, sinkPath, false)

	// Edit one script, then resume into the same sink.
	edited := append([]*trace.Script(nil), scripts...)
	mod, err := trace.ParseScript("@type script\n# Test pipe___job_02\nmkdir \"d2\" 0o700\n")
	if err != nil {
		t.Fatal(err)
	}
	edited[2] = mod
	ecfg := cfg
	ecfg.Scripts = edited
	st := finalizedRun(t, ecfg, sinkPath, true)
	if st.Executed != 1 || st.SinkSkipped != 5 {
		t.Errorf("resume after edit: executed %d, resumed %d, want 1/5", st.Executed, st.SinkSkipped)
	}

	// The sink must equal a fresh run of the edited suite: same count, no
	// stale record for the old pipe___job_02.
	freshPath := filepath.Join(dir, "fresh.jsonl")
	finalizedRun(t, ecfg, freshPath, false)
	if got, want := string(readFile(t, sinkPath)), string(readFile(t, freshPath)); got != want {
		t.Errorf("resumed-after-edit sink differs from a fresh run of the edited suite")
	}
}

func TestSummariseMatchesRecords(t *testing.T) {
	// A deviating implementation: the spec for the wrong platform.
	scripts := testScripts(t, 6)
	cfg := testConfig(scripts)
	records, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarise("pipe-test", records, nil)
	if sum.Total != len(scripts) {
		t.Fatalf("summary total %d, want %d", sum.Total, len(scripts))
	}
	if sum.Accepted != len(scripts) || sum.Rejected != 0 {
		t.Fatalf("conforming memfs rejected: %+v", sum)
	}
	// Round-trip through JSONL and re-summarise: identical text.
	path := filepath.Join(t.TempDir(), "r.jsonl")
	if err := WriteRecords(path, records); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := Summarise("pipe-test", loaded, nil).String(); got != sum.String() {
		t.Errorf("summary from JSONL differs:\n%s\nvs\n%s", got, sum.String())
	}
}

func TestRecordResultRoundTrip(t *testing.T) {
	scripts := testScripts(t, 1)
	cfg := testConfig(scripts)
	cfg.Spec = types.Spec{Platform: types.PlatformPOSIX, Permissions: true, RootUser: true}
	records, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := records[0]
	r := rec.Result()
	if r.Name != rec.Name || r.Accepted != rec.Accepted || r.Steps != rec.Steps ||
		r.MaxStates != rec.MaxStates || r.TauExpansions != rec.TauExpansions ||
		r.SumStates != rec.SumStates || r.StateSetCapHit != rec.CapHit ||
		len(r.Errors) != len(rec.Errors) {
		t.Errorf("Result() round-trip mismatch: %+v vs %+v", r, rec)
	}
}

// TestRunWorkersAgree pins that the worker count changes nothing a run
// produces: keys (each equal to the serial Key of its script), records
// and finalized bytes are the same for 1, 2 and 8 workers, on a 3-shard
// layout resuming one sink that starts with a stale record. The stale
// record is pruned by Restrict after the parallel key pass. The suite
// spans several key-pass batches, the last one partial.
func TestRunWorkersAgree(t *testing.T) {
	scripts := testScripts(t, 2*keyBatch+44)
	dir := t.TempDir()

	// A journal holding one record of an edited pipe___job_00.
	stale := filepath.Join(dir, "stale.jsonl")
	edited, err := trace.ParseScript("@type script\n# Test pipe___job_00\nmkdir \"d0\" 0o700\n")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := OpenSink(stale, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := testConfig([]*trace.Script{edited})
	ecfg.Sink = sink
	if _, _, err := Run(context.Background(), ecfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	staleJournal := readFile(t, stale)

	fresh := filepath.Join(dir, "fresh.jsonl")
	finalizedRun(t, testConfig(scripts), fresh, false)
	want := readFile(t, fresh)

	specHash := SpecHash(osspec.ModelVersion, types.DefaultSpec())
	configHash := ConfigHash("ext4", false, 0, checker.New(types.DefaultSpec()).MaxStateSet)
	var wantRecords [][]Record
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig(scripts)
		cfg.Workers = workers
		path := filepath.Join(dir, fmt.Sprintf("w%d.jsonl", workers))
		if err := os.WriteFile(path, staleJournal, 0o644); err != nil {
			t.Fatal(err)
		}
		var records [][]Record
		for k := 0; k < 3; k++ {
			sink, err := OpenSink(path, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			scfg := cfg
			scfg.Shards, scfg.Shard, scfg.Sink = 3, k, sink
			recs, st, err := Run(context.Background(), scfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.SinkSkipped != 0 || st.Executed != st.Jobs {
				t.Fatalf("workers %d, shard %d: %s, want every job executed", workers, k, st)
			}
			for j, rec := range recs {
				if want := Key(ScriptHash(scripts[3*j+k]), specHash, configHash); rec.Key != want {
					t.Fatalf("workers %d, shard %d: job %d key %s, want %s", workers, k, j, rec.Key, want)
				}
			}
			records = append(records, recs)
			if k < 2 {
				err = sink.Close()
			} else {
				_, err = sink.Finalize()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if wantRecords == nil {
			wantRecords = records
		} else if !reflect.DeepEqual(records, wantRecords) {
			t.Fatalf("workers %d: records differ from 1 worker's", workers)
		}
		if got := readFile(t, path); string(got) != string(want) {
			t.Fatalf("workers %d: finalized sink differs from a fresh unsharded run (stale record kept?)", workers)
		}
	}
}

// TestRunJobErrorStopsDispatch pins that a failing job stops dispatch:
// the jobs already in flight finish, and no later job starts. The first
// factory call fails, and every other job is held in its factory until
// Run has marked the run failed (jobFailedHook), so at most one job per
// worker can have started.
func TestRunJobErrorStopsDispatch(t *testing.T) {
	scripts := testScripts(t, 64)
	boom := errors.New("factory failed")
	defer func() { jobFailedHook = nil }()
	for _, workers := range []int{1, 2, 8} {
		var calls atomic.Int32
		release := make(chan struct{})
		jobFailedHook = func() { close(release) }
		mem := fsimpl.MemFactory(fsimpl.LinuxProfile("ext4"))
		cfg := testConfig(scripts)
		cfg.Workers = workers
		cfg.Factory = func() (fsimpl.FS, error) {
			if calls.Add(1) == 1 {
				return nil, boom
			}
			<-release
			return mem()
		}
		_, _, err := Run(context.Background(), cfg)
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: err = %v, want the factory's", workers, err)
		}
		if got := int(calls.Load()); got > workers {
			t.Errorf("workers %d: %d jobs started, want at most one per worker", workers, got)
		}
	}
}
