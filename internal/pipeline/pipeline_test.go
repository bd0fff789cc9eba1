package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/checker"
	"repro/internal/fsimpl"
	"repro/internal/osspec"
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

// finalizedRun runs cfg with its JSONL file at path.
func finalizedRun(t *testing.T, cfg Config, path string) Stats {
	t.Helper()
	_, st, err := RunJSONL(context.Background(), cfg, path)
	if err != nil {
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

// TestShardInvariance: shards of a 3- and a 5-shard layout, each written
// to a file of its own and merged, give the unsharded run's bytes.
func TestShardInvariance(t *testing.T) {
	scripts := testScripts(t, 10)
	dir := t.TempDir()
	cfg := testConfig(scripts)

	// Reference: one unsharded run.
	whole := filepath.Join(dir, "whole.jsonl")
	finalizedRun(t, cfg, whole)
	want := readFile(t, whole)

	for _, shards := range []int{3, 5} {
		var parts []string
		for k := 0; k < shards; k++ {
			part := filepath.Join(dir, fmt.Sprintf("shard%d-%d.jsonl", shards, k))
			scfg := cfg
			scfg.Shards, scfg.Shard = shards, k
			if st := finalizedRun(t, scfg, part); st.Jobs == 0 {
				t.Fatalf("shard %d of %d got no jobs", k, shards)
			}
			parts = append(parts, part)
		}
		merged := filepath.Join(dir, fmt.Sprintf("merged%d.jsonl", shards))
		if err := MergeRecords(merged, parts...); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, merged); string(got) != string(want) {
			t.Errorf("merged %d-shard output differs from unsharded run", shards)
		}
	}
}

// TestResumeAfterKill: a run killed after its k-th job, for every k, left
// the records of jobs 1..k in the store's active segment and no sidecar;
// a rerun on the store hits them, executes the rest and writes the
// uninterrupted run's bytes. The same holds when the kill also cut the
// segment inside its last entry: that job is a miss and runs again.
func TestResumeAfterKill(t *testing.T) {
	scripts := testScripts(t, 9)
	cfg := testConfig(scripts)
	whole := filepath.Join(t.TempDir(), "whole.jsonl")
	finalizedRun(t, cfg, whole)
	want := readFile(t, whole)

	for k := 0; k <= len(scripts); k++ {
		for _, cut := range []bool{false, true} {
			if cut && k == 0 {
				continue
			}
			dir := t.TempDir()
			store, err := OpenPackStore(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			part := cfg
			part.Scripts, part.Store = scripts[:k], store
			if _, _, err := Run(context.Background(), part); err != nil {
				t.Fatal(err)
			}
			abandon(store) // killed: no Close, so no sidecar
			hits := k
			if cut {
				seg := filepath.Join(dir, "000001.seg")
				info, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(seg, info.Size()-17); err != nil {
					t.Fatal(err)
				}
				hits--
			}

			if store, err = OpenPackStore(dir, nil); err != nil {
				t.Fatal(err)
			}
			rerun := cfg
			rerun.Store = store
			path := filepath.Join(dir, "rerun.jsonl")
			st := finalizedRun(t, rerun, path)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			if st.CacheHits != hits || st.Executed != len(scripts)-hits {
				t.Errorf("kill after job %d (cut %v): rerun %s, want %d hits", k, cut, st, hits)
			}
			if got := readFile(t, path); string(got) != string(want) {
				t.Errorf("kill after job %d (cut %v): rerun's JSONL differs from the uninterrupted run's", k, cut)
			}
		}
	}
}

// TestResumeAfterScriptEdit: after a script is edited, a rerun on the
// store misses on it alone, and its file equals a fresh run of the
// edited suite: no record of the old script survives.
func TestResumeAfterScriptEdit(t *testing.T) {
	scripts := testScripts(t, 6)
	dir := t.TempDir()
	store, err := OpenCache(filepath.Join(dir, "cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := testConfig(scripts)
	cfg.Store = store
	sinkPath := filepath.Join(dir, "run.jsonl")
	finalizedRun(t, cfg, sinkPath)

	edited := append([]*trace.Script(nil), scripts...)
	mod, err := trace.ParseScript("@type script\n# Test pipe___job_02\nmkdir \"d2\" 0o700\n")
	if err != nil {
		t.Fatal(err)
	}
	edited[2] = mod
	ecfg := cfg
	ecfg.Scripts = edited
	st := finalizedRun(t, ecfg, sinkPath)
	if st.Executed != 1 || st.CacheHits != 5 {
		t.Errorf("rerun after edit: executed %d, hits %d, want 1/5", st.Executed, st.CacheHits)
	}

	freshPath := filepath.Join(dir, "fresh.jsonl")
	ecfg.Store = nil
	finalizedRun(t, ecfg, freshPath)
	if got, want := string(readFile(t, sinkPath)), string(readFile(t, freshPath)); got != want {
		t.Errorf("rerun-after-edit file differs from a fresh run of the edited suite")
	}
}

// TestRunJSONLFailureWritesNothing: a cancelled run and a run whose job
// fails write nothing, and leave a file already at the path as it was.
func TestRunJSONLFailureWritesNothing(t *testing.T) {
	scripts := testScripts(t, 8)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if _, _, err := RunJSONL(context.Background(), testConfig(scripts), path); err != nil {
		t.Fatal(err)
	}
	before := readFile(t, path)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RunJSONL(ctx, testConfig(scripts[:3]), path); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err %v, want context.Canceled", err)
	}
	boom := errors.New("factory failed")
	failing := testConfig(scripts[:3])
	failing.Factory = func() (fsimpl.FS, error) { return nil, boom }
	if _, _, err := RunJSONL(context.Background(), failing, path); !errors.Is(err, boom) {
		t.Fatalf("failing run: err %v, want the factory's", err)
	}
	if got := readFile(t, path); string(got) != string(before) {
		t.Fatal("a failed run changed the file at its path")
	}
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	if _, _, err := RunJSONL(ctx, testConfig(scripts), missing); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("a cancelled run created its file: %v", err)
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
// produces: keys (each equal to the serial Key of its script) and
// records are the same for 1, 2 and 8 workers on a 3-shard layout, and
// the shards' records, merged, equal a fresh unsharded run's file. The suite spans several key-pass batches, the last one
// partial.
func TestRunWorkersAgree(t *testing.T) {
	scripts := testScripts(t, 2*keyBatch+44)
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.jsonl")
	finalizedRun(t, testConfig(scripts), fresh)
	want := readFile(t, fresh)

	specHash := SpecHash(osspec.ModelVersion, types.DefaultSpec())
	configHash := ConfigHash("ext4", false, 0, checker.New(types.DefaultSpec()).MaxStateSet)
	var wantRecords [][]Record
	for _, workers := range []int{1, 2, 8} {
		cfg := testConfig(scripts)
		cfg.Workers = workers
		var records [][]Record
		var parts []string
		for k := 0; k < 3; k++ {
			scfg := cfg
			scfg.Shards, scfg.Shard = 3, k
			recs, st, err := Run(context.Background(), scfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Executed != st.Jobs {
				t.Fatalf("workers %d, shard %d: %s, want every job executed", workers, k, st)
			}
			for j, rec := range recs {
				if want := Key(ScriptHash(scripts[3*j+k]), specHash, configHash); rec.Key != want {
					t.Fatalf("workers %d, shard %d: job %d key %s, want %s", workers, k, j, rec.Key, want)
				}
			}
			records = append(records, recs)
			part := filepath.Join(dir, fmt.Sprintf("w%d-%d.jsonl", workers, k))
			if err := WriteRecords(part, recs); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
		}
		if wantRecords == nil {
			wantRecords = records
		} else if !reflect.DeepEqual(records, wantRecords) {
			t.Fatalf("workers %d: records differ from 1 worker's", workers)
		}
		merged := filepath.Join(dir, fmt.Sprintf("w%d.jsonl", workers))
		if err := MergeRecords(merged, parts...); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, merged); string(got) != string(want) {
			t.Fatalf("workers %d: merged shards differ from a fresh unsharded run", workers)
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
