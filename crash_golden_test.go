package sibylfs

// Crash-universe golden fixtures: the crash___ suite on the crash-profiled
// memfs must check byte-identically run over run — per-trace crash-point
// counts, state-set sizes, and one SHA-256 over every rendered checked
// trace are pinned in testdata/crash_golden.json. TestCrashGoldenParity
// additionally proves the pipeline reproduces those bytes from a warm
// cache with zero re-executions, and with the suite-level transition memo
// on and off.
//
// Regenerate with:
//
//	SFS_WRITE_CRASH_GOLDEN=1 go test -run TestCrashGolden .
//
// after convincing yourself a diff is an intended semantic change to the
// persistence model (it keys the cache via SpecHash, so stale caches
// cannot mask it).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
)

// crashTraceStats is the per-trace observable record for one crash script.
type crashTraceStats struct {
	Name        string `json:"name"`
	Accepted    bool   `json:"accepted"`
	CrashPoints int    `json:"crash_points"`
	Steps       int    `json:"steps"`
	MaxStates   int    `json:"max_states"`
	SumStates   int    `json:"sum_states"`
}

type crashGoldenFile struct {
	CheckedSHA       string            `json:"checked_sha256"`
	CrashPointsTotal int               `json:"crash_points_total"`
	PeakStates       int               `json:"peak_states"`
	Traces           []crashTraceStats `json:"traces"`
}

func crashGoldenSpec() Spec {
	sp := DefaultSpec()
	sp.Crash = true
	return sp
}

func crashGoldenFactory() Factory {
	p := LinuxProfile("ext4")
	p.Crash = true
	return MemFS(p)
}

func TestCrashGolden(t *testing.T) {
	ctx := context.Background()
	session := New(WithSpec(crashGoldenSpec()), WithCoverage(NewCoverageRegistry()))
	traces, err := session.Execute(ctx, generate(t, (*Session).GenerateCrash), crashGoldenFactory())
	if err != nil {
		t.Fatal(err)
	}
	results, err := session.Check(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	got := &crashGoldenFile{}
	h := sha256.New()
	for i, r := range results {
		h.Write([]byte(RenderChecked(traces[i], r)))
		got.Traces = append(got.Traces, crashTraceStats{
			Name:        traces[i].Name,
			Accepted:    r.Accepted,
			CrashPoints: r.CrashPoints,
			Steps:       r.Steps,
			MaxStates:   r.MaxStates,
			SumStates:   r.SumStates,
		})
		got.CrashPointsTotal += r.CrashPoints
		if r.MaxStates > got.PeakStates {
			got.PeakStates = r.MaxStates
		}
		if !r.Accepted {
			t.Errorf("crash script %s rejected by the oracle:\n%s",
				traces[i].Name, RenderChecked(traces[i], r))
		}
	}
	got.CheckedSHA = hex.EncodeToString(h.Sum(nil))
	if got.CrashPointsTotal == 0 {
		t.Fatal("crash universe hit no crash points")
	}
	assertCoverage(t, "crash universe", session, crashCoverage)

	path := filepath.Join("testdata", "crash_golden.json")
	if os.Getenv("SFS_WRITE_CRASH_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing crash golden fixture (regenerate with SFS_WRITE_CRASH_GOLDEN=1): %v", err)
	}
	var want crashGoldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.CheckedSHA != want.CheckedSHA {
		t.Errorf("checked-trace digest %s, want %s (crash diagnoses changed)", got.CheckedSHA, want.CheckedSHA)
	}
	if got.CrashPointsTotal != want.CrashPointsTotal || got.PeakStates != want.PeakStates {
		t.Errorf("crash points/peak = %d/%d, want %d/%d",
			got.CrashPointsTotal, got.PeakStates, want.CrashPointsTotal, want.PeakStates)
	}
	if len(got.Traces) != len(want.Traces) {
		t.Fatalf("%d traces, want %d", len(got.Traces), len(want.Traces))
	}
	for i := range got.Traces {
		if got.Traces[i] != want.Traces[i] {
			t.Errorf("trace %s: %+v, want %+v", got.Traces[i].Name, got.Traces[i], want.Traces[i])
		}
	}
}

// runCrashPipeline runs the crash universe through the cache-backed
// pipeline and returns the digest over the records' checked-trace bytes,
// the run stats and the checker.crash_states counter of the checks it ran.
func runCrashPipeline(t *testing.T, cacheDir string, noMemo bool) (string, PipelineStats, int64) {
	t.Helper()
	tel := NewTelemetryRegistry()
	cfg := pipeline.Config{
		Name:         "crash golden",
		Scripts:      generate(t, (*Session).GenerateCrash),
		Factory:      crashGoldenFactory(),
		FSName:       "ext4-crash",
		Spec:         crashGoldenSpec(),
		NoSharedCons: noMemo,
		Tel:          tel,
	}
	if cacheDir != "" {
		store, err := pipeline.OpenCache(cacheDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		cfg.Store = store
	}
	records, stats, err := pipeline.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, rec := range records {
		h.Write([]byte(rec.Checked))
		if !rec.Accepted {
			t.Errorf("pipeline rejected crash script %s", rec.Name)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), stats, tel.Counter("checker.crash_states").Value()
}

// TestCrashGoldenParity pins byte-reproduction across execution
// strategies: cold vs warm cache (the warm run re-executes nothing) and
// transition memo on vs off all produce identical checked-trace bytes,
// and the memo leaves the count of remounted crash states as it is.
func TestCrashGoldenParity(t *testing.T) {
	dir := t.TempDir()
	coldSHA, coldStats, coldCrashStates := runCrashPipeline(t, dir, false)
	if n := len(generate(t, (*Session).GenerateCrash)); coldStats.Executed != n {
		t.Fatalf("cold run executed %d of %d scripts", coldStats.Executed, n)
	}
	warmSHA, warmStats, _ := runCrashPipeline(t, dir, false)
	if warmStats.Executed != 0 {
		t.Fatalf("warm run re-executed %d scripts, want 0", warmStats.Executed)
	}
	if warmStats.CacheHits != coldStats.Jobs {
		t.Fatalf("warm run: %d cache hits, want %d", warmStats.CacheHits, coldStats.Jobs)
	}
	if warmSHA != coldSHA {
		t.Fatal("warm cache replayed different checked-trace bytes")
	}
	noMemoSHA, _, noMemoCrashStates := runCrashPipeline(t, "", true)
	if noMemoSHA != coldSHA {
		t.Fatal("transition memo changed checked-trace bytes")
	}
	if coldCrashStates == 0 || coldCrashStates != noMemoCrashStates {
		t.Fatalf("checker.crash_states %d with the memo, %d without; want equal and nonzero",
			coldCrashStates, noMemoCrashStates)
	}
	// And the fixture digest must agree with the direct-check digest path
	// (TestCrashGolden): same renderer, same bytes.
	if data, err := os.ReadFile(filepath.Join("testdata", "crash_golden.json")); err == nil {
		var want crashGoldenFile
		if err := json.Unmarshal(data, &want); err == nil && want.CheckedSHA != coldSHA {
			t.Errorf("pipeline digest %s disagrees with fixture %s", coldSHA, want.CheckedSHA)
		}
	}
}
