package pipeline

// Cancellation contract of the pipeline: a cancelled run reports
// context.Canceled (wrapped, errors.Is-visible), writes no JSONL, keeps
// every completed record in the store, and a rerun on the store hits
// each of them and writes a file byte-identical to an uninterrupted
// run's.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fsimpl"
	"repro/internal/types"
)

func TestRunCancelledKeepsResumableSink(t *testing.T) {
	scripts := testScripts(t, 24)
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.jsonl")
	killed := filepath.Join(dir, "killed.jsonl")
	store, err := OpenCache(filepath.Join(dir, "cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	base := Config{
		Name:    "ctx",
		Scripts: scripts,
		Factory: fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    types.DefaultSpec(),
		Workers: 2,
	}

	// Baseline, without a store.
	if _, _, err := RunJSONL(context.Background(), base, clean); err != nil {
		t.Fatal(err)
	}

	// Cancel after the third record lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var n int
	cfg := base
	cfg.Store = store
	cfg.Observe = func(Record) {
		mu.Lock()
		n++
		if n == 3 {
			cancel()
		}
		mu.Unlock()
	}
	_, cancelled, err := RunJSONL(ctx, cfg, killed)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(killed); !os.IsNotExist(err) {
		t.Fatalf("the cancelled run wrote its JSONL file: %v", err)
	}
	if cancelled.Executed < 3 || cancelled.Executed >= len(scripts) {
		t.Fatalf("cancelled run completed %d jobs, want a strict partial ≥ 3 of %d", cancelled.Executed, len(scripts))
	}

	// Rerun on the same store to completion.
	cfg = base
	cfg.Store = store
	_, st, err := RunJSONL(context.Background(), cfg, killed)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != cancelled.Executed || st.Executed != len(scripts)-cancelled.Executed {
		t.Fatalf("rerun %s, want the %d jobs the cancelled run completed as hits", st, cancelled.Executed)
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
		t.Fatal("the rerun's JSONL differs from the uninterrupted run's")
	}
}
