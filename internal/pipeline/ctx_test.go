package pipeline

// Cancellation contract of the pipeline: a cancelled run reports
// context.Canceled (wrapped, errors.Is-visible), keeps every completed
// record in the sink journal, and a resumed run completes the suite with
// a finalized file byte-identical to an uninterrupted run's.

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
	base := Config{
		Name:    "ctx",
		Scripts: scripts,
		Factory: fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    types.DefaultSpec(),
		Workers: 2,
	}

	// Baseline.
	cfg := base
	sink, err := OpenSink(clean, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	if _, _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Finalize(); err != nil {
		t.Fatal(err)
	}

	// Cancel after the third record lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var n int
	cfg = base
	cfg.Observe = func(Record) {
		mu.Lock()
		n++
		if n == 3 {
			cancel()
		}
		mu.Unlock()
	}
	if sink, err = OpenSink(killed, false, nil); err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	_, _, err = Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sink.Close()

	// Resume to completion and finalize.
	if sink, err = OpenSink(killed, true, nil); err != nil {
		t.Fatal(err)
	}
	journaled := sink.Len()
	if journaled < 3 || journaled >= len(scripts) {
		t.Fatalf("journal holds %d records, want a strict partial ≥ 3 of %d", journaled, len(scripts))
	}
	cfg = base
	cfg.Sink = sink
	_, st, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.SinkSkipped != journaled {
		t.Fatalf("resume skipped %d, want %d", st.SinkSkipped, journaled)
	}
	if _, err := sink.Finalize(); err != nil {
		t.Fatal(err)
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
		t.Fatal("resumed journal differs from the uninterrupted run's")
	}
}
