package sibylfs

// The concurrent-execution experiments: the oracle must absorb genuine
// call interleaving from multiple processes (§3's concurrency claim),
// and the conforming in-memory Linux implementation must stay inside the
// model's envelope under every schedule.

import (
	"context"
	"fmt"
	"testing"
)

// TestConcurrentSuiteConforms drives the concurrent universe through the
// seeded scheduler against conforming Linux memfs: every trace must be
// accepted, and at least one must push the tracked state set to ≥ 4 —
// the τ-closure doing real work (§7.1's MaxStates metric).
func TestConcurrentSuiteConforms(t *testing.T) {
	ctx := context.Background()
	scripts := generate(t, (*Session).GenerateConcurrent)
	if len(scripts) < 10 {
		t.Fatalf("concurrent universe has only %d scripts", len(scripts))
	}
	peak := 0
	var totalTau int
	for _, seed := range []int64{1, 2} {
		session := New(WithCoverage(NewCoverageRegistry()))
		traces, err := session.ExecuteConcurrent(ctx, scripts, MemFS(LinuxProfile("ext4")),
			ConcurrentOptions{Seeded: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		results, err := session.Check(ctx, traces)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if !r.Accepted {
				t.Errorf("seed %d: %s rejected:\n%s", seed, r.Name, RenderChecked(traces[i], r))
				continue
			}
			if r.MaxStates > peak {
				peak = r.MaxStates
			}
			totalTau += r.TauExpansions
		}
		assertCoverage(t, fmt.Sprintf("seed %d", seed), session, concurrentCoverage[seed])
	}
	if peak < 4 {
		t.Errorf("peak MaxStates = %d, want ≥ 4: concurrency never stressed the oracle", peak)
	}
	if totalTau == 0 {
		t.Error("no τ-expansions recorded on concurrent traces")
	}
	t.Logf("concurrent universe: %d scripts, peak MaxStates %d, %d τ-expansions", len(scripts), peak, totalTau)
}

// TestConcurrentFreeRunningConforms runs a slice of the universe with
// free-running goroutines (the schedule the Go runtime happens to pick —
// under -race this doubles as the executor/memfs race test) and checks
// every observed interleaving is in the envelope.
func TestConcurrentFreeRunningConforms(t *testing.T) {
	ctx := context.Background()
	session := New()
	scripts := generate(t, (*Session).GenerateConcurrent)
	traces, err := session.ExecuteConcurrent(ctx, scripts, MemFS(LinuxProfile("ext4")), ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := session.Check(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Accepted {
			t.Errorf("%s rejected:\n%s", r.Name, RenderChecked(traces[i], r))
		}
	}
}

// TestConcurrentSequentialFallback: the same scripts are valid sequential
// multi-process scripts; the ordinary executor and checker must agree.
func TestConcurrentSequentialFallback(t *testing.T) {
	scripts := generate(t, (*Session).GenerateConcurrent)
	_, results := executeAndCheck(t, scripts, MemFS(LinuxProfile("ext4")), 0)
	for _, r := range results {
		if !r.Accepted {
			t.Errorf("%s rejected under sequential execution", r.Name)
		}
	}
}
