package sibylfs

// Oracle-parity golden fixtures: the refactored state engine (hash-consed
// copy-on-write states, parallel τ-closure) must be observationally
// identical to the naive deep-copy engine it replaced. This test pins every
// checker observable — acceptance, diagnoses (via a digest of the rendered
// checked traces), Steps, MaxStates, TauExpansions and SumStates — for the
// concurrent universe (seeded scheduler, seed 1) and a deterministic slice
// of the sequential suite, against fixtures recorded with the old engine.
//
// Regenerate with:
//
//	SFS_WRITE_ORACLE_GOLDEN=1 go test -run TestOracleGolden .
//
// but only after convincing yourself the behaviour change is intended: a
// diff here means the oracle's verdict or its state-set trajectory moved.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// traceStats is the per-trace observable record.
type traceStats struct {
	Name          string `json:"name"`
	Accepted      bool   `json:"accepted"`
	Errors        int    `json:"errors"`
	Steps         int    `json:"steps"`
	MaxStates     int    `json:"max_states"`
	TauExpansions int    `json:"tau_expansions"`
	SumStates     int    `json:"sum_states"`
}

// goldenFile is the fixture layout: per-trace stats plus one digest over
// every rendered checked trace (byte-identical diagnoses).
type goldenFile struct {
	Config         string       `json:"config"`
	CheckedSHA     string       `json:"checked_sha256"`
	PeakStates     int          `json:"peak_states"`
	TauTotal       int          `json:"tau_expansions_total"`
	SumStatesTotal int          `json:"sum_states_total"`
	StepsTotal     int          `json:"steps_total"`
	Traces         []traceStats `json:"traces,omitempty"`
	RejectedOnly   []string     `json:"rejected,omitempty"`
}

func collectGolden(t *testing.T, config string, traces []*Trace, perTrace bool) *goldenFile {
	t.Helper()
	results, err := New().Check(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	g := &goldenFile{Config: config}
	h := sha256.New()
	for i, r := range results {
		h.Write([]byte(RenderChecked(traces[i], r)))
		if perTrace {
			g.Traces = append(g.Traces, traceStats{
				Name:          traces[i].Name,
				Accepted:      r.Accepted,
				Errors:        len(r.Errors),
				Steps:         r.Steps,
				MaxStates:     r.MaxStates,
				TauExpansions: r.TauExpansions,
				SumStates:     r.SumStates,
			})
		}
		if r.MaxStates > g.PeakStates {
			g.PeakStates = r.MaxStates
		}
		g.TauTotal += r.TauExpansions
		g.SumStatesTotal += r.SumStates
		g.StepsTotal += r.Steps
		if !r.Accepted {
			g.RejectedOnly = append(g.RejectedOnly, traces[i].Name)
		}
	}
	g.CheckedSHA = hex.EncodeToString(h.Sum(nil))
	return g
}

// goldenTraces builds the two deterministic workloads: the full concurrent
// universe under the seeded scheduler, and every 7th sequential script (a
// stable ~15% slice keeping the short-mode runtime reasonable while
// covering all command groups).
func goldenTraces(t *testing.T) (conc, seq []*Trace) {
	t.Helper()
	ctx := context.Background()
	session := New()
	concScripts := generate(t, (*Session).GenerateConcurrent)
	conc, err := session.ExecuteConcurrent(ctx, concScripts, MemFS(LinuxProfile("ext4")),
		ConcurrentOptions{Seeded: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	suite := generate(t, (*Session).Generate)
	var sel []*Script
	for i := 0; i < len(suite); i += 7 {
		sel = append(sel, suite[i])
	}
	seq, err = session.Execute(ctx, sel, MemFS(LinuxProfile("ext4")))
	if err != nil {
		t.Fatal(err)
	}
	return conc, seq
}

func TestOracleGolden(t *testing.T) {
	conc, seq := goldenTraces(t)
	got := map[string]*goldenFile{
		"conc_seed1": collectGolden(t, "conc_seed1", conc, true),
		"seq_slice7": collectGolden(t, "seq_slice7", seq, true),
	}
	if !testing.Short() {
		// The full sequential suite: aggregates and the diagnosis digest
		// only (the per-trace list would dwarf the repo).
		full, err := New().Execute(context.Background(), generate(t, (*Session).Generate), MemFS(LinuxProfile("ext4")))
		if err != nil {
			t.Fatal(err)
		}
		got["seq_full"] = collectGolden(t, "seq_full", full, false)
	}
	path := filepath.Join("testdata", "oracle_golden.json")
	if os.Getenv("SFS_WRITE_ORACLE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
		t.Fatalf("missing golden fixtures (regenerate with SFS_WRITE_ORACLE_GOLDEN=1): %v", err)
	}
	var want map[string]*goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for cfg, g := range got {
		w, ok := want[cfg]
		if !ok {
			t.Errorf("%s: no golden record", cfg)
			continue
		}
		if g.CheckedSHA != w.CheckedSHA {
			t.Errorf("%s: checked-trace digest %s, want %s (diagnoses changed)",
				cfg, g.CheckedSHA, w.CheckedSHA)
		}
		if g.PeakStates != w.PeakStates || g.TauTotal != w.TauTotal ||
			g.SumStatesTotal != w.SumStatesTotal || g.StepsTotal != w.StepsTotal {
			t.Errorf("%s: peak/τ/sum/steps = %d/%d/%d/%d, want %d/%d/%d/%d",
				cfg, g.PeakStates, g.TauTotal, g.SumStatesTotal, g.StepsTotal,
				w.PeakStates, w.TauTotal, w.SumStatesTotal, w.StepsTotal)
		}
		if len(g.Traces) != len(w.Traces) {
			t.Errorf("%s: %d traces, want %d", cfg, len(g.Traces), len(w.Traces))
			continue
		}
		for i := range g.Traces {
			if g.Traces[i] != w.Traces[i] {
				t.Errorf("%s: trace %s: %+v, want %+v",
					cfg, g.Traces[i].Name, g.Traces[i], w.Traces[i])
			}
		}
	}
}
