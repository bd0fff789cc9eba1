package sibylfs

// Pipeline-parity fixtures: the sharded, cache-backed pipeline (driven
// through pipeline.Run, so the worker counts Session does not expose are
// reachable) must produce verdicts byte-identical to the direct
// Execute+Check flow that
// recorded testdata/oracle_golden.json. The per-record Checked text is
// digested in suite order and compared against the same golden SHA the
// monolithic oracle-parity test pins, for both the sequential slice and
// the seeded concurrent universe — so a pipeline cold run, a warm
// cache-hit run and bare sfs-check can never disagree.

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

func pipelineGolden(t *testing.T, name string, cfg pipeline.Config) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "oracle_golden.json"))
	if err != nil {
		t.Fatalf("missing golden fixtures: %v", err)
	}
	var want map[string]*goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	w, ok := want[name]
	if !ok {
		t.Fatalf("no golden record %q", name)
	}

	records, stats, err := pipeline.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(cfg.Scripts) {
		t.Fatalf("expected a cold run: %s", stats)
	}
	h := sha256.New()
	g := &goldenFile{}
	for _, rec := range records {
		h.Write([]byte(rec.Checked))
		if rec.MaxStates > g.PeakStates {
			g.PeakStates = rec.MaxStates
		}
		g.TauTotal += rec.TauExpansions
		g.SumStatesTotal += rec.SumStates
		g.StepsTotal += rec.Steps
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != w.CheckedSHA {
		t.Errorf("%s: pipeline checked-trace digest %s, want %s", name, got, w.CheckedSHA)
	}
	if g.PeakStates != w.PeakStates || g.TauTotal != w.TauTotal ||
		g.SumStatesTotal != w.SumStatesTotal || g.StepsTotal != w.StepsTotal {
		t.Errorf("%s: peak/τ/sum/steps = %d/%d/%d/%d, want %d/%d/%d/%d",
			name, g.PeakStates, g.TauTotal, g.SumStatesTotal, g.StepsTotal,
			w.PeakStates, w.TauTotal, w.SumStatesTotal, w.StepsTotal)
	}
}

// seqSlice7 is the sequential slice the seq_slice7 golden record pins:
// every seventh script of the generated suite.
func seqSlice7(t *testing.T) []*Script {
	t.Helper()
	suite := generate(t, (*Session).Generate)
	var sel []*Script
	for i := 0; i < len(suite); i += 7 {
		sel = append(sel, suite[i])
	}
	return sel
}

func TestPipelineGoldenParity(t *testing.T) {
	pipelineGolden(t, "seq_slice7", pipeline.Config{
		Name:    "seq_slice7",
		Scripts: seqSlice7(t),
		Factory: MemFS(LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    DefaultSpec(),
	})
}

// TestPipelineGoldenParityWorkers re-runs the sequential slice on one
// worker and on three. Each check resumes from the walk of its worker's
// previous trace, and the two runs give most traces different
// predecessors, so the checked-trace digest AND the oracle work metrics
// (peak/τ/sum/steps) must match the same golden record in both. A
// divergence here means a check resumed from a walk that was not its
// own.
func TestPipelineGoldenParityWorkers(t *testing.T) {
	sel := seqSlice7(t)
	for _, workers := range []int{1, 3} {
		pipelineGolden(t, "seq_slice7", pipeline.Config{
			Name:    "seq_slice7",
			Scripts: sel,
			Factory: MemFS(LinuxProfile("ext4")),
			FSName:  "ext4",
			Spec:    DefaultSpec(),
			Workers: workers,
		})
	}
}

func TestPipelineGoldenParityConcurrent(t *testing.T) {
	scripts := generate(t, (*Session).GenerateConcurrent)
	pipelineGolden(t, "conc_seed1", pipeline.Config{
		Name:       "conc_seed1",
		Scripts:    scripts,
		Factory:    MemFS(LinuxProfile("ext4")),
		FSName:     "ext4",
		Spec:       DefaultSpec(),
		Concurrent: true,
		SchedSeed:  1,
	})
}
