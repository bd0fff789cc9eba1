package sibylfs

// Session-level telemetry contracts: per-session registries never bleed
// into each other, and instrumentation never alters checked-trace output
// — the finalized JSONL of an instrumented run is byte-identical to an
// uninstrumented one, and the golden parity digest holds with a private
// registry installed.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

// TestConcurrentSessionTelemetryIsolation runs two sessions with private
// telemetry registries concurrently over different-sized suites and
// proves each registry holds exactly its own session's figures.
func TestConcurrentSessionTelemetryIsolation(t *testing.T) {
	suite := generate(t, (*Session).Generate)
	scriptsA, scriptsB := suite[:6], suite[6:16]

	run := func(reg *TelemetryRegistry, scripts []*Script, name string) error {
		s := New(WithSpec(DefaultSpec()), WithWorkers(2), WithTelemetry(reg))
		_, _, err := s.Run(context.Background(), RunJob{
			Name:    name,
			Scripts: scripts,
			Factory: MemFS(LinuxProfile("ext4")),
			FSName:  "ext4",
		})
		return err
	}

	regA, regB := NewTelemetryRegistry(), NewTelemetryRegistry()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = run(regA, scriptsA, "iso a") }()
	go func() { defer wg.Done(); errs[1] = run(regB, scriptsB, "iso b") }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		reg  *TelemetryRegistry
		want int64
	}{{regA, int64(len(scriptsA))}, {regB, int64(len(scriptsB))}} {
		for _, name := range []string{"pipeline.jobs", "pipeline.executed", "exec.traces", "checker.traces", "journal.appends"} {
			if name == "journal.appends" {
				continue // no journal configured in this test
			}
			if got := c.reg.Counter(name).Value(); got != c.want {
				t.Errorf("%s = %d, want exactly this session's %d", name, got, c.want)
			}
		}
		// The session span and the pipeline span landed in the same
		// registry, once each.
		for _, span := range []string{"span.session.run", "span.pipeline.run"} {
			if got := c.reg.Histogram(span).Count(); got != 1 {
				t.Errorf("%s count = %d, want 1", span, got)
			}
		}
	}
}

// TestGenerateSpans pins that every suite generator records the
// session.generate span and the testgen.* figures, once per call, in the
// session's own registry: without them the generate layer of the
// concurrent and crash budgets is invisible in -stats-json.
func TestGenerateSpans(t *testing.T) {
	for name, gen := range map[string]func(*Session, context.Context) ([]*Script, error){
		"Generate":           (*Session).Generate,
		"GenerateConcurrent": (*Session).GenerateConcurrent,
		"GenerateCrash":      (*Session).GenerateCrash,
	} {
		reg := NewTelemetryRegistry()
		scripts, err := gen(New(WithTelemetry(reg)), context.Background())
		if err != nil || len(scripts) == 0 {
			t.Fatalf("%s: %d scripts, err %v", name, len(scripts), err)
		}
		if got := reg.Histogram("span.session.generate").Count(); got != 1 {
			t.Errorf("%s: span.session.generate count = %d, want 1", name, got)
		}
		if got := reg.Histogram("testgen.generate_ns").Count(); got != 1 {
			t.Errorf("%s: testgen.generate_ns count = %d, want 1", name, got)
		}
		if got := reg.Counter("testgen.scripts").Value(); got != int64(len(scripts)) {
			t.Errorf("%s: testgen.scripts = %d, want %d", name, got, len(scripts))
		}
	}
}

// TestOpenCacheSpan: the first use of a session's cache opens the store
// inside one span.session.open_cache; later uses open nothing more.
func TestOpenCacheSpan(t *testing.T) {
	reg := NewTelemetryRegistry()
	s := New(WithTelemetry(reg), WithCacheDir(t.TempDir()))
	defer s.Close()
	for range 2 {
		if _, ok := s.CacheStats(); !ok {
			t.Fatal("session with a cache dir reports no cache")
		}
	}
	if got := reg.Histogram("span.session.open_cache").Count(); got != 1 {
		t.Errorf("span.session.open_cache count = %d, want 1", got)
	}
}

// TestPipelineGoldenParityWithTelemetry re-runs the sequential golden
// parity fixture with an isolated telemetry registry installed: the
// checked-trace digest must not move (telemetry is purely observational),
// and the registry must have attributed every trace.
func TestPipelineGoldenParityWithTelemetry(t *testing.T) {
	suite := generate(t, (*Session).Generate)
	var sel []*Script
	for i := 0; i < len(suite); i += 7 {
		sel = append(sel, suite[i])
	}
	reg := NewTelemetryRegistry()
	pipelineGolden(t, "seq_slice7", pipeline.Config{
		Name:    "seq_slice7",
		Scripts: sel,
		Factory: MemFS(LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    DefaultSpec(),
		Tel:     reg,
	})
	if got := reg.Counter("checker.traces").Value(); got != int64(len(sel)) {
		t.Errorf("checker.traces = %d, want %d", got, len(sel))
	}
	if got := reg.Histogram("pipeline.job_ns").Count(); got != int64(len(sel)) {
		t.Errorf("pipeline.job_ns count = %d, want %d", got, len(sel))
	}
}

// TestTelemetryJournalByteIdentity pins the "never alters output"
// contract directly: the finalized JSONL of a run with a private
// registry is byte-identical to an uninstrumented run of the same suite.
func TestTelemetryJournalByteIdentity(t *testing.T) {
	suite := generate(t, (*Session).Generate)
	var sel []*Script
	for i := 0; i < len(suite); i += 97 {
		sel = append(sel, suite[i])
	}
	dir := t.TempDir()
	runTo := func(path string, extra ...Option) []byte {
		t.Helper()
		opts := append([]Option{
			WithSpec(DefaultSpec()),
			WithWorkers(4),
			WithJournal(path),
		}, extra...)
		s := New(opts...)
		if _, _, err := s.Run(context.Background(), RunJob{
			Name:    "ident",
			Scripts: sel,
			Factory: MemFS(LinuxProfile("ext4")),
			FSName:  "ext4",
		}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := runTo(filepath.Join(dir, "plain.jsonl"))
	instr := runTo(filepath.Join(dir, "instrumented.jsonl"), WithTelemetry(NewTelemetryRegistry()))
	if !bytes.Equal(plain, instr) {
		t.Error("telemetry changed the finalized JSONL output")
	}
}
