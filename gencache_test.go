package sibylfs

// Generation-cache fixtures: a warm session must load the generated suite
// from the cache — regenerating nothing — and the loaded suite must be
// indistinguishable from a fresh generation, names, rendered text and
// precomputed script hashes included.

import (
	"context"
	"testing"

	"repro/internal/pipeline"
)

func TestGenerationCacheWarmStart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	coldTel := NewTelemetryRegistry()
	cold := New(WithCacheDir(dir), WithTelemetry(coldTel))
	first, err := cold.Generate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := coldTel.Counter("testgen.cache_hits").Value(), coldTel.Counter("testgen.cache_misses").Value(); hits != 0 || misses != 1 {
		t.Fatalf("cold run: hits/misses = %d/%d, want 0/1", hits, misses)
	}

	warmTel := NewTelemetryRegistry()
	warm := New(WithCacheDir(dir), WithTelemetry(warmTel))
	second, err := warm.Generate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := warmTel.Counter("testgen.cache_hits").Value(), warmTel.Counter("testgen.cache_misses").Value(); hits != 1 || misses != 0 {
		t.Fatalf("warm run: hits/misses = %d/%d, want 1/0 (suite was regenerated)", hits, misses)
	}

	if len(second) != len(first) {
		t.Fatalf("warm suite has %d scripts, cold %d", len(second), len(first))
	}
	for i := range first {
		if second[i].Name != first[i].Name {
			t.Fatalf("script %d: warm name %q, cold %q", i, second[i].Name, first[i].Name)
		}
		if second[i].Render() != first[i].Render() {
			t.Fatalf("script %q: warm text differs from cold", first[i].Name)
		}
	}

	// The warm session's hash memo must be seeded from the blob with values
	// that agree with ScriptHash — the pipeline cache keys depend on it.
	for _, i := range []int{0, len(second) / 2, len(second) - 1} {
		got := make([]string, 1)
		warm.scriptHashes(second[i:i+1], got)
		if want := pipeline.ScriptHash(second[i]); got[0] != want {
			t.Fatalf("script %q: memoised hash %s, ScriptHash %s", second[i].Name, got[0], want)
		}
	}

	// The concurrent universe caches under its own key: generating it must
	// not be served the sequential blob.
	conc, err := warm.GenerateConcurrent(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if misses := warmTel.Counter("testgen.cache_misses").Value(); misses != 1 {
		t.Fatalf("concurrent universe: misses = %d, want 1 (distinct key)", misses)
	}
	if len(conc) == 0 || len(conc) == len(second) {
		t.Fatalf("concurrent universe has %d scripts (sequential %d)", len(conc), len(second))
	}
}
