package fuzz

import (
	"context"

	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fsimpl"
	"repro/internal/pipeline"
	"repro/internal/types"
)

// cacheTestConfig is a short deterministic session against the conforming
// ext4 memfs.
func cacheTestConfig(t *testing.T, corpusDir string, cache *pipeline.Cache) Config {
	t.Helper()
	return Config{
		Name:        "fuzz-cache-test",
		Factory:     fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		Spec:        types.DefaultSpec(),
		Seed:        7,
		Workers:     1,
		MaxRuns:     150,
		CorpusDir:   corpusDir,
		ResultCache: cache,
	}
}

// runBounded runs cfg under a generous deadline; MaxRuns stops it first.
func runBounded(cfg Config) (*Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return Run(ctx, cfg)
}

// TestSeedCacheEquivalence grows a corpus, then resumes it twice — once
// replaying every entry, once admitting from the result cache — and
// demands the two sessions start from an identical corpus and identical
// global coverage. The cached path must be an optimisation, never a
// semantic change.
func TestSeedCacheEquivalence(t *testing.T) {
	base := t.TempDir()
	corpusA := filepath.Join(base, "corpus-a")
	corpusB := filepath.Join(base, "corpus-b")
	cache, err := pipeline.OpenCache(filepath.Join(base, "cache"))
	if err != nil {
		t.Fatal(err)
	}

	// Session 1: grow a corpus, populating the cache as seeds are offered.
	res1, err := runBounded(cacheTestConfig(t, corpusA, cache))
	if err != nil {
		t.Fatal(err)
	}
	if res1.CorpusSize == 0 {
		t.Fatal("session 1 admitted nothing; the equivalence check would be vacuous")
	}
	if res1.CachedSeeds != 0 {
		t.Fatalf("session 1 reported %d cached seeds on a cold cache", res1.CachedSeeds)
	}

	// Mirror the corpus directory so both resumed sessions load the same
	// entries (session B must not see cache entries? it must — the cache is
	// the point; B gets no cache handle instead).
	if err := copyDir(corpusA, corpusB); err != nil {
		t.Fatal(err)
	}

	// Session 2a: resume WITH the cache; MaxRuns=1 keeps mutation noise out.
	cfgA := cacheTestConfig(t, corpusA, cache)
	cfgA.MaxRuns = 1
	resA, err := runBounded(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if resA.CachedSeeds == 0 {
		t.Error("resumed session admitted no seeds from cache")
	}

	// Session 2b: resume WITHOUT the cache (full replay).
	cfgB := cacheTestConfig(t, corpusB, nil)
	cfgB.MaxRuns = 1
	resB, err := runBounded(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if resB.CachedSeeds != 0 {
		t.Fatalf("cache-less session reported %d cached seeds", resB.CachedSeeds)
	}

	if resA.InitialCovHit != resB.InitialCovHit {
		t.Errorf("cached seeding reached %d initial coverage points, replayed seeding %d",
			resA.InitialCovHit, resB.InitialCovHit)
	}
	if resA.CorpusSize != resB.CorpusSize {
		t.Errorf("cached seeding built corpus of %d, replayed seeding %d",
			resA.CorpusSize, resB.CorpusSize)
	}
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			if err := copyDir(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
