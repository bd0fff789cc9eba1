//go:build !race

package pipeline

import (
	"context"
	"testing"

	"repro/internal/testgen"
)

// TestScriptHashAllocs pins the allocation cost of the key pass: with the
// render buffer pooled, hashing a script allocates only the returned
// string. Rendering through per-label string concatenation cost about 95
// allocations per script of the sequential suite.
func TestScriptHashAllocs(t *testing.T) {
	scripts := testgen.Generate().Scripts
	i := 0
	perCall := testing.AllocsPerRun(len(scripts), func() {
		ScriptHash(scripts[i%len(scripts)])
		i++
	})
	t.Logf("%.2f allocations per ScriptHash over %d scripts", perCall, len(scripts))
	if perCall > 2 {
		t.Errorf("%.2f allocations per ScriptHash, want <= 2", perCall)
	}
}

// TestWarmRunBuildsNoConsMap pins that a cons table makes its map only
// when it first stores a fan-out: a cold run's tables make theirs, and a
// warm run over the same cache, which checks nothing, makes none.
func TestWarmRunBuildsNoConsMap(t *testing.T) {
	store, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	defer func() { runDoneHook = nil }()
	mapped := 0 // tables with a map at the end of the last run
	runDoneHook = func(ws []*worker) {
		mapped = 0
		for _, w := range ws {
			if w.chk.Memo.Stats().Mapped {
				mapped++
			}
		}
	}
	cfg := testConfig(testScripts(t, 16))
	cfg.Store = store
	for _, warm := range []bool{false, true} {
		if _, st, err := Run(context.Background(), cfg); err != nil || (st.CacheHits == st.Jobs) != warm {
			t.Fatalf("warm=%v: %+v, err %v", warm, st, err)
		}
		if (mapped > 0) == warm {
			t.Errorf("warm=%v: %d of %d tables made a map", warm, mapped, cfg.Workers)
		}
	}
}
