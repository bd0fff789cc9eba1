//go:build !race

package pipeline

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
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

// TestWarmHitAllocs pins what a journaled warm run allocates per hit: the
// decoded record's Name and Checked strings and the journal line the sink
// keeps, plus a constant for the job's share of the run's key pass,
// record slices and sink index (about 650 bytes) and of its last journal
// chunk's unused tail. A hit reads its frame into the worker's buffer and
// the sink keeps its line once, in its journal chunks; reading each hit
// into a fresh frame, and regrowing one journal buffer, each cost about
// another line per hit.
func TestWarmHitAllocs(t *testing.T) {
	const n, slack = 600, 1024
	scripts := testgen.Generate().Scripts[:n]
	store, err := OpenCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := testConfig(scripts)
	cfg.Store = store
	records, _, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, rec := range records {
		want += len(rec.AppendJSON(nil)) + len(rec.Name) + len(rec.Checked) + slack
	}

	gets := &dstStore{Store: store}
	cfg.Store = gets
	sink, err := OpenSink(filepath.Join(t.TempDir(), "warm.jsonl"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	cfg.Sink = sink
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, st, err := Run(context.Background(), cfg)
	runtime.ReadMemStats(&after)
	if err != nil || st.CacheHits != n {
		t.Fatalf("warm run: %+v, err %v", st, err)
	}
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d bytes per hit; bound %d (line, name, checked and %d)", got/n, want/n, slack)
	if got > want {
		t.Errorf("a warm run of %d hits allocated %d bytes (%d per hit), want at most %d", n, got, got/n, want)
	}
	// Every worker reads its first frame into an empty buffer, and each
	// later one into the buffer the last Get returned: a Get into a
	// buffer with room for the entry's key and value (which a PackStore
	// reads together) reads into it.
	if gets.empty > cfg.Workers || gets.moved > 0 {
		t.Errorf("of %d Gets, %d passed an empty buffer and %d replaced one with room; want at most %d and 0",
			gets.calls, gets.empty, gets.moved, cfg.Workers)
	}
}

// dstStore counts the buffers a Store's callers pass to Get: empty ones,
// and ones with room for the entry that Get replaced instead of reading
// into.
type dstStore struct {
	Store
	mu                  sync.Mutex
	calls, empty, moved int
}

func (d *dstStore) Get(dst []byte, key string) ([]byte, bool) {
	val, ok := d.Store.Get(dst, key)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	switch {
	case cap(dst) == 0:
		d.empty++
	case ok && len(val) > 0 && cap(dst) >= len(key)+len(val) && &val[0] != &dst[:1][0]:
		d.moved++
	}
	return val, ok
}
