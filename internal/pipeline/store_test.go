package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsimpl"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/types"
)

// TestStoreRoundTrip pins the Store contract on the local backend:
// Put-then-Get returns the bytes verbatim (before AND after a Flush),
// absent keys are plain misses, and overwriting a key is allowed.
func TestStoreRoundTrip(t *testing.T) {
	for _, open := range []struct {
		name string
		open func(dir string) (Store, error)
	}{
		{"pack", func(dir string) (Store, error) { return OpenPackStore(dir, nil) }},
	} {
		t.Run(open.name, func(t *testing.T) {
			s, err := open.open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			key := testKey(7)
			if _, ok := s.Get(nil, key); ok {
				t.Fatal("miss expected on empty store")
			}
			if err := s.Put(key, []byte("one")); err != nil {
				t.Fatal(err)
			}
			// Read-your-writes: visible before any flush.
			if v, ok := s.Get(nil, key); !ok || string(v) != "one" {
				t.Fatalf("pre-flush get: %q, %v", v, ok)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get(nil, key); !ok || string(v) != "one" {
				t.Fatalf("post-flush get: %q, %v", v, ok)
			}
			if err := s.Put(key, []byte("two")); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get(nil, key); !ok || string(v) != "two" {
				t.Fatalf("overwrite get: %q, %v", v, ok)
			}
			st := s.Stats()
			if st.Entries != 1 {
				t.Fatalf("stats entries = %d, want 1", st.Entries)
			}
		})
	}
}

// TestPackPersistence pins durability across process boundaries: entries
// written and Closed read back from a fresh open, from sidecars (no
// rebuild scan).
func TestPackPersistence(t *testing.T) {
	dir := t.TempDir()
	keys := packFill(t, dir, 50)

	reg := telemetry.NewRegistry()
	p, err := OpenPackStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, k := range keys {
		if v, ok := p.Get(nil, k); !ok || !strings.HasSuffix(string(v), k) {
			t.Fatalf("entry %s lost across reopen: %q, %v", k, v, ok)
		}
	}
	if n := reg.Counter("pipeline.index_rebuilds").Value(); n != 0 {
		t.Fatalf("clean reopen scanned %d segments, want sidecar loads only", n)
	}
}

// TestPackRotation forces segment rotation with tiny bounds and checks
// every entry stays readable across the segment boundary and across a
// reopen, and that Stats sees the extra segments.
func TestPackRotation(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPackStoreWith(dir, PackOptions{MaxSegmentBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 40; i++ {
		k := testKey(i)
		keys = append(keys, k)
		if err := p.Put(k, bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Segments < 2 {
		t.Fatalf("%d segments after overflow, want rotation", st.Segments)
	}
	if st.Entries != len(keys) {
		t.Fatalf("stats entries = %d, want %d", st.Entries, len(keys))
	}
	for i, k := range keys {
		if v, ok := p.Get(nil, k); !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 50)) {
			t.Fatalf("entry %d unreadable after rotation", i)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPackStoreWith(dir, PackOptions{MaxSegmentBytes: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i, k := range keys {
		if v, ok := p2.Get(nil, k); !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 50)) {
			t.Fatalf("entry %d unreadable after rotation+reopen", i)
		}
	}
}

// TestPackOversizeEntry pins the escape hatch: an entry larger than
// MaxSegmentBytes still stores (in a segment of its own).
func TestPackOversizeEntry(t *testing.T) {
	p, err := OpenPackStoreWith(t.TempDir(), PackOptions{MaxSegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	big := bytes.Repeat([]byte("x"), 4096)
	if err := p.Put(testKey(1), big); err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Get(nil, testKey(1)); !ok || !bytes.Equal(v, big) {
		t.Fatal("oversize entry unreadable")
	}
}

// TestPackConcurrency hammers one store from many goroutines — the
// pipeline's worker pool shape — under the race detector.
func TestPackConcurrency(t *testing.T) {
	p, err := OpenPackStoreWith(t.TempDir(), PackOptions{MaxSegmentBytes: 4096, FlushBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := testKey(w*100 + i)
				val := []byte(fmt.Sprintf("worker %d item %d", w, i))
				if err := p.Put(k, val); err != nil {
					t.Error(err)
					return
				}
				if v, ok := p.Get(nil, k); !ok || !bytes.Equal(v, val) {
					t.Errorf("read-your-writes failed for %s", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.Entries != 400 {
		t.Fatalf("entries = %d, want 400", st.Entries)
	}
}

// TestCacheV1EntryIsMiss pins what becomes of a cache directory the v1
// file-per-key layout wrote: it opens, its entries are misses, and a run
// over it re-executes them and finalizes byte-identical to a cold run —
// an old format costs one cold run, never a failure.
func TestCacheV1EntryIsMiss(t *testing.T) {
	run := func(t *testing.T, store Store) (Stats, string) {
		t.Helper()
		cfg := storeSuiteConfig(t, store, nil)
		cfg.Scripts = cfg.Scripts[:8]
		path := filepath.Join(t.TempDir(), "run.jsonl")
		return finalizedRun(t, cfg, path, false), path
	}
	_, cold := run(t, nil)
	records, err := ReadRecords(cold)
	if err != nil {
		t.Fatal(err)
	}

	// Seed each record the way the v1 layout stored it: bare JSON in a
	// two-hex-digit fan-out directory.
	dir := t.TempDir()
	for _, rec := range records {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, rec.Key[:2], rec.Key[2:]+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, line, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, rec := range records {
		if _, ok := getRecord(store, rec.Key); ok {
			t.Fatalf("v1 entry %s served as a hit", rec.Name)
		}
	}
	st, out := run(t, store)
	if st.Executed != len(records) {
		t.Fatalf("run over a v1 cache executed %d of %d jobs", st.Executed, len(records))
	}
	if !bytes.Equal(readFile(t, out), readFile(t, cold)) {
		t.Fatal("finalized JSONL over a v1 cache differs from a cold run")
	}
}

// TestCacheV1ReadThrough pins that nothing reads through a v1 layout any
// more: over a directory holding a v1 entry, the key misses, a framed
// record put under it lands packed and leaves the v1 file as it was, and
// a reopen serves the packed record.
func TestCacheV1ReadThrough(t *testing.T) {
	dir := t.TempDir()
	key := testKey(1)
	v1Path := filepath.Join(dir, key[:2], key[2:]+".json")
	v1Line, err := json.Marshal(Record{Key: key, Name: "old", Accepted: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(v1Path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1Path, v1Line, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := getRecord(c, key); ok {
		t.Fatalf("v1 entry served read-through: %+v", rec)
	}
	if err := putRecord(c, Record{Key: key, Name: "new", Accepted: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, v1Path), v1Line) {
		t.Fatal("v1 file rewritten")
	}
	if _, err := os.Stat(filepath.Join(dir, "pack", "000001.seg")); err != nil {
		t.Fatalf("no pack segment created: %v", err)
	}

	c2, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if rec, ok := getRecord(c2, key); !ok || rec.Name != "new" {
		t.Fatalf("packed entry not served after reopen: %+v, %v", rec, ok)
	}
}

// TestCacheFreshDirHasNoFallback pins that a fresh cache directory gets
// the pack backend and nothing else: after a write, dir holds only pack/.
func TestCacheFreshDirHasNoFallback(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Backend != "pack" {
		t.Fatalf("backend = %q, want pack", st.Backend)
	}
	if err := putRecord(c, Record{Key: testKey(1), Name: "t", Accepted: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "pack" || !ents[0].IsDir() {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("fresh cache dir holds %v, want only pack/", names)
	}
}

// getRecord and putRecord read and write one framed record the way Run
// does: a value that does not decode is a miss.
func getRecord(store Store, key string) (Record, bool) {
	data, _ := store.Get(nil, key)
	rec, _, ok := decodeRecord(data, key)
	return rec, ok
}

func putRecord(store Store, rec Record) error {
	return store.Put(rec.Key, encodeRecord(nil, rec, rec.AppendJSON(nil)))
}

// staleBuffer returns a read buffer that already holds a valid frame, of
// a record no store holds: a Get that left any of it in place on a miss
// would hand a decodable frame to Run.
func staleBuffer() []byte {
	rec := Record{Key: "stale", Name: "stale", Accepted: true, Checked: strings.Repeat("stale\n", 40)}
	return encodeRecord(nil, rec, rec.AppendJSON(nil))
}

// getReused reads key from s into *buf, which still holds the bytes of
// earlier reads, and fails t unless the read returns exactly what a read
// into a nil buffer returns, and an empty slice on a miss. *buf keeps
// the returned slice for the next read, as a pipeline worker does.
func getReused(t testing.TB, s Store, buf *[]byte, key string) ([]byte, bool) {
	t.Helper()
	want, wantOK := s.Get(nil, key)
	got, ok := s.Get((*buf)[:cap(*buf)], key)
	if ok != wantOK || !bytes.Equal(got, want) {
		t.Fatalf("Get(%q) into a reused buffer = %q, %v; into nil = %q, %v", key, got, ok, want, wantOK)
	}
	if !ok && (len(got) != 0 || len(want) != 0) {
		t.Fatalf("a miss on %q returned %d bytes into a reused buffer and %d into nil; want empty slices",
			key, len(got), len(want))
	}
	*buf = got
	return got, ok
}

// storeSuiteConfig builds a small real pipeline config against the
// determinized model (execution is hermetic and fast).
func storeSuiteConfig(t *testing.T, store Store, sink *Sink) Config {
	t.Helper()
	scripts := testgen.Generate().Scripts
	if len(scripts) > 60 {
		scripts = scripts[:60]
	}
	spec := types.Spec{Platform: types.PlatformLinux, Permissions: true}
	return Config{
		Name:    "store-parity",
		Scripts: scripts,
		Factory: fsimpl.MemFactory(fsimpl.LinuxProfile("ext4")),
		FSName:  "ext4",
		Spec:    spec,
		Workers: 4,
		Store:   store,
		Sink:    sink,
	}
}

// TestBackendJSONLParity pins the pack store's half of the byte-identity
// contract: a warm run over a reopened pack cache executes nothing and
// finalizes byte-identical to the cold run that filled it.
func TestBackendJSONLParity(t *testing.T) {
	run := func(t *testing.T, cfg Config) (Stats, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "run.jsonl")
		return finalizedRun(t, cfg, path, false), readFile(t, path)
	}
	dir := t.TempDir()
	cold, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, coldOut := run(t, storeSuiteConfig(t, cold, nil))
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	reg := telemetry.NewRegistry()
	cfg := storeSuiteConfig(t, warm, nil)
	cfg.Tel = reg
	st, warmOut := run(t, cfg)
	if st.Executed != 0 {
		t.Fatalf("warm pack run executed %d jobs, want 0", st.Executed)
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Fatal("finalized JSONL differs between cold and warm pack runs")
	}
	if reg.Counter("pipeline.cache_hits").Value() == 0 {
		t.Fatal("warm run recorded no cache hits")
	}
}

// TestPipelineFlushesCacheOnCancel pins the group-commit contract at the
// pipeline level: records completed before a cancellation are durable in
// the pack (a fresh open of the same directory sees them) even though the
// run returned ctx.Err and nobody Closed the cache.
func TestPipelineFlushesCacheOnCancel(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeSuiteConfig(t, store, nil)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	cfg.Observe = func(Record) {
		n++
		if n == 10 {
			cancel()
		}
	}
	_, st, err := Run(ctx, cfg)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if st.Executed == 0 {
		t.Skip("cancelled before any job completed")
	}
	// No Close: simulate the process dying right after Run returns, then
	// open the directory fresh and count durable entries.
	abandon(store)
	c2, err := OpenCache(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Stats().Entries; got < st.Executed {
		t.Fatalf("durable entries %d < executed %d: cancel path lost the flush", got, st.Executed)
	}
}

// TestStoreConformance pins the Store contract on PackStore: round-trip,
// read-your-writes from the pending group-commit batch, Flush
// visibility, overwrite idempotence, and corruption-is-a-miss (never an
// error). Every read goes into one reused buffer that starts out holding
// a stale frame as well as into a nil one (getReused): both must return
// the same bytes, and a miss an empty slice.
func TestStoreConformance(t *testing.T) {
	t.Run("pack", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenPackStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		buf := staleBuffer()

		key, val := testKey(1), []byte("conformance value one")
		if _, ok := getReused(t, s, &buf, key); ok {
			t.Fatal("miss expected on empty store")
		}
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		// Read-your-writes before any Flush.
		if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("pre-flush get: %q, %v", got, ok)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("post-flush get: %q, %v", got, ok)
		}

		// Overwrite idempotence: same bytes again, then new bytes.
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("idempotent re-put get: %q, %v", got, ok)
		}
		val2 := []byte("conformance value two")
		if err := s.Put(key, val2); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val2) {
			t.Fatalf("overwrite get: %q, %v", got, ok)
		}

		// Corruption is a miss, never an error — and other keys are
		// unaffected.
		victim, victimVal := testKey(2), []byte("victim value with unique bytes 0xDECAFBAD")
		if err := s.Put(victim, victimVal); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		flipValueOnDisk(t, dir, victimVal)
		if got, ok := getReused(t, s, &buf, victim); ok {
			t.Fatalf("corrupted entry served as a hit: %q", got)
		}
		if got, ok := getReused(t, s, &buf, key); !ok || !bytes.Equal(got, val2) {
			t.Fatalf("healthy key lost after corrupting another: %q, %v", got, ok)
		}
	})
}

// flipValueOnDisk locates val's bytes inside any file under dir and
// flips one bit — simulated at-rest corruption for checksummed stores.
func flipValueOnDisk(t *testing.T, dir string, val []byte) {
	t.Helper()
	var flipped bool
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || flipped {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		i := bytes.Index(data, val)
		if i < 0 {
			return nil
		}
		data[i] ^= 0x01
		flipped = true
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatal("value bytes not found in any file; cannot corrupt")
	}
}
