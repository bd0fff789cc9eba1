package pipeline

import (
	"bytes"
	"context"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPackSegment holds opening a pack store to its contract on any
// bytes found as its active segment and that segment's index sidecar:
// OpenPackStoreWith never panics, and once open, every key the index
// holds is either a miss or a value whose CRC (over key and value)
// verifies against its entry, absent keys miss, and the store still
// takes and serves a new entry. It is seeded with the segment and
// sidecar a real Run leaves in its cache, intact, without the sidecar,
// and with a torn tail.
func FuzzPackSegment(f *testing.F) {
	dir := f.TempDir()
	store, err := OpenCache(dir)
	if err != nil {
		f.Fatal(err)
	}
	cfg := testConfig(testScripts(f, 1))
	cfg.Store = store
	if _, _, err := Run(context.Background(), cfg); err != nil {
		f.Fatal(err)
	}
	if err := store.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "pack", "000001.seg"))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, "pack", "000001.idx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, idx)
	f.Add(seg, []byte(nil))
	f.Add(seg[:len(seg)-7], idx)
	f.Fuzz(func(t *testing.T, seg, idx []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "000001.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(idx) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "000001.idx"), idx, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p, err := OpenPackStoreWith(dir, PackOptions{})
		if err != nil {
			return // refusing the bytes is allowed; panicking is not
		}
		defer p.Close()
		p.mu.RLock()
		locs := make(map[string]packLoc, len(p.index))
		for k, loc := range p.index {
			locs[k] = loc
		}
		p.mu.RUnlock()
		for key, loc := range locs {
			val, ok := p.Get(key)
			if !ok {
				continue
			}
			sum := crc32.Update(crc32.Checksum([]byte(key), packCRC), packCRC, val)
			if sum != loc.crc || uint32(len(val)) != loc.vlen {
				t.Fatalf("Get(%q) served %d bytes with CRC %08x; the entry holds %d bytes, CRC %08x",
					key, len(val), sum, loc.vlen, loc.crc)
			}
		}
		const probe = "\x00fuzz-probe"
		if _, ok := locs[probe]; !ok {
			if _, ok := p.Get(probe); ok {
				t.Fatal("an absent key hit")
			}
		}
		if err := p.Put(probe, []byte("probe value")); err != nil {
			t.Fatalf("Put after open: %v", err)
		}
		if val, ok := p.Get(probe); !ok || !bytes.Equal(val, []byte("probe value")) {
			t.Fatalf("Get after Put: %q, %v", val, ok)
		}
	})
}
