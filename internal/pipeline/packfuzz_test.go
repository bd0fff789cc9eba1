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
// takes and serves a new entry. Every read also goes into one reused
// buffer (getReused), from the segment, and again once each value is
// put back, from the group-commit buffer and after its flush: the bytes
// must equal a read into nil, and every miss, CRC failures included,
// must return an empty slice. It is seeded with the segment and sidecar
// a real Run leaves in its cache, intact, without the sidecar, with a
// torn tail, and with a flipped value byte under the intact sidecar (a
// CRC failure on read).
func FuzzPackSegment(f *testing.F) {
	dir := f.TempDir()
	store, err := OpenCache(dir, nil)
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
	flipped := bytes.Clone(seg)
	flipped[len(flipped)-3] ^= 0x40
	f.Add(flipped, idx)
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
		p, err := OpenPackStoreWith(dir, PackOptions{}, nil)
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
		buf := staleBuffer()
		hits := map[string][]byte{}
		for key, loc := range locs {
			val, ok := getReused(t, p, &buf, key)
			if !ok {
				continue
			}
			sum := crc32.Update(crc32.Checksum([]byte(key), packCRC), packCRC, val)
			if sum != loc.crc || uint32(len(val)) != loc.vlen {
				t.Fatalf("Get(%q) served %d bytes with CRC %08x; the entry holds %d bytes, CRC %08x",
					key, len(val), sum, loc.vlen, loc.crc)
			}
			hits[key] = bytes.Clone(val)
		}
		const probe = "\x00fuzz-probe"
		if _, ok := locs[probe]; !ok {
			if _, ok := getReused(t, p, &buf, probe); ok {
				t.Fatal("an absent key hit")
			}
		}
		hits[probe] = []byte("probe value")
		for key, val := range hits {
			if err := p.Put(key, val); err != nil {
				t.Fatalf("Put after open: %v", err)
			}
		}
		for _, pending := range []bool{true, false} {
			if !pending {
				if err := p.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
			}
			for key, want := range hits {
				if val, ok := getReused(t, p, &buf, key); !ok || !bytes.Equal(val, want) {
					t.Fatalf("Get after Put (pending %v): %q, %v; want %q", pending, val, ok, want)
				}
			}
		}
	})
}
