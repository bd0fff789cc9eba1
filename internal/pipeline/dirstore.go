package pipeline

import (
	"os"
	"path/filepath"
	"strings"
)

// DirStore is the v1 file-per-key store: one JSON file per key, fanned
// into 256 subdirectories by the key's first byte so directory listings
// stay cheap at suite scale. Writes are atomic and durable (temp file +
// fsync + rename + directory fsync) — which is also why it is slow at
// scale: a cold full-suite run pays one fsync + rename + directory fsync
// per record (~21k of each), and warm runs re-open and re-parse ~21k
// small files. PackStore replaces it as the default; DirStore remains
// for compatibility (opening a v1 cache read-through-migrates, see
// OpenCache) and as the durability baseline in benchmarks.
type DirStore struct {
	dir string
}

// OpenDirStore opens (creating if needed) a file-per-key store rooted at
// dir. Opening sweeps temp files abandoned by killed writers (see
// sweepOrphans); live writers are safe — only files older than orphanAge
// are reclaimed.
func OpenDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if e.IsDir() && len(e.Name()) == 2 {
				sweepOrphans(filepath.Join(dir, e.Name()), ".tmp-")
			}
		}
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store root.
func (d *DirStore) Dir() string { return d.dir }

func (d *DirStore) path(key string) string {
	return filepath.Join(d.dir, key[:2], key[2:]+".json")
}

// Get returns the bytes stored under key; unreadable entries are misses.
func (d *DirStore) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Put stores data under key, atomically and durably — every Put is its
// own fsync + rename + directory-fsync transaction, so Flush is a no-op.
func (d *DirStore) Put(key string, data []byte) error {
	path := d.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicWriteFile(path, ".tmp-*", bytesOf(data))
}

// Flush is a no-op: DirStore pays for durability inside every Put.
func (d *DirStore) Flush() error { return nil }

// Close is a no-op; DirStore holds no open handles between calls.
func (d *DirStore) Close() error { return nil }

// Stats walks the fan-out subdirectories counting entries and bytes.
func (d *DirStore) Stats() StoreStats {
	st := StoreStats{Backend: "dir"}
	subs, err := os.ReadDir(d.dir)
	if err != nil {
		return st
	}
	for _, sub := range subs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
				continue
			}
			st.Entries++
			if info, err := f.Info(); err == nil {
				st.Bytes += info.Size()
			}
		}
	}
	return st
}

// hasDirEntries reports whether dir contains a v1 file-per-key layout —
// any two-hex-digit fan-out subdirectory. OpenCache uses it to decide
// whether a DirStore read-through fallback is needed.
func hasDirEntries(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) == 2 && isHex(e.Name()) {
			return true
		}
	}
	return false
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
