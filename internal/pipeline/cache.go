package pipeline

import (
	"encoding/json"
	"path/filepath"

	"repro/internal/telemetry"
)

// Cache is the content-addressed result store facade: typed record
// accessors (GetRecord/PutRecord) and raw-blob accessors (GetRaw/PutRaw,
// used by the generation cache and fuzz corpus seeding) over a pluggable
// Store backend. Both pairs funnel through one internal get/put, so a
// backend swap — PackStore, DirStore, some future remote store — changes
// every consumer at once.
//
// A Cache opened on a v1 (file-per-key) directory read-through-migrates:
// old entries are served from the DirStore fallback on a pack miss, and
// every new write lands packed. No rewrite pass, no flag day — the v1
// files simply stop growing.
type Cache struct {
	dir      string
	store    Store
	fallback Store // nil unless a v1 layout was detected at open
	// framed selects the dual record encoding (see codec.go) for
	// PutRecord. DirStore-backed caches write bare JSON — the dir layout
	// is the v1 compatibility format and must stay byte-compatible with
	// what a v1 reader expects. Reads accept both encodings regardless.
	framed bool
}

// OpenCache opens (creating if needed) a cache rooted at dir with the
// default PackStore backend (segments live under dir/pack). If dir holds
// a v1 file-per-key layout, those entries remain readable through a
// DirStore fallback; new writes go to the pack.
func OpenCache(dir string) (*Cache, error) {
	var fallback Store
	if hasDirEntries(dir) {
		d, err := OpenDirStore(dir)
		if err != nil {
			return nil, err
		}
		fallback = d
	}
	store, err := OpenPackStore(packDir(dir))
	if err != nil {
		return nil, err
	}
	return &Cache{dir: dir, store: store, fallback: fallback, framed: true}, nil
}

// OpenDirCache opens a cache forced onto the v1 file-per-key DirStore
// backend — the compatibility path (sfs-run -store dir) and the
// durability baseline in benchmarks.
func OpenDirCache(dir string) (*Cache, error) {
	store, err := OpenDirStore(dir)
	if err != nil {
		return nil, err
	}
	return &Cache{dir: dir, store: store}, nil
}

// NewCache wraps an explicit Store — the seam where an injected backend
// (sibylfs.WithStore; later an HTTP/S3 store) enters the pipeline.
// Records are stored framed unless the backend is a DirStore (which must
// keep producing genuine v1 bytes).
func NewCache(store Store) *Cache {
	_, isDir := store.(*DirStore)
	return &Cache{store: store, framed: !isDir}
}

// packDir is where OpenCache roots the pack segments, beside (never
// colliding with) the two-hex-digit v1 fan-out directories.
func packDir(dir string) string {
	return filepath.Join(dir, "pack")
}

// Dir returns the cache root ("" for a Cache over an injected Store).
func (c *Cache) Dir() string { return c.dir }

// Store returns the primary backend (the fallback, if any, is
// read-only migration plumbing).
func (c *Cache) Store() Store { return c.store }

// get is the single read path under every typed accessor: primary
// store first, then the v1 read-through fallback.
func (c *Cache) get(key string) ([]byte, bool) {
	if data, ok := c.store.Get(key); ok {
		return data, true
	}
	if c.fallback != nil {
		return c.fallback.Get(key)
	}
	return nil, false
}

// put is the single write path under every typed accessor.
func (c *Cache) put(key string, data []byte) error {
	return c.store.Put(key, data)
}

// GetRecord loads the cached record for key; ok is false on a miss.
// Unreadable or unparsable entries count as misses (the writer will
// overwrite them), never as errors.
func (c *Cache) GetRecord(key string) (Record, bool) {
	rec, _, ok := c.getRecord(key)
	return rec, ok
}

// getRecord also returns a framed entry's canonical JSON line — exactly
// the json.Marshal bytes putRecord wrote — so the pipeline's warm path can
// journal a hit without re-marshalling it (Sink.AppendEncoded). Framed
// entries (codec.go) decode without a JSON parse at all. A bare-JSON (v1)
// entry returns no line: it may come from any writer, so its record is
// always marshalled afresh.
func (c *Cache) getRecord(key string) (Record, []byte, bool) {
	data, ok := c.get(key)
	if !ok {
		return Record{}, nil, false
	}
	rec, line, ok := decodeRecord(data, key)
	if !isFramed(data) {
		line = nil
	}
	return rec, line, ok
}

// PutRecord stores a record under its key.
func (c *Cache) PutRecord(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return c.putRecord(rec, line)
}

// putRecord stores rec given its canonical JSON line (exactly
// json.Marshal(rec)), which the pipeline's fresh path marshals once for
// both the store and the journal.
func (c *Cache) putRecord(rec Record, line []byte) error {
	if c.framed {
		return c.put(rec.Key, encodeRecord(rec, line))
	}
	return c.put(rec.Key, line)
}

// GetRaw and PutRaw expose the store to sibling subsystems that cache
// their own record shapes under the same key discipline (internal/fuzz
// caches attributed coverage-point sets for corpus seeding; the
// generation cache stores rendered suites). Namespacing is the caller's
// job: fold a distinct tag into the key's config hash.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	return c.get(key)
}

// PutRaw stores raw bytes under key (see GetRaw).
func (c *Cache) PutRaw(key string, data []byte) error {
	return c.put(key, data)
}

// Flush is the group-commit barrier: every completed Put is durable when
// it returns. pipeline.Run flushes on every exit path; long-lived
// callers (fuzz sessions, the generation cache) flush at their own
// boundaries.
func (c *Cache) Flush() error {
	return c.store.Flush()
}

// Close flushes and releases the backend (and the migration fallback).
func (c *Cache) Close() error {
	err := c.store.Close()
	if c.fallback != nil {
		if ferr := c.fallback.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

// SetTelemetry attributes the backend's I/O metrics to reg, for stores
// that support attribution (PackStore does; a nil reg selects Default).
func (c *Cache) SetTelemetry(reg *telemetry.Registry) {
	if ts, ok := c.store.(telemetrySetter); ok {
		ts.SetTelemetry(reg)
	}
}

// Stats describes the primary backend's contents.
func (c *Cache) Stats() StoreStats {
	return c.store.Stats()
}

// FallbackStats describes the v1 read-through fallback's contents; ok is
// false when no v1 layout was detected at open. During a migration the
// primary pack may be near-empty while the fallback holds the suite —
// -cache-stats prints both so the picture is honest.
func (c *Cache) FallbackStats() (StoreStats, bool) {
	if c.fallback == nil {
		return StoreStats{}, false
	}
	return c.fallback.Stats(), true
}
