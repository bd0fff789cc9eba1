package pipeline

import (
	"path/filepath"

	"repro/internal/telemetry"
)

// Cache is the content-addressed result store facade: typed record
// accessors (GetRecord/PutRecord) and raw-blob accessors (GetRaw/PutRaw,
// used by fuzz corpus seeding) over a pluggable Store backend. Both pairs
// funnel through the one Store, so a backend swap — PackStore, HTTPStore,
// some future remote store — changes every consumer at once.
//
// Records are stored framed (codec.go). The cache is lossy by contract:
// a value in any other format — a v1 bare-JSON entry included — is a
// miss, and the run that misses stores the record afresh.
type Cache struct {
	store Store
}

// OpenCache opens (creating if needed) a cache rooted at dir with a
// PackStore backend; segments live under dir/pack.
func OpenCache(dir string) (*Cache, error) {
	store, err := OpenPackStore(packDir(dir))
	if err != nil {
		return nil, err
	}
	return &Cache{store: store}, nil
}

// packDir is where OpenCache roots the pack segments.
func packDir(dir string) string {
	return filepath.Join(dir, "pack")
}

// NewCache wraps an explicit Store — the seam where an injected backend
// (sibylfs.WithStore, an HTTPStore) enters the pipeline.
func NewCache(store Store) *Cache {
	return &Cache{store: store}
}

// Store returns the backend.
func (c *Cache) Store() Store { return c.store }

// GetRecord loads the cached record for key; ok is false on a miss.
// Unreadable or unparsable entries count as misses (the writer will
// overwrite them), never as errors.
func (c *Cache) GetRecord(key string) (Record, bool) {
	rec, _, ok := c.getRecord(key)
	return rec, ok
}

// getRecord also returns the entry's canonical JSON line — exactly the
// bytes its writer framed — so the pipeline's warm path can
// journal a hit without re-marshalling it (Sink.AppendEncoded). A framed
// entry (codec.go) decodes without a JSON parse at all.
func (c *Cache) getRecord(key string) (Record, []byte, bool) {
	data, ok := c.store.Get(key)
	if !ok {
		return Record{}, nil, false
	}
	return decodeRecord(data, key)
}

// PutRecord stores a record under its key.
func (c *Cache) PutRecord(rec Record) error {
	return c.store.Put(rec.Key, encodeRecord(nil, rec, rec.AppendJSON(nil)))
}

// GetRaw and PutRaw expose the store to sibling subsystems that cache
// their own record shapes under the same key discipline (internal/fuzz
// caches attributed coverage-point sets for corpus seeding). Namespacing
// is the caller's job: fold a distinct tag into the key's config hash.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	return c.store.Get(key)
}

// PutRaw stores raw bytes under key (see GetRaw).
func (c *Cache) PutRaw(key string, data []byte) error {
	return c.store.Put(key, data)
}

// Flush is the group-commit barrier: every completed Put is durable when
// it returns. pipeline.Run flushes on every exit path; long-lived
// callers (fuzz sessions) flush at their own boundaries.
func (c *Cache) Flush() error {
	return c.store.Flush()
}

// Close flushes and releases the backend.
func (c *Cache) Close() error {
	return c.store.Close()
}

// SetTelemetry attributes the backend's I/O metrics to reg, for stores
// that support attribution (PackStore does; a nil reg selects Default).
func (c *Cache) SetTelemetry(reg *telemetry.Registry) {
	if ts, ok := c.store.(telemetrySetter); ok {
		ts.SetTelemetry(reg)
	}
}

// Stats describes the backend's contents.
func (c *Cache) Stats() StoreStats {
	return c.store.Stats()
}
