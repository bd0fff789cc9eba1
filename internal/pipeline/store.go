package pipeline

import "repro/internal/telemetry"

// Store is the result cache (Config.Store): a flat content-addressed
// byte store keyed by hex digest strings, holding framed records
// (codec.go). The cache is lossy by contract: a value in any other
// format — a v1 bare-JSON entry included — is a miss, and the run that
// misses stores the record afresh. PackStore (append-only pack segments
// with group-commit durability) is the implementation; tests wrap or
// replace it through this interface.
//
// Implementations must be safe for concurrent use: the pipeline's worker
// pool calls Get and Put from many goroutines at once.
type Store interface {
	// Get reads the bytes stored under key into dst's storage, growing
	// it only when it lacks room, and returns them; ok is false on a
	// miss. Unreadable, torn or checksum-failing entries are misses —
	// the writer will overwrite them — never errors. A miss returns an
	// empty slice, so no stale bytes of dst can pass for a value. The
	// returned slice, in dst's storage or in storage grown from it,
	// belongs to the caller, who may pass it back as the next dst (each
	// pipeline worker reads every entry into one buffer); dst may be nil.
	Get(dst []byte, key string) ([]byte, bool)
	// Put stores data under key. A Put is immediately visible to Get on
	// the same store, but durability may be deferred until the next
	// Flush (the group-commit contract). Overwriting a key is allowed
	// and idempotent by the cache-key contract: the same key always
	// denotes the same bytes. Put must not retain data: it copies what
	// it keeps, so the caller may reuse data's storage as soon as Put
	// returns (the pipeline frames every entry into one worker buffer).
	Put(key string, data []byte) error
	// Flush makes every completed Put durable — the group-commit
	// barrier. One Flush covers the whole batch of Puts since the last.
	Flush() error
	// Close flushes, persists any index state, and releases resources.
	// The store is unusable afterwards.
	Close() error
	// Stats describes the store's current contents.
	Stats() StoreStats
}

// StoreStats summarises a store's contents for -cache-stats and tests.
type StoreStats struct {
	// Backend names the implementation ("pack").
	Backend string
	// Entries is the number of live keys.
	Entries int
	// Segments is the number of pack segments (0 for non-segment stores).
	Segments int
	// Bytes is the stored payload footprint: for PackStore the bytes of
	// all segment files (live and superseded entries alike).
	Bytes int64
}

// telemetrySetter is implemented by stores whose I/O metrics can be
// attributed to a specific registry; Run installs its registry through
// it (a store that does not implement it keeps its own).
type telemetrySetter interface {
	SetTelemetry(reg *telemetry.Registry)
}
