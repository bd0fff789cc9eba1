package sibylfs

import "repro/internal/pipeline"

// Batch pipeline vocabulary, re-exported (see internal/pipeline and
// ARCHITECTURE.md). The pipeline is the cross-trace scaling layer: it
// shards a suite over a worker pool, skips unchanged work through a
// content-addressed result cache, which is also what an interrupted run
// resumes from, and writes records to a canonical JSONL file.
type (
	// PipelineConfig parameterises one sharded, cache-backed run.
	PipelineConfig = pipeline.Config
	// PipelineRecord is one checked trace as the pipeline persists it.
	PipelineRecord = pipeline.Record
	// PipelineStats is a run's executed/cached work split.
	PipelineStats = pipeline.Stats
	// ResultStore is the content-addressed (script, spec, config)-keyed
	// result cache (see WithStore): a PackStore — packed append-only
	// segments with group-commit durability, one owner per directory.
	ResultStore = pipeline.Store
	// StoreStats summarises a store's contents (Session.CacheStats,
	// sfs-run -cache-stats).
	StoreStats = pipeline.StoreStats
)

// OpenPackStore opens (creating if needed) a packed segment store rooted
// at dir — the ResultStore backend, exposed for WithStore. It fails if
// another store, in this process or another, holds dir; Close releases
// it. On error the store is nil. The store counts its I/O in a registry
// of its own until a session's Run points it at the session's.
func OpenPackStore(dir string) (ResultStore, error) {
	p, err := pipeline.OpenPackStore(dir, nil)
	if err != nil {
		return nil, err // not a ResultStore holding a nil *PackStore
	}
	return p, nil
}
