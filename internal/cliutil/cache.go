package cliutil

import (
	"fmt"
	"os"

	sibylfs "repro"
	"repro/internal/telemetry"
)

// CloseSession closes session's result cache, reporting a failure on
// stderr under tool's name. Every cache-using tool calls it once the
// cache's work is done, on each exit path (os.Exit skips defers): Close
// seals the packed store's index, so the next invocation opens the cache
// without scanning it, and unlocks the cache directory.
func CloseSession(tool string, session *sibylfs.Session) {
	if err := session.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: closing cache: %v\n", tool, err)
	}
}

// PrintCacheStats reports the session's result-store contents and the
// run's hit/miss telemetry, read from tel (the session's registry), on
// stdout — the shared implementation behind every tool's -cache-stats
// flag.
func PrintCacheStats(tool string, session *sibylfs.Session, tel *telemetry.Registry) {
	st, ok := session.CacheStats()
	if !ok {
		fmt.Fprintf(os.Stderr, "%s: -cache-stats: no cache configured (use -cache-dir)\n", tool)
		return
	}
	fmt.Printf("cache: backend=%s entries=%d segments=%d bytes=%d\n",
		st.Backend, st.Entries, st.Segments, st.Bytes)
	hits := tel.Counter("pipeline.cache_hits").Value()
	misses := tel.Counter("pipeline.cache_misses").Value()
	if total := hits + misses; total > 0 {
		fmt.Printf("cache: %d hits, %d misses (%.1f%% hit rate), %d stores, %d batches, %d fsyncs\n",
			hits, misses, 100*float64(hits)/float64(total),
			tel.Counter("pipeline.cache_stores").Value(),
			tel.Counter("pipeline.store_batches").Value(),
			tel.Counter("pipeline.store_fsyncs").Value())
	}
}
