package cliutil

import (
	"fmt"
	"os"
	"strings"

	sibylfs "repro"
	"repro/internal/telemetry"
)

// StoreUsage is the shared help text for the -store flag.
const StoreUsage = "cache backend: pack (segment store) or an sfs-serve URL (http://HOST:PORT shared fleet store; -cache-dir becomes its local fallback)"

// StoreOptions maps the shared -cache-dir/-store flags to session
// options, identically across every cache-using tool (sfs-run,
// sfs-report):
//
//   - "pack" (the default): a packed cache rooted at -cache-dir; no
//     -cache-dir means no cache, as before.
//   - "http://…" / "https://…": the shared store of the sfs-serve
//     daemon at that URL — usable without any -cache-dir (the fleet
//     cache is remote); with one, the local packed store becomes the
//     unreachable-server fallback.
func StoreOptions(cacheDir, storeName string) ([]sibylfs.Option, error) {
	if strings.HasPrefix(storeName, "http://") || strings.HasPrefix(storeName, "https://") {
		opts := []sibylfs.Option{sibylfs.WithRemoteCache(storeName)}
		if cacheDir != "" {
			opts = append(opts, sibylfs.WithCacheDir(cacheDir))
		}
		return opts, nil
	}
	if cacheDir == "" {
		// No cache root: pack has nowhere to live. Matches the old
		// per-tool behavior of ignoring -store without -cache-dir.
		return nil, nil
	}
	switch storeName {
	case "pack", "":
		return []sibylfs.Option{sibylfs.WithCacheDir(cacheDir)}, nil
	default:
		return nil, fmt.Errorf("unknown store backend %q (want pack or http://HOST:PORT)", storeName)
	}
}

// CloseSession closes session's result cache, reporting a failure on
// stderr under tool's name. Every cache-using tool calls it once the
// cache's work is done, on each exit path (os.Exit skips defers): Close
// seals the packed store's index, so the next invocation opens the cache
// without scanning it.
func CloseSession(tool string, session *sibylfs.Session) {
	if err := session.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: closing cache: %v\n", tool, err)
	}
}

// PrintCacheStats reports the session's result-store contents and the
// run's hit/miss telemetry on stdout — the shared implementation behind
// every tool's -cache-stats flag. Remote (http) stores additionally
// report their wire traffic: remote hits/misses, shipped batches, and
// the degraded paths (fallback reads/writes, dropped writes).
func PrintCacheStats(tool string, session *sibylfs.Session) {
	st, ok := session.CacheStats()
	if !ok {
		fmt.Fprintf(os.Stderr, "%s: -cache-stats: no cache configured (use -cache-dir or -store http://HOST:PORT)\n", tool)
		return
	}
	fmt.Printf("cache: backend=%s entries=%d segments=%d bytes=%d\n",
		st.Backend, st.Entries, st.Segments, st.Bytes)
	tel := telemetry.Default
	hits := tel.Counter("pipeline.cache_hits").Value()
	misses := tel.Counter("pipeline.cache_misses").Value()
	if total := hits + misses; total > 0 {
		fmt.Printf("cache: %d hits, %d misses (%.1f%% hit rate), %d stores, %d batches, %d fsyncs\n",
			hits, misses, 100*float64(hits)/float64(total),
			tel.Counter("pipeline.cache_stores").Value(),
			tel.Counter("pipeline.store_batches").Value(),
			tel.Counter("pipeline.store_fsyncs").Value())
	}
	if strings.HasPrefix(st.Backend, "http") {
		fmt.Printf("remote: %d gets (%d hits, %d misses), %d batches (%d entries), %d retries, %d errors\n",
			tel.Counter("pipeline.http_gets").Value(),
			tel.Counter("pipeline.http_hits").Value(),
			tel.Counter("pipeline.http_misses").Value(),
			tel.Counter("pipeline.http_batches").Value(),
			tel.Counter("pipeline.http_batch_entries").Value(),
			tel.Counter("pipeline.http_retries").Value(),
			tel.Counter("pipeline.http_errors").Value())
		fmt.Printf("remote: %d fallback reads, %d fallback writes, %d dropped writes\n",
			tel.Counter("pipeline.http_fallback_gets").Value(),
			tel.Counter("pipeline.http_fallback_puts").Value(),
			tel.Counter("pipeline.http_dropped_puts").Value())
	}
}
