package sibylfs

import (
	"context"

	"repro/internal/pipeline"
	"repro/internal/serveapi"
)

// Check-as-a-service vocabulary, re-exported (see internal/serve,
// internal/serveapi and ARCHITECTURE.md § Check as a service). The
// sfs-serve daemon runs suites submitted over HTTP and exports its
// result store so a fleet of clients shares one warm cache; this file
// is the client side — submitting jobs, streaming records, and opening
// the remote store as a Session cache backend.
type (
	// ServeClient talks to an sfs-serve daemon: SubmitJob, Job, Jobs,
	// Records (NDJSON streaming), Result, Wait, Cancel.
	ServeClient = serveapi.Client
	// ServeJobSpec describes one suite submission: universe name or
	// inline scripts, implementation under test, run config.
	ServeJobSpec = serveapi.JobSpec
	// ServeJobStatus is one job's externally visible state.
	ServeJobStatus = serveapi.JobStatus
)

// NewServeClient returns a client for the sfs-serve daemon rooted at
// base ("http://host:port").
func NewServeClient(base string) *ServeClient { return serveapi.NewClient(base) }

// SubmitJob submits one suite spec to the sfs-serve daemon at base and
// returns the accepted job's status (carrying its ID) — shorthand for
// NewServeClient(base).SubmitJob. Stream its records with
// ServeClient.Records, or poll ServeClient.Wait and fetch the finalized
// JSONL with ServeClient.Result.
func SubmitJob(ctx context.Context, base string, spec ServeJobSpec) (ServeJobStatus, error) {
	return NewServeClient(base).SubmitJob(ctx, spec)
}

// OpenHTTPStore opens a remote ResultStore speaking the sfs-serve
// /v1/store protocol at base. With a non-empty localDir, a local packed
// store under localDir/pack becomes the fallback: reads fall through to
// it when the server cannot answer, and write batches that exhaust
// their retries land in it instead of being dropped — a fleet client
// keeps working through a daemon outage, just colder. Values are
// CRC-verified end to end; torn or corrupt responses are cache misses,
// never errors. Pass the store to WithStore (the caller owns Close). On
// error the store is nil and the fallback, if one was opened, is closed.
func OpenHTTPStore(base, localDir string) (ResultStore, error) {
	var opts pipeline.HTTPStoreOptions
	if localDir != "" {
		fallback, err := pipeline.OpenCache(localDir)
		if err != nil {
			return nil, err
		}
		opts.Fallback = fallback
	}
	h, err := pipeline.OpenHTTPStore(base, opts)
	if err != nil {
		if opts.Fallback != nil {
			opts.Fallback.Close()
		}
		return nil, err
	}
	return h, nil
}

// WithRemoteCache backs the session's result cache with an sfs-serve
// daemon's shared store at base (see OpenHTTPStore). Combined with
// WithCacheDir, the local directory becomes the unreachable-server
// fallback instead of a standalone cache. Takes precedence over a bare
// WithCacheDir; WithStore still wins over both.
func WithRemoteCache(base string) Option { return func(s *Session) { s.remote = base } }
