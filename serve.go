package sibylfs

import (
	"context"

	"repro/internal/serveapi"
)

// Check-as-a-service vocabulary, re-exported (see internal/serve,
// internal/serveapi and ARCHITECTURE.md § Check as a service). The
// sfs-serve daemon runs suites submitted over HTTP against one shared
// result store; this file is the client side — submitting jobs and
// streaming records.
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
