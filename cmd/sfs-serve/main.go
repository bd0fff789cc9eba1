// sfs-serve is the check-as-a-service daemon: a long-running HTTP
// coordinator that accepts suite submissions (POST /v1/jobs), runs them
// in submission order on a pool of Session workers, streams per-record
// results as NDJSON, and serves every job from one content-addressed
// result store, so a resubmitted suite runs warm. All state lives under
// -data-dir: per-job journals and the packed result store, which one
// daemon at a time holds locked — kill the daemon, restart it on the
// same directory, and unfinished jobs run again with every trace they
// completed a cache hit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sfs-serve -data-dir DIR [flags]

The daemon serves, on -addr:
  POST /v1/jobs                submit a suite spec (JSON), returns the job
  GET  /v1/jobs                list jobs
  GET  /v1/jobs/{id}           job status
  GET  /v1/jobs/{id}/records   NDJSON record stream (live, then finalized)
  GET  /v1/jobs/{id}/stats     the job's isolated telemetry snapshot
  POST /v1/jobs/{id}/cancel    cooperative cancel
  GET  /v1/healthz             liveness probe

SIGINT/SIGTERM drain gracefully: running jobs cancel cooperatively, what
they completed stays in the result store, and the next start on the same
-data-dir re-enqueues them and finishes them from the store.

exit status: 0 clean shutdown, 1 error, 2 usage.

flags:
`)
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sfs-serve:", err)
	os.Exit(1)
}

func main() {
	// The daemon's one registry, created first so its uptime spans the
	// daemon's life: serve.* and the shared store's metrics land here, and
	// -stats-json and -debug-addr read it. Each job has its own, at
	// /v1/jobs/{id}/stats.
	tel := telemetry.NewRegistry()
	addr := flag.String("addr", "127.0.0.1:8373", "listen address for the service API")
	dataDir := flag.String("data-dir", "", "daemon state root: shared result store + per-job journals (required)")
	jobs := flag.Int("jobs", 2, "concurrent job slots (scheduler workers)")
	workers := flag.Int("w", 0, "pipeline workers per job (0 = GOMAXPROCS split across job slots)")
	statsJSON := flag.String("stats-json", "", "write a telemetry snapshot here on shutdown; - = stdout")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /stats.json and /debug/pprof on this address")
	verbose := flag.Bool("v", false, "log job transitions")
	showVersion := cliutil.VersionFlag(flag.CommandLine, "sfs-serve")
	flag.Parse()
	showVersion()
	if *dataDir == "" || flag.NArg() != 0 {
		usage()
	}

	if *debugAddr != "" {
		dbg, err := cliutil.StartDebug(*debugAddr, "sfs-serve", tel)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
	}

	opts := serve.Options{DataDir: *dataDir, Jobs: *jobs, Workers: *workers, Tel: tel}
	if *verbose {
		opts.Log = os.Stderr
	}
	srv, err := serve.New(opts)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hsrv := telemetry.NewHTTPServer(srv.Handler())
	fmt.Fprintf(os.Stderr, "sfs-serve: listening on http://%s/ (data %s, %d job slots)\n",
		ln.Addr(), *dataDir, *jobs)

	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Fprintln(os.Stderr, "sfs-serve: draining (running jobs are requeued for the next start)...")
	case err := <-errc:
		srv.Close()
		fatal(err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hsrv.Shutdown(shutdownCtx)
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sfs-serve: close:", err)
	}
	if *statsJSON != "" {
		if err := cliutil.WriteStats(*statsJSON, "sfs-serve", tel); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-serve: writing stats:", err)
		}
	}
}
