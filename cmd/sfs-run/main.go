// sfs-run is the batch orchestrator: it drives the whole Fig 1 flow
// (generate/load scripts → execute → check) through the sharded,
// cache-backed pipeline, streaming per-trace records to a JSONL sink that
// doubles as a crash-safe resume journal. Unchanged traces are skipped on
// re-runs via the content-addressed result cache; -shards/-shard split one
// suite across invocations or machines. Ctrl-C (or -timeout) cancels the
// run cooperatively: completed records stay journaled and a later
// -resume invocation finishes the suite without re-executing them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	sibylfs "repro"
	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sfs-run -fs NAME [flags]
       sfs-run -merge OUT.jsonl SHARD.jsonl...

-fs selects the implementation under test:
  host            the real file system (in a temp-dir jail; implies -w 1)
  spec:PLATFORM   the determinized model (posix|linux|mac_os_x|freebsd)
  NAME            a memfs survey profile (ext4, btrfs, posixovl_vfat_1.2, ...)

Without -i, the generated suite is used (with -concurrent: the concurrent
multi-process universe; with -crash: the crash-consistency universe, checked
against a persistence-aware model). Results stream to the -jsonl sink as
they finish;
-resume recovers an interrupted run and skips completed traces. With
-cache-dir, traces whose (script, model version, run config) key is cached
are never re-executed — edit one script and only it re-runs; bump the
model version and everything does.

SIGINT/SIGTERM and -timeout cancel cooperatively: the journal keeps every
completed record and -resume finishes the run later.

exit status: 0 all traces accepted, 1 error, 2 usage, 3 deviations found,
4 cancelled (interrupt or timeout; journal resumable).

flags:
`)
	flag.PrintDefaults()
	os.Exit(2)
}

// session is the run's session once built. Every exit after that closes
// it (closeSession), fatal ones included.
var session *sibylfs.Session

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sfs-run:", err)
	closeSession()
	os.Exit(1)
}

func closeSession() {
	if session != nil {
		cliutil.CloseSession("sfs-run", session)
	}
}

func main() {
	fsName := flag.String("fs", "", "implementation under test")
	specName := flag.String("p", "linux", "model variant: posix|linux|mac_os_x|freebsd")
	noPerms := flag.Bool("noperms", false, "disable the permissions trait")
	inDir := flag.String("i", "", "directory of .script files (default: generated suite)")
	sample := flag.Int("sample", 1, "use every Nth script (1 = all)")
	workers := flag.Int("w", 0, "cross-trace workers (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1, "total number of shards the suite is split into")
	shard := flag.Int("shard", 0, "this invocation's shard index, in [0,shards)")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache (skip unchanged traces)")
	storeName := flag.String("store", "pack", cliutil.StoreUsage)
	cacheStats := flag.Bool("cache-stats", false, "print result-store contents and hit/miss ratios on exit")
	jsonl := flag.String("jsonl", "run.jsonl", "JSONL result sink / resume journal")
	resume := flag.Bool("resume", false, "recover the sink journal and skip already-completed traces")
	merge := flag.Bool("merge", false, "merge shard sinks: sfs-run -merge OUT.jsonl IN.jsonl...")
	concurrent := flag.Bool("concurrent", false, "run script processes concurrently")
	schedSeed := flag.Int64("sched-seed", 0, "with -concurrent: deterministic scheduler seed (0 = free-running)")
	crashMode := flag.Bool("crash", false, "crash-consistency universe: persistence-aware model, crash-profiled implementation")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (journal stays resumable; exit 4)")
	outDir := flag.String("o", "", "directory for .checked files (optional)")
	htmlPath := flag.String("html", "", "write the HTML analysis index here (optional)")
	statsJSON := flag.String("stats-json", "", "write a telemetry snapshot (counters, latency histograms) here on exit; - = stdout")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /stats.json and /debug/pprof on this address while running")
	verbose := flag.Bool("v", false, "log pipeline progress")
	showVersion := cliutil.VersionFlag(flag.CommandLine, "sfs-run")
	flag.Parse()
	showVersion()

	if *merge {
		if flag.NArg() < 2 {
			usage()
		}
		if err := pipeline.MergeRecords(flag.Arg(0), flag.Args()[1:]...); err != nil {
			fatal(err)
		}
		return
	}
	if *fsName == "" || flag.NArg() != 0 {
		usage()
	}
	pl, ok := sibylfs.ParsePlatformName(*specName)
	if !ok {
		fmt.Fprintf(os.Stderr, "sfs-run: unknown platform %q\n", *specName)
		os.Exit(2)
	}
	spec := sibylfs.SpecFor(pl)
	spec.Permissions = !*noPerms
	spec.Crash = *crashMode // part of the pipeline cache key (SpecHash)

	if *debugAddr != "" {
		srv, err := cliutil.StartDebug(*debugAddr, "sfs-run")
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
	}
	// writeStats runs on every deliberate exit — success, deviations
	// (exit 3) and cancellation (exit 4) — so interrupted runs still leave
	// their evidence. os.Exit skips defers, hence the explicit calls.
	writeStats := func() {
		if *statsJSON == "" {
			return
		}
		if err := cliutil.WriteStats(*statsJSON, "sfs-run"); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-run: writing stats:", err)
		}
	}
	// printCacheStats reports the result store's contents and this run's
	// hit/miss split; like writeStats it runs on every deliberate exit so
	// cancelled runs still show what the cache absorbed. With a remote
	// (-store http://…) backend it reports the wire traffic too — hits,
	// misses, batches and the degraded fallback paths. Both bracket
	// closeSession: the cache is read open, and the stats include the
	// index write Close makes.
	printCacheStats := func() {
		if !*cacheStats || session == nil {
			return
		}
		cliutil.PrintCacheStats("sfs-run", session)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	universe, err := cliutil.Universe(*concurrent, *crashMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-run:", err)
		os.Exit(2)
	}
	var fs cliutil.FSChoice
	if *crashMode {
		var cerr error
		fs, cerr = cliutil.PickCrashFS(*fsName)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "sfs-run:", cerr)
			os.Exit(2)
		}
	} else {
		var ok bool
		fs, ok = cliutil.PickFS(*fsName)
		if !ok {
			usage()
		}
	}
	w := *workers
	if fs.Serial {
		w = 1
	}
	opts := []sibylfs.Option{
		sibylfs.WithSpec(spec),
		sibylfs.WithWorkers(w),
		sibylfs.WithJournal(*jsonl),
	}
	storeOpts, err := cliutil.StoreOptions(*cacheDir, *storeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-run:", err)
		os.Exit(2)
	}
	opts = append(opts, storeOpts...)
	if *resume {
		opts = append(opts, sibylfs.WithResume())
	}
	if *verbose {
		opts = append(opts, sibylfs.WithLog(os.Stderr))
	}
	session = sibylfs.New(opts...)

	scripts, err := cliutil.SessionScripts(ctx, session, *inDir, universe)
	if err != nil {
		fatal(err)
	}
	if fs.HostOnly {
		scripts = sibylfs.FilterHostSafe(scripts)
	}
	if *sample > 1 {
		var sel []*sibylfs.Script
		for i := 0; i < len(scripts); i += *sample {
			sel = append(sel, scripts[i])
		}
		scripts = sel
	}

	records, stats, err := session.Run(ctx, sibylfs.RunJob{
		Name:       fmt.Sprintf("%s vs %s", *fsName, pl),
		Scripts:    scripts,
		Factory:    fs.Factory,
		FSName:     *fsName,
		Shards:     *shards,
		Shard:      *shard,
		Concurrent: *concurrent,
		SchedSeed:  *schedSeed,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			stop() // restore default signal handling: a second Ctrl-C kills
			fmt.Fprintf(os.Stderr, "sfs-run: cancelled (%v); journal %s keeps %s — rerun with -resume to finish\n",
				err, *jsonl, stats)
			printCacheStats()
			closeSession()
			writeStats()
			os.Exit(4)
		}
		fatal(err)
	}

	// Report over the whole sink (it may hold other shards' records from
	// earlier resumed invocations): Run returns the records the finalized
	// file holds, in its order.
	span := telemetry.Default.Span("cli.summary")
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		for _, rec := range records {
			path := filepath.Join(*outDir, rec.Name+".checked")
			if err := os.WriteFile(path, []byte(rec.Checked), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	name := fmt.Sprintf("%s vs %s", *fsName, pl)
	summary := pipeline.Summarise(name, records)
	fmt.Print(summary)
	fmt.Printf("pipeline: %s (sink %s: %d records)\n", stats, *jsonl, len(records))
	span.End()
	if *htmlPath != "" {
		span := telemetry.Default.Span("cli.html")
		html, err := analysis.RenderIndexHTML(summary)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*htmlPath, []byte(html), 0o644); err != nil {
			fatal(err)
		}
		span.End()
	}
	if summary.CapHits > 0 {
		fmt.Fprintf(os.Stderr, "sfs-run: warning: %d trace(s) hit the oracle's state-set cap; "+
			"verdicts for them are best-effort\n", summary.CapHits)
	}
	printCacheStats()
	closeSession()
	writeStats()
	if summary.Rejected > 0 {
		os.Exit(3)
	}
}
