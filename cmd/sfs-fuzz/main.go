// sfs-fuzz is the coverage-guided script fuzzer: it mutates test scripts,
// drives them against an implementation under test, admits inputs that
// reach new model coverage points to a persistent corpus, and minimizes
// every spec deviation it finds (§8/§9 future work of the paper, made a
// feedback loop). Ctrl-C ends the session gracefully: the corpus is
// already persisted and the findings collected so far are reported.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	sibylfs "repro"
	"repro/internal/cliutil"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sfs-fuzz -fs NAME [flags]

-fs selects the implementation under test:
  host            the real file system (in a temp-dir jail; implies -workers 1)
  spec:PLATFORM   the determinized model (posix|linux|mac_os_x|freebsd)
  NAME            a memfs survey profile (ext4, btrfs, posixovl_vfat_1.2, ...)

The model variant defaults to the profile's platform; override with -spec.
With -crash the implementation simulates persistence, the oracle checks
durability (Spec.Crash), and mutations insert fsync/sync barriers and
crash labels alongside the usual operators.
The session ends at -duration/-timeout (whichever is shorter), after -runs
candidates, or on Ctrl-C — all graceful: corpus and findings are reported.

exit status: 0 no deviations, 1 error, 2 usage, 3 deviations found.

flags:
`)
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	fsName := flag.String("fs", "", "implementation under test")
	specName := flag.String("spec", "", "model variant to check against (posix|linux|mac_os_x|freebsd)")
	duration := flag.Duration("duration", 30*time.Second, "wall-clock bound on the session, applied as a context deadline covering corpus seeding and the fuzz loop (0 with -runs for a run-bounded session)")
	timeout := flag.Duration("timeout", 0, "same deadline mechanism as -duration (0 = none); the shorter of the two bounds the session — use it to cap a -duration 0 -runs N session in CI")
	runs := flag.Int64("runs", 0, "stop after this many candidate executions (0 = until the time bound)")
	workers := flag.Int("workers", 4, "parallel fuzzing workers")
	seed := flag.Int64("seed", 1, "session seed (reproducible with -workers 1)")
	corpus := flag.String("corpus", "", "corpus directory to persist/resume (also receives findings)")
	steps := flag.Int("steps", 30, "max steps per candidate script")
	concurrent := flag.Bool("concurrent", false, "execute candidates with the concurrent executor (seeded scheduler, seed = -seed) and seed the corpus with the multi-process universe")
	crashMode := flag.Bool("crash", false, "fuzz durability semantics: crash-capable implementation, Spec.Crash model, fsync/sync and crash-label mutations, corpus seeded with the crash___ universe (excludes -concurrent and -fs host)")
	outDir := flag.String("o", "", "directory for report.html and summary.txt (default: -corpus dir, if set)")
	statsJSON := flag.String("stats-json", "", "write a telemetry snapshot (runs, corpus, latency histograms) here on exit; - = stdout")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /stats.json and /debug/pprof on this address while fuzzing")
	verbose := flag.Bool("v", false, "log corpus admissions, findings and progress")
	showVersion := cliutil.VersionFlag(flag.CommandLine, "sfs-fuzz")
	flag.Parse()
	showVersion()
	if *fsName == "" {
		usage()
	}
	if *debugAddr != "" {
		srv, err := cliutil.StartDebug(*debugAddr, "sfs-fuzz")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfs-fuzz:", err)
			os.Exit(1)
		}
		defer srv.Close()
	}
	writeStats := func() {
		if *statsJSON == "" {
			return
		}
		if err := cliutil.WriteStats(*statsJSON, "sfs-fuzz"); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-fuzz: writing stats:", err)
		}
	}

	universe, err := cliutil.Universe(*concurrent, *crashMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-fuzz:", err)
		os.Exit(2)
	}
	target, err := cliutil.Resolve(*fsName, *specName, universe, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-fuzz:", err)
		os.Exit(2)
	}
	if target.Fallback {
		// Say so, or a typo'd defect profile would silently fuzz a
		// defect-free conforming Linux memfs and report "no deviations
		// found".
		fmt.Fprintf(os.Stderr, "sfs-fuzz: note: %q is not a survey profile; fuzzing a conforming Linux memfs under that name\n", *fsName)
	}
	w := *workers
	if target.Serial {
		w = 1
	}

	// Ctrl-C/SIGTERM cancel the session context; the engine treats that as
	// the end of the session, exactly like the -duration deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	opts := []sibylfs.Option{
		sibylfs.WithSpec(target.Spec),
		sibylfs.WithWorkers(w),
	}
	if *verbose {
		opts = append(opts, sibylfs.WithLog(os.Stderr))
	}
	session := sibylfs.New(opts...)

	job := sibylfs.FuzzJob{
		Name:       fmt.Sprintf("sfs-fuzz %s vs %s", *fsName, target.Spec.Platform),
		Factory:    target.Factory,
		Seed:       *seed,
		MaxRuns:    *runs,
		MaxSteps:   *steps,
		CorpusDir:  *corpus,
		Concurrent: *concurrent,
	}
	if target.Universe != cliutil.UniverseSequential {
		// Seed the corpus with the universe the candidates explore.
		job.Seeds, _ = target.Scripts(ctx, session, "", 1)
	}

	res, err := session.Fuzz(ctx, job)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-fuzz:", err)
		os.Exit(1)
	}

	fmt.Printf("%s: %d runs in %v (%.0f/s), %d exec errors\n",
		job.Name, res.Runs, res.Elapsed.Round(time.Millisecond),
		float64(res.Runs)/res.Elapsed.Seconds(), res.ExecErrors)
	fmt.Printf("corpus: %d entries (%d new), model coverage %d/%d points (started at %d)\n",
		res.CorpusSize, res.NewEntries, res.CovHit, res.CovTotal, res.InitialCovHit)
	if len(res.Findings) == 0 && res.Crashes == 0 {
		fmt.Println("no deviations found")
	} else {
		fmt.Print(res.Summary)
		for _, f := range res.Findings {
			fmt.Printf("  %s [%s] %d steps (+%d duplicates)\n", f.Name, f.Kind, len(f.Script.Steps), f.Dups)
		}
	}

	dir := *outDir
	if dir == "" {
		dir = *corpus
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-fuzz:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(filepath.Join(dir, "report.html"), []byte(res.HTML), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-fuzz:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(filepath.Join(dir, "summary.txt"), []byte(res.Summary.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-fuzz:", err)
			os.Exit(1)
		}
		fmt.Printf("report: %s\n", filepath.Join(dir, "report.html"))
	}
	writeStats()
	if len(res.Findings) > 0 || res.Crashes > 0 {
		os.Exit(3) // deviations found: distinct from usage/config errors
	}
}
