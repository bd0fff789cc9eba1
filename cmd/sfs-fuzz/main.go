// sfs-fuzz is the coverage-guided script fuzzer: it mutates test scripts,
// drives them against an implementation under test, admits inputs that
// reach new model coverage points to a persistent corpus, and minimizes
// every spec deviation it finds (§8/§9 future work of the paper, made a
// feedback loop). Ctrl-C ends the session gracefully: the corpus is
// already persisted and the findings collected so far are reported.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	sibylfs "repro"
	"repro/internal/cliutil"
)

const usageText = `usage: sfs-fuzz -fs NAME [flags]

-fs selects the implementation under test:
  spec:PLATFORM   the determinized model (posix|linux|mac_os_x|freebsd)
  NAME            a memfs survey profile (ext4, btrfs, posixovl_vfat_1.2, ...)
  host            refused: the temp-dir jail does not confine symlink
                  targets, and fuzzed scripts create such symlinks

The model variant defaults to the profile's platform; override with -spec.
With -crash the implementation simulates persistence, the oracle checks
durability (Spec.Crash), and mutations insert fsync/sync barriers and
crash labels alongside the usual operators.
The session ends at -duration, after -runs candidates, or on Ctrl-C — all
graceful: corpus and findings are reported.

exit status: 0 no deviations, 1 error, 2 usage, 3 deviations found.

flags:
`

// hostRefusal is why -fs host is refused. hostPath rewrites a script's
// paths into the jail, but the kernel follows symlink contents as they
// are: a fuzzed target such as "/" or "../x" resolves outside the jail,
// and the fuzzer draws exactly such targets.
const hostRefusal = "-fs host is refused: the temp-dir jail does not confine symlink targets, " +
	"so a fuzzed symlink (absolute, or climbing with ..) escapes it to the real file system"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is sfs-fuzz on args, reporting on stdout and stderr; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	// The session's one registry, created first so its uptime spans the
	// run: the session records into it, and -stats-json and -debug-addr
	// read it.
	tel := sibylfs.NewTelemetryRegistry()
	flags := flag.NewFlagSet("sfs-fuzz", flag.ContinueOnError)
	flags.SetOutput(stderr)
	flags.Usage = func() {
		fmt.Fprint(stderr, usageText)
		flags.PrintDefaults()
	}
	fsName := flags.String("fs", "", "implementation under test")
	specName := flags.String("spec", "", "model variant to check against (posix|linux|mac_os_x|freebsd)")
	duration := flags.Duration("duration", 30*time.Second, "wall-clock bound on the session, applied as a context deadline covering corpus seeding and the fuzz loop (0 with -runs for a run-bounded session)")
	runs := flags.Int64("runs", 0, "stop after this many candidate executions (0 = until the time bound)")
	workers := flags.Int("workers", 4, "parallel fuzzing workers")
	seed := flags.Int64("seed", 1, "session seed (reproducible with -workers 1)")
	corpus := flags.String("corpus", "", "corpus directory to persist/resume (also receives findings)")
	steps := flags.Int("steps", 30, "max steps per candidate script")
	concurrent := flags.Bool("concurrent", false, "execute candidates with the concurrent executor (seeded scheduler, seed = -seed) and seed the corpus with the multi-process universe")
	crashMode := flags.Bool("crash", false, "fuzz durability semantics: crash-capable implementation, Spec.Crash model, fsync/sync and crash-label mutations, corpus seeded with the crash___ universe (excludes -concurrent)")
	outDir := flags.String("o", "", "directory for report.html and summary.txt (default: -corpus dir, if set)")
	statsJSON := flags.String("stats-json", "", "write a telemetry snapshot (runs, corpus, latency histograms) here on exit; - = stdout")
	debugAddr := flags.String("debug-addr", "", "serve /metrics, /stats.json and /debug/pprof on this address while fuzzing")
	verbose := flags.Bool("v", false, "log corpus admissions, findings and progress")
	showVersion := cliutil.VersionFlag(flags, "sfs-fuzz")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	showVersion()
	if *fsName == "" {
		flags.Usage()
		return 2
	}
	if *fsName == "host" {
		fmt.Fprintln(stderr, "sfs-fuzz:", hostRefusal)
		return 2
	}
	if *debugAddr != "" {
		srv, err := cliutil.StartDebug(*debugAddr, "sfs-fuzz", tel)
		if err != nil {
			fmt.Fprintln(stderr, "sfs-fuzz:", err)
			return 1
		}
		defer srv.Close()
	}
	writeStats := func() {
		if *statsJSON == "" {
			return
		}
		if err := cliutil.WriteStats(*statsJSON, "sfs-fuzz", tel); err != nil {
			fmt.Fprintln(stderr, "sfs-fuzz: writing stats:", err)
		}
	}

	universe, err := cliutil.Universe(*concurrent, *crashMode)
	if err != nil {
		fmt.Fprintln(stderr, "sfs-fuzz:", err)
		return 2
	}
	target, err := cliutil.Resolve(*fsName, *specName, universe, false)
	if err != nil {
		fmt.Fprintln(stderr, "sfs-fuzz:", err)
		return 2
	}
	if target.Fallback {
		// Say so, or a typo'd defect profile would silently fuzz a
		// defect-free conforming Linux memfs and report "no deviations
		// found".
		fmt.Fprintf(stderr, "sfs-fuzz: note: %q is not a survey profile; fuzzing a conforming Linux memfs under that name\n", *fsName)
	}

	// Ctrl-C/SIGTERM cancel the session context; the engine treats that as
	// the end of the session, exactly like the -duration deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	opts := []sibylfs.Option{
		sibylfs.WithSpec(target.Spec),
		sibylfs.WithWorkers(*workers),
		sibylfs.WithTelemetry(tel),
	}
	if *verbose {
		opts = append(opts, sibylfs.WithLog(stderr))
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
		fmt.Fprintln(stderr, "sfs-fuzz:", err)
		return 1
	}

	fmt.Fprintf(stdout, "%s: %d runs in %v (%.0f/s), %d exec errors\n",
		job.Name, res.Runs, res.Elapsed.Round(time.Millisecond),
		float64(res.Runs)/res.Elapsed.Seconds(), res.ExecErrors)
	fmt.Fprintf(stdout, "corpus: %d entries (%d new), model coverage %d/%d points (started at %d)\n",
		res.CorpusSize, res.NewEntries, res.CovHit, res.CovTotal, res.InitialCovHit)
	if len(res.Findings) == 0 && res.Crashes == 0 {
		fmt.Fprintln(stdout, "no deviations found")
	} else {
		fmt.Fprint(stdout, res.Summary)
		for _, f := range res.Findings {
			fmt.Fprintf(stdout, "  %s [%s] %d steps (+%d duplicates)\n", f.Name, f.Kind, len(f.Script.Steps), f.Dups)
		}
	}

	dir := *outDir
	if dir == "" {
		dir = *corpus
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "sfs-fuzz:", err)
			return 1
		}
		if err := os.WriteFile(filepath.Join(dir, "report.html"), []byte(res.HTML), 0o644); err != nil {
			fmt.Fprintln(stderr, "sfs-fuzz:", err)
			return 1
		}
		if err := os.WriteFile(filepath.Join(dir, "summary.txt"), []byte(res.Summary.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "sfs-fuzz:", err)
			return 1
		}
		fmt.Fprintf(stdout, "report: %s\n", filepath.Join(dir, "report.html"))
	}
	writeStats()
	if len(res.Findings) > 0 || res.Crashes > 0 {
		return 3 // deviations found: distinct from usage/config errors
	}
	return 0
}
