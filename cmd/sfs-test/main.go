// sfs-test executes test scripts against a file system under test and
// writes the observed traces — the test-executor half of Fig 1. Ctrl-C
// or -timeout cancels between scripts (exit 4, nothing written).
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
	"repro/internal/cliutil"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sfs-test -fs NAME [-i DIR] [-o DIR] [-w N] [-concurrent [-sched-seed N]] [-crash]

-fs selects the implementation under test:
  host            the real file system (in a temp-dir jail)
  spec:PLATFORM   the determinized model (posix|linux|mac_os_x|freebsd)
  NAME            a memfs survey profile (ext4, btrfs, posixovl_vfat_1.2, ...)

Without -i, the generated suite is used (with -concurrent: the concurrent
multi-process universe; with -crash: the crash-consistency universe).

-concurrent runs each script's processes concurrently — one goroutine per
process, calls genuinely interleaved in the recorded trace. -sched-seed N
(N ≠ 0) replaces the free-running goroutines with a deterministic seeded
scheduler, so the interleaving is reproducible: same script and seed,
byte-identical trace.

-crash selects the crash-consistency universe and a persistence-simulating
implementation: scripts contain fsync/sync barriers and crash labels, the
implementation tracks durable vs pending state and remounts at each crash.
Sequential executor only; -fs host is rejected.
`)
	os.Exit(2)
}

func main() {
	fsName := flag.String("fs", "", "implementation under test")
	inDir := flag.String("i", "", "directory of .script files (default: generated suite)")
	outDir := flag.String("o", "", "directory for .trace files (default: stdout summary only)")
	workers := flag.Int("w", 0, "parallel workers (0 = GOMAXPROCS)")
	concurrent := flag.Bool("concurrent", false, "run script processes concurrently (one goroutine per process)")
	schedSeed := flag.Int64("sched-seed", 0, "with -concurrent: deterministic scheduler seed (0 = free-running)")
	crashMode := flag.Bool("crash", false, "crash-consistency universe against a persistence-simulating implementation")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (exit 4, like Ctrl-C)")
	showVersion := cliutil.VersionFlag(flag.CommandLine, "sfs-test")
	flag.Parse()
	showVersion()
	if *fsName == "" {
		usage()
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
		fmt.Fprintln(os.Stderr, "sfs-test:", err)
		os.Exit(2)
	}
	target, err := cliutil.Resolve(*fsName, "", universe, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-test:", err)
		os.Exit(2)
	}
	w := *workers
	if target.Serial {
		w = 1
	}
	session := sibylfs.New(sibylfs.WithWorkers(w))
	scripts, err := target.Scripts(ctx, session, *inDir, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-test:", err)
		os.Exit(1)
	}
	var traces []*sibylfs.Trace
	if *concurrent {
		traces, err = session.ExecuteConcurrent(ctx, scripts, target.Factory, sibylfs.ConcurrentOptions{
			Seeded: *schedSeed != 0,
			Seed:   *schedSeed,
		})
	} else {
		traces, err = session.Execute(ctx, scripts, target.Factory)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "sfs-test: cancelled")
			os.Exit(4)
		}
		fmt.Fprintln(os.Stderr, "sfs-test:", err)
		os.Exit(1)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-test:", err)
			os.Exit(1)
		}
		for _, t := range traces {
			path := filepath.Join(*outDir, t.Name+".trace")
			if err := os.WriteFile(path, []byte(t.Render()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "sfs-test:", err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("executed %d scripts on %s\n", len(traces), *fsName)
}
