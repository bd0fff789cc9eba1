// sfs-check is the trace-checking half of Fig 1: it runs the oracle over
// trace files and writes checked traces with diagnoses. A trace with a
// crash label is checked under the persistence model (Spec.Crash), which
// alone admits a power cycle. Ctrl-C or -timeout cancels between traces
// (exit 4, nothing written).
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

	sibylfs "repro"
	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/trace"
)

func main() {
	inDir := flag.String("i", "", "directory of .trace files")
	outDir := flag.String("o", "", "directory for .checked files (optional)")
	platform := flag.String("p", "linux", "model variant: posix|linux|mac_os_x|freebsd")
	noPerms := flag.Bool("noperms", false, "disable the permissions trait")
	workers := flag.Int("w", 0, "parallel workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "cancel checking after this long (exit 4, like Ctrl-C)")
	showVersion := cliutil.VersionFlag(flag.CommandLine, "sfs-check")
	flag.Parse()
	showVersion()
	if *inDir == "" {
		fmt.Fprintln(os.Stderr, "usage: sfs-check -i DIR [-o DIR] [-p PLATFORM]")
		os.Exit(2)
	}
	pl, ok := sibylfs.ParsePlatformName(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "sfs-check: unknown platform %q\n", *platform)
		os.Exit(2)
	}
	spec := sibylfs.SpecFor(pl)
	spec.Permissions = !*noPerms

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	name := fmt.Sprintf("%s vs %s", *inDir, *platform)
	summary, err := run(ctx, os.Stdout, *inDir, *outDir, name, spec, *workers)
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "sfs-check: cancelled")
		os.Exit(4)
	case err != nil:
		fmt.Fprintln(os.Stderr, "sfs-check:", err)
		os.Exit(1)
	}
	if summary.CapHits > 0 {
		fmt.Fprintf(os.Stderr, "sfs-check: warning: %d trace(s) hit the oracle's state-set cap; "+
			"verdicts for them are best-effort\n", summary.CapHits)
	}
	if summary.Rejected > 0 {
		os.Exit(1)
	}
}

// run checks every .trace file in inDir against spec, writes the checked
// traces to outDir when it is given, and prints the run summary, titled
// name, on w. Traces with a crash label are checked as a second group
// under spec with Crash set; results keep the directory's order.
func run(ctx context.Context, w io.Writer, inDir, outDir, name string, spec sibylfs.Spec, workers int) (*analysis.RunSummary, error) {
	traces, err := cliutil.LoadTraces(inDir)
	if err != nil {
		return nil, err
	}
	results := make([]sibylfs.CheckResult, len(traces))
	for _, crash := range []bool{false, true} {
		var group []*sibylfs.Trace
		var at []int // group[k] is traces[at[k]]
		for i, t := range traces {
			if trace.HasCrashLabel(t.Steps) == crash {
				group, at = append(group, t), append(at, i)
			}
		}
		if len(group) == 0 {
			continue
		}
		sp := spec
		sp.Crash = crash
		res, err := sibylfs.New(sibylfs.WithSpec(sp), sibylfs.WithWorkers(workers)).Check(ctx, group)
		if err != nil {
			return nil, err
		}
		for k, i := range at {
			results[i] = res[k]
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		for i, r := range results {
			path := filepath.Join(outDir, traces[i].Name+".checked")
			if err := os.WriteFile(path, []byte(sibylfs.RenderChecked(traces[i], r)), 0o644); err != nil {
				return nil, err
			}
		}
	}
	summary := analysis.Summarise(name, traces, results)
	fmt.Fprint(w, summary)
	return summary, nil
}
