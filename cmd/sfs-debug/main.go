// sfs-debug is the model-debugging tool of §2: it takes a trace and
// produces a description of the model states that the oracle tracks at
// every step — "extremely useful for developing the model, but we do not
// expect end users of SibylFS to need it". It walks the checker's own
// steps, so the sets it shows are the ones the oracle checks against,
// deduplicated and capped, and it continues past a deviation with the
// oracle's Fig 4 recovery. A trace with a crash label is walked under
// the persistence model (Spec.Crash). Ctrl-C cancels between steps (a
// pathological closure dump can run long).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	sibylfs "repro"
	"repro/internal/checker"
	"repro/internal/cliutil"
	"repro/internal/osspec"
	"repro/internal/trace"
	"repro/internal/types"
)

func main() {
	platform := flag.String("p", "linux", "model variant")
	verbose := flag.Bool("v", false, "dump every tracked state (not just counts)")
	showVersion := cliutil.VersionFlag(flag.CommandLine, "sfs-debug")
	flag.Parse()
	showVersion()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sfs-debug [-p PLATFORM] [-v] TRACE-FILE")
		os.Exit(2)
	}
	pl, ok := types.ParsePlatform(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "sfs-debug: unknown platform %q\n", *platform)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Stdout, flag.Arg(0), pl, *verbose)
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "sfs-debug: cancelled")
		os.Exit(4)
	case err != nil:
		fmt.Fprintln(os.Stderr, "sfs-debug:", err)
		os.Exit(1)
	}
}

// run describes, on w, the states the oracle tracks while it checks the
// trace in the file at path against the model variant pl (with Crash set
// when the trace has a crash label): for every step, its τ expansions,
// any deviation with its diagnosis, and the size (with verbose, the
// contents) of the tracked set it leaves.
func run(ctx context.Context, w io.Writer, path string, pl types.Platform, verbose bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tr, err := sibylfs.ParseTrace(string(data))
	if err != nil {
		return err
	}
	spec := sibylfs.SpecFor(pl)
	spec.Crash = trace.HasCrashLabel(tr.Steps) // only the persistence model admits a power cycle
	chk := checker.New(spec)
	walk := chk.Walk(ctx, tr.Name)
	fmt.Fprintf(w, "# model-debug of %s (%s variant)\n\n", path, pl)
	var states []*osspec.OsState
	var before checker.Result
	for _, st := range tr.Steps {
		fmt.Fprintf(w, "step %d: %s\n", st.Line, st.Label)
		if states, err = walk.Step(st); err != nil {
			return err
		}
		after, _ := walk.Result()
		if n := after.TauExpansions - before.TauExpansions; n > 0 {
			fmt.Fprintf(w, "  τ-closure: %d expansions\n", n)
		}
		for _, e := range after.Errors[len(before.Errors):] {
			fmt.Fprint(w, indent(e.Message()))
		}
		if after.StateSetCapHit && !before.StateSetCapHit {
			fmt.Fprintf(w, "  !! state set capped at %d states; the verdict is best-effort\n", chk.MaxStateSet)
		}
		before = after
		fmt.Fprintf(w, "  tracking %d state(s)\n", len(states))
		if verbose {
			for i, s := range states {
				fmt.Fprintf(w, "  --- state %d ---\n", i)
				fmt.Fprint(w, indent(s.Dump()))
			}
		}
	}
	if len(states) > 0 {
		fmt.Fprintln(w, "\nfinal state(s):")
		fmt.Fprint(w, indent(states[0].Dump()))
		if len(states) > 1 {
			fmt.Fprintf(w, "  (and %d more)\n", len(states)-1)
		}
	}
	res, _ := walk.Result()
	fmt.Fprintf(w, "\n# %d steps, peak %d states, %d τ expansions\n", res.Steps, res.MaxStates, res.TauExpansions)
	if res.Accepted {
		fmt.Fprintln(w, "# Trace accepted.")
	} else {
		fmt.Fprintf(w, "# Trace NOT accepted: %d error(s).\n", len(res.Errors))
	}
	return nil
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "  " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
