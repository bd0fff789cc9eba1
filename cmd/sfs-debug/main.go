// sfs-debug is the model-debugging tool of §2: it takes a trace and
// produces a description of the model states that the oracle tracks at
// every step — "extremely useful for developing the model, but we do not
// expect end users of SibylFS to need it". Ctrl-C cancels between steps
// (a pathological closure dump can run long).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	sibylfs "repro"
	"repro/internal/cliutil"
	"repro/internal/osspec"
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
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-debug:", err)
		os.Exit(1)
	}
	tr, err := sibylfs.ParseTrace(string(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-debug:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	states := []*osspec.OsState{osspec.NewOsState(sibylfs.SpecFor(pl))}
	var tau osspec.ClosureScratch // every closure's working storage
	fmt.Printf("# model-debug of %s (%s variant)\n\n", flag.Arg(0), pl)
	for _, st := range tr.Steps {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "sfs-debug: cancelled")
			os.Exit(4)
		}
		fmt.Printf("step %d: %s\n", st.Line, st.Label)
		var next []*osspec.OsState
		if _, ok := st.Label.(types.ReturnLabel); ok {
			// Close over τ first, as the checker does: pending calls of any
			// process may have been processed in any order by now. The
			// closure is the checker's, with the same cancellation points,
			// so the dump shows the same states in the same order the
			// oracle tracks them.
			expanded, taus, _ := osspec.TauClosureWith(states, osspec.ClosureOpts{Dedup: true, Ctx: ctx, Scratch: &tau})
			if taus > 0 {
				fmt.Printf("  τ-closure: %d states (%d expansions)\n", len(expanded), taus)
			}
			for _, s := range expanded {
				next = append(next, osspec.Trans(s, st.Label, nil)...)
			}
		} else {
			for _, s := range states {
				next = append(next, osspec.Trans(s, st.Label, nil)...)
			}
		}
		if len(next) == 0 {
			fmt.Printf("  !! no tracked state allows this step; stopping\n")
			break
		}
		states = next
		fmt.Printf("  tracking %d state(s)\n", len(states))
		if *verbose {
			for i, s := range states {
				fmt.Printf("  --- state %d ---\n", i)
				fmt.Print(indent(s.Dump()))
			}
		}
	}
	if len(states) > 0 {
		fmt.Println("\nfinal state(s):")
		fmt.Print(indent(states[0].Dump()))
		if len(states) > 1 {
			fmt.Printf("  (and %d more)\n", len(states)-1)
		}
	}
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
