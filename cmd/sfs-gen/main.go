// sfs-gen generates the SibylFS test suite and writes one script file per
// test into the output directory (or prints statistics with -stats).
// Ctrl-C or -timeout cancels between file writes (exit 4).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	sibylfs "repro"
	"repro/internal/cliutil"
)

func main() {
	outDir := flag.String("o", "", "output directory for script files (omit with -stats)")
	stats := flag.Bool("stats", false, "print per-group script counts and exit")
	group := flag.String("group", "", "only emit scripts of this command group")
	timeout := flag.Duration("timeout", 0, "cancel generation after this long (exit 4, like Ctrl-C)")
	showVersion := cliutil.VersionFlag(flag.CommandLine, "sfs-gen")
	flag.Parse()
	showVersion()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	suite, err := sibylfs.New().Generate(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfs-gen:", err)
		os.Exit(4)
	}
	if *group != "" {
		var sel []*sibylfs.Script
		for _, s := range suite {
			if sibylfs.GroupOfName(s.Name) == *group {
				sel = append(sel, s)
			}
		}
		suite = sel
	}

	if *stats {
		m := sibylfs.SuiteStats(suite)
		groups := make([]string, 0, len(m))
		for g := range m {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		total := 0
		for _, g := range groups {
			fmt.Printf("%-12s %6d\n", g, m[g])
			total += m[g]
		}
		fmt.Printf("%-12s %6d\n", "TOTAL", total)
		return
	}

	if *outDir == "" {
		fmt.Fprintln(os.Stderr, "sfs-gen: -o DIR or -stats required")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sfs-gen:", err)
		os.Exit(1)
	}
	for _, s := range suite {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "sfs-gen: cancelled")
			os.Exit(4)
		}
		path := filepath.Join(*outDir, s.Name+".script")
		if err := os.WriteFile(path, []byte(s.Render()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-gen:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("wrote %d scripts to %s\n", len(suite), *outDir)
}
