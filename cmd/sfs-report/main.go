// sfs-report runs the full survey (or a sampled slice) across the
// configuration matrix and renders text and HTML reports — the merged
// multi-platform comparison of §7. Each configuration streams through the
// sharded checking pipeline: summaries aggregate from per-trace records
// (optionally journaled to JSONL sinks with -jsonl-dir), never from a
// monolithic in-memory run, and -cache-dir lets an unchanged
// configuration re-summarise without re-executing a single trace.
// Ctrl-C or -timeout cancels between jobs; with -jsonl-dir the sinks stay
// resumable and a later -resume run completes the matrix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	sibylfs "repro"
	"repro/internal/analysis"
	"repro/internal/cliutil"
)

func main() {
	// The survey's one registry, created first so its uptime spans the
	// run: the session records into it, and -stats-json and -cache-stats
	// read it.
	tel := sibylfs.NewTelemetryRegistry()
	outDir := flag.String("o", "sibylfs-report", "output directory for HTML")
	sample := flag.Int("sample", 13, "use every Nth generated script (1 = full suite)")
	workers := flag.Int("w", 0, "parallel workers")
	configFilter := flag.String("config", "", "substring filter on configuration names")
	cacheDir := flag.String("cache-dir", "", "shared result cache: unchanged configurations skip re-execution")
	cacheStats := flag.Bool("cache-stats", false, "print result-store contents and hit/miss ratios on exit")
	jsonlDir := flag.String("jsonl-dir", "", "write one canonical JSONL record file per configuration")
	resume := flag.Bool("resume", false, "with -jsonl-dir: recover interrupted sinks and skip completed traces")
	timeout := flag.Duration("timeout", 0, "cancel the survey after this long (sinks stay resumable; exit 4)")
	statsJSON := flag.String("stats-json", "", "write a telemetry snapshot (counters, latency histograms) here on exit; - = stdout")
	showVersion := cliutil.VersionFlag(flag.CommandLine, "sfs-report")
	flag.Parse()
	showVersion()
	writeStats := func() {
		if *statsJSON == "" {
			return
		}
		if err := cliutil.WriteStats(*statsJSON, "sfs-report", tel); err != nil {
			fmt.Fprintln(os.Stderr, "sfs-report: writing stats:", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []sibylfs.Option{sibylfs.WithWorkers(*workers), sibylfs.WithTelemetry(tel)}
	if *cacheDir != "" {
		opts = append(opts, sibylfs.WithCacheDir(*cacheDir))
	}
	if *jsonlDir != "" {
		opts = append(opts, sibylfs.WithJournalDir(*jsonlDir))
	}
	if *resume {
		opts = append(opts, sibylfs.WithResume())
	}
	session := sibylfs.New(opts...)
	// fail reports err and exits with code, closing the session first:
	// Close seals the cache's index, and os.Exit skips defers.
	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "sfs-report:", err)
		cliutil.CloseSession("sfs-report", session)
		os.Exit(code)
	}
	printCacheStats := func() {
		if *cacheStats {
			cliutil.PrintCacheStats("sfs-report", session, tel)
		}
	}

	suite, err := session.Generate(ctx)
	if err != nil {
		fail(1, err)
	}
	var scripts []*sibylfs.Script
	for i, s := range suite {
		// Always include the targeted survey scenarios; sample the rest.
		if sibylfs.GroupOfName(s.Name) == "survey" || i%*sample == 0 {
			scripts = append(scripts, s)
		}
	}

	var configs []sibylfs.Config
	for _, c := range sibylfs.Configurations() {
		if strings.Contains(c.Name, *configFilter) {
			configs = append(configs, c)
		}
	}
	fmt.Printf("running %d scripts on %d configurations\n", len(scripts), len(configs))

	start := time.Now()
	results, err := session.Survey(ctx, scripts, configs)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			stop()
			fmt.Fprintf(os.Stderr, "sfs-report: cancelled after %v with %d/%d configurations done",
				time.Since(start).Round(time.Millisecond), len(results), len(configs))
			if *jsonlDir != "" {
				fmt.Fprintf(os.Stderr, "; rerun with -resume to finish")
			}
			fmt.Fprintln(os.Stderr)
			printCacheStats()
			cliutil.CloseSession("sfs-report", session)
			writeStats()
			os.Exit(4)
		}
		fail(1, err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(1, err)
	}
	for _, r := range results {
		fmt.Print(r.Summary)
		html, err := analysis.RenderIndexHTML(r.Summary)
		if err != nil {
			fail(1, err)
		}
		name := strings.ReplaceAll(r.Config.Name, " ", "_") + ".html"
		if err := os.WriteFile(filepath.Join(*outDir, name), []byte(html), 0o644); err != nil {
			fail(1, err)
		}
	}
	merged, err := session.MergeSurvey(ctx, results)
	if err != nil {
		fail(4, err)
	}
	fmt.Printf("\n%d tests distinguish configurations:\n", len(merged.Distinguishing()))
	for i, test := range merged.Distinguishing() {
		if i >= 25 {
			fmt.Printf("  ... and %d more\n", len(merged.Distinguishing())-25)
			break
		}
		fmt.Printf("  %-50s deviates on: %s\n", test, strings.Join(merged.DeviationsFor(test), ", "))
	}
	fmt.Printf("\nHTML written to %s\n", *outDir)
	printCacheStats()
	cliutil.CloseSession("sfs-report", session)
	writeStats()
}
