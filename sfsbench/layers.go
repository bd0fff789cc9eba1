package main

import (
	"runtime"
	"strings"
)

// The per-layer budget of a pass, in per-pass units. The benchmark times
// store_open, session_run and store_close around its calls into those
// layers; with its own bookkeeping they add up to the pass time:
//
//	pass = store_open + session_run + store_close + bench_overhead
//
// The rest comes from the checker's own telemetry, summed over the runs of
// the pass. session_run splits into
//
//	session_run = key_pass + pipeline_run + finalize
//
// where pipeline_run is the worker pool followed by the store's
// group-commit flush (on cold passes, the store fsync) and the cons-table
// stats. The *_busy_ms parts are summed over goroutines. Over the
// pipeline's workers,
//
//	workers × pipeline_run = job_busy + worker_idle
//	job_busy ≈ cache_lookup + execute + check + cache_store + untimed
//
// so worker_idle also counts the flush barrier, once per worker, and the
// untimed part includes the record marshal in the journal append.
// journal_write is the journal's buffered writes from any goroutine —
// workers, the background flusher and finalize — so it is not part of
// job_busy and partly overlaps finalize.
// layers computes one pass's budget.
func layers(p pass) map[string]float64 {
	snap := p.tel.Snapshot()
	sumMS := func(hist string) float64 { return float64(snap.Hists[hist].Sum) / 1e6 }
	count := func(counter string) float64 { return float64(snap.Counters[counter]) }
	ratio := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}

	m := map[string]float64{
		"store_open_ms":         ms(p.open),
		"session_run_ms":        ms(p.run),
		"store_close_ms":        ms(p.close),
		"bench_overhead_ms":     ms(p.wall - p.open - p.run - p.close),
		"pipeline_run_ms":       sumMS("span.pipeline.run"),
		"finalize_ms":           sumMS("journal.finalize_ns"),
		"job_busy_ms":           sumMS("pipeline.job_ns"),
		"cache_lookup_busy_ms":  sumMS("pipeline.cache_lookup_ns"),
		"execute_busy_ms":       sumMS("pipeline.execute_ns"),
		"check_busy_ms":         sumMS("pipeline.check_ns"),
		"tau_closure_busy_ms":   sumMS("checker.tau_closure_ns"),
		"cache_store_busy_ms":   sumMS("pipeline.cache_store_ns"),
		"journal_write_busy_ms": sumMS("journal.flush_ns"),
		"executed":              count("pipeline.executed"),
		"cache_hits":            count("pipeline.cache_hits"),
		"checker_steps":         count("checker.steps"),
		"states_explored":       count("checker.states_explored"),
		"tau_expansions":        count("checker.tau_expansions"),
		"crash_points":          count("checker.crash_points"),
		"cons_hits":             count("checker.cons_hits"),
		"cons_misses":           count("checker.cons_misses"),
		"cons_resets":           count("checker.cons_resets"),
		"store_fsyncs":          count("pipeline.store_fsyncs"),
		"journal_appends":       count("journal.appends"),
	}
	m["key_pass_ms"] = sumMS("span.session.run") - m["pipeline_run_ms"] - m["finalize_ms"]
	// The pipeline's default pool has GOMAXPROCS workers.
	m["worker_idle_ms"] = float64(runtime.GOMAXPROCS(0))*m["pipeline_run_ms"] - m["job_busy_ms"]
	m["cache_hit_ratio"] = ratio(m["cache_hits"], count("pipeline.jobs"))
	m["cons_hit_ratio"] = ratio(m["cons_hits"], m["cons_hits"]+m["cons_misses"])
	return m
}

// unit is a budget metric's unit, read off its name.
func unit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	default:
		return "count"
	}
}
