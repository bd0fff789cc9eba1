// Package telemetry is the dependency-free observability layer under the
// whole checking stack: atomic counters and gauges, fixed-bucket latency
// histograms with percentile estimation, timing spans, and a Registry
// tying them together with machine-readable snapshots
// (Snapshot/WriteJSON), a hand-rolled Prometheus text exposition
// (WritePrometheus) and a -debug-addr HTTP server (ServeDebug: /metrics,
// /stats.json, expvar, net/http/pprof).
//
// Every registry has an owner, as every coverage registry in internal/cov
// does: a sibylfs.Session makes its own unless WithTelemetry shares one,
// each CLI creates one at the top of main for its session, -stats-json,
// -debug-addr and -cache-stats, and sfs-serve has one for the daemon and
// one per job. There is no process-wide registry, so figures never bleed
// between owners. Package-level code records nothing: what it did is
// counted by the caller that holds a registry (Session.Generate counts
// testgen.*, the executing layers count exec.*).
//
// Telemetry is always on and must stay effectively free: counters are
// single atomic adds, histograms three atomic adds and a bounds walk, and
// nothing here may ever alter checked-trace output — the golden parity
// tests pin that enabling an isolated registry leaves finalized JSONL
// byte-identical.
package telemetry
