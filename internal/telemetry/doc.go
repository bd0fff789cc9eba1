// Package telemetry is the dependency-free observability layer under the
// whole checking stack: atomic counters and gauges, fixed-bucket latency
// histograms with percentile estimation, lightweight nested spans, and a
// Registry tying them together with machine-readable snapshots
// (Snapshot/WriteJSON), a hand-rolled Prometheus text exposition
// (WritePrometheus) and a -debug-addr HTTP server (ServeDebug: /metrics,
// /stats.json, expvar, net/http/pprof).
//
// Ownership follows the Session model from internal/cov: the package-level
// Default registry backs legacy paths and single-session CLIs, while a
// library embedding several sessions gives each its own registry
// (sibylfs.WithTelemetry) and their figures never bleed.
//
// Telemetry is always on and must stay effectively free: counters are
// single atomic adds, histograms three atomic adds and a bounds walk, and
// nothing here may ever alter checked-trace output — the golden parity
// tests pin that enabling an isolated registry leaves finalized JSONL
// byte-identical.
package telemetry
