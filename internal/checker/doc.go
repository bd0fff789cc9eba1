// Package checker is the SibylFS test oracle: it decides whether an
// observed trace is allowed by the model by maintaining the finite set of
// model states the real-world system might be in and stepping it with
// os_trans — the state-set strategy of §3, with no backtracking search.
//
// State identity is hash-consed (osspec.StateSet): candidate states carry a
// memoised 64-bit digest and deduplication compares digests before
// confirming structurally, instead of rendering and sorting fingerprint
// strings. One trace is checked on one goroutine — parallelism is across
// traces (CheckAll, pipeline.Run), which the paper's independence of
// traces makes free — and the trace's model coverage is recorded in a
// cov.Set it owns (Result.Coverage), which the caller merges into a
// registry.
//
// CheckCtx/CheckAllCtx add cooperative cancellation: the context is
// consulted between traces, between trace steps, and between τ-closure
// expansion rounds inside one step; on cancellation the partial
// Result is returned with ctx.Err() and must not be read as a verdict.
// Check/CheckAll remain as Background-context conveniences.
package checker
