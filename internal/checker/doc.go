// Package checker is the SibylFS test oracle: it decides whether an
// observed trace is allowed by the model by maintaining the finite set of
// model states the real-world system might be in and stepping it with
// os_trans — the state-set strategy of §3, with no backtracking search.
//
// State identity is hash-consed (osspec.StateSet): candidate states carry a
// memoised 64-bit digest and deduplication compares digests before
// confirming structurally, instead of rendering and sorting fingerprint
// strings. One trace is checked on one goroutine, and a Checker (with its
// scratch, initial state and cons table) belongs to one goroutine:
// parallelism is across traces, with one checker per worker
// (Session.Check, pipeline.Run, the fuzz engine), which the paper's
// independence of traces makes free. The trace's model coverage is
// recorded in a cov.Set it owns (Result.Coverage), which the caller
// merges into a registry.
//
// CheckCtx adds cooperative cancellation: the context is consulted
// between trace steps and between τ-closure expansion rounds inside one
// step; on cancellation the partial Result is returned with ctx.Err()
// and must not be read as a verdict. Check is the Background-context
// convenience. Both run one Walk over the trace, the only step loop the
// oracle has: a caller that wants the tracked set after every step (the
// sfs-debug tool) drives a Walk itself.
package checker
