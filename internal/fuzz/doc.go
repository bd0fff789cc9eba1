// Package fuzz is a coverage-guided mutation fuzzer over test scripts —
// the feedback loop the paper leaves as future work (§8 randomised /
// differential testing, §9 automatic test-case reduction), built from the
// repo's existing parts: seeded random generation (internal/testgen),
// model coverage points (internal/cov), the executor (internal/exec), the
// oracle (internal/checker) and ddmin reduction (internal/reduce).
//
// The loop is the classic greybox one: a scheduler picks a corpus entry
// (weighted towards entries holding rare coverage points), mutation
// operators derive a candidate script, the executor drives it against the
// implementation under test, and the oracle checks the observed trace
// against the model. Candidates that hit model coverage points no corpus
// entry hits are admitted (the corpus is keyed by coverage-point set);
// oracle-rejected traces are minimized with delta debugging and recorded
// as findings, rendered through internal/analysis. The corpus persists to
// disk so successive runs resume where the last one stopped.
//
// Every run — candidate, seed replay or minimization probe — records the
// model coverage points its execution and its check hit in a set of its
// own, and merges it once into the session's registry (Config.Registry).
// Admission uses that set directly, so the points a candidate is admitted
// with are exact even with parallel workers, and nothing is re-run to
// find them. Sessions that each own a registry fuzz in one process
// without moving each other's figures.
//
// A session ends when its context is done (a deadline bounds it in time)
// or MaxRuns is reached; cancellation is the normal end of a time-bounded
// session, reported over whatever was found, never an error.
package fuzz
