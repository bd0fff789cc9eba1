// Package cov instruments the specification with named coverage points so
// that test-suite coverage of the *model* can be measured, as §7.2 of the
// paper does (their suite reaches 98% of the model). Spec code registers
// points at init time and hits them during evaluation; the report divides
// hit points by registered points.
//
// A point is a dense ID. One evaluation (a trace's check, a model-backed
// execution, a fuzz run) runs on one goroutine and records its hits in a
// Set it owns: a fixed-size bitset, so a hit is a plain store and nothing
// is shared while the model runs. Whoever owns the evaluation merges its
// Set into a Registry once, when it ends. A Registry counts, per point,
// the evaluations that hit it. There is no process-wide registry: a
// sibylfs.Session makes its own unless WithCoverage shares one, so two
// sessions never see each other's coverage, and resetting one (a fuzz
// session starts with a reset) cannot disturb another.
package cov
