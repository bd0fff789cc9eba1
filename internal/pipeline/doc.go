// Package pipeline is the batch orchestration layer over the Fig 1 flow:
// it shards a suite of test scripts across a pool of workers (parallelism
// *across* traces; each trace is executed and checked on one worker),
// and returns one Record per trace, which RunJSONL writes to a JSONL
// file. A content-addressed result cache keyed by
//
//	(script hash, spec/model version hash, run-config hash)
//
// lets re-runs skip every trace whose inputs are unchanged: editing one
// script re-checks only that script, while bumping osspec.ModelVersion (or
// switching spec variant, implementation, executor mode or checker cap)
// invalidates everything. See ARCHITECTURE.md ("The cache key contract")
// for the exact key composition.
//
// The cache is also what a run resumes from: every completed record is
// stored as its job finishes, so a rerun after a kill or a cancel hits
// each of them and executes only the rest. The JSONL file is written
// once, when a run succeeds, in canonical (name, key) order, so it is
// byte-identical regardless of worker count, shard layout, cache state,
// or how many times the run was interrupted.
//
// `-shards N -shard K` selects every Nth job, so N machines cover the
// suite exactly once, each writing a file of its own, and MergeRecords
// merges the shard files into the same canonical form.
//
// Run takes a context and cancels cooperatively between jobs and inside
// each job's execute/check; a cancelled run flushes the store and writes
// no JSONL. Config.Observe streams records as jobs finish, and
// Config.Cov receives the run's model coverage: each worker counts its
// jobs' coverage sets and merges the counts once, when the run ends.
//
// cmd/sfs-run is the CLI for this package; sfs-report and sfs-serve
// reuse the cache and the record stream. sibylfs.Session.Run is the
// public facade.
package pipeline
