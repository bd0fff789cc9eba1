// Package pipeline is the batch orchestration layer over the Fig 1 flow:
// it shards a suite of test scripts across a pool of workers (parallelism
// *across* traces; each trace is executed and checked on one worker),
// and streams one Record per trace to a crash-safe JSONL sink. A content-addressed result cache keyed by
//
//	(script hash, spec/model version hash, run-config hash)
//
// lets re-runs skip every trace whose inputs are unchanged: editing one
// script re-checks only that script, while bumping osspec.ModelVersion (or
// switching spec variant, implementation, executor mode or checker cap)
// invalidates everything. See ARCHITECTURE.md ("The cache key contract")
// for the exact key composition.
//
// The sink doubles as the resume journal: records append as jobs finish,
// a killed run leaves at worst one torn trailing line (dropped on reopen),
// and a resumed run skips every job whose key the sink already holds.
// Finalize rewrites the sink in canonical (name, key) order, so the final
// JSONL is byte-identical regardless of worker count, shard layout,
// cache state, or how many times the run was interrupted.
//
// Sharding composes with resume: `-shards N -shard K` selects every Nth
// job, so N machines (or N sequential invocations resuming into one sink)
// cover the suite exactly once, and ReadRecords/WriteRecords merge shard
// sinks into the same canonical form.
//
// Run takes a context and cancels cooperatively between jobs and inside
// each job's execute/check; because every completed record is already an
// atomic line in the sink, a cancelled run's journal is always a valid
// resume log — finishing it later yields the same canonical bytes as an
// uninterrupted run. Config.Observe streams records as jobs finish, and
// Config.Cov receives the run's model coverage: each worker counts its
// jobs' coverage sets and merges the counts once, when the run ends.
//
// cmd/sfs-run is the CLI for this package; sfs-report and sfs-serve
// reuse the cache and the record stream. sibylfs.Session.Run is the
// public facade.
package pipeline
