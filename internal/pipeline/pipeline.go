package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/cov"
	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/osspec"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// Config parameterises one pipeline run.
type Config struct {
	// Name labels the run in summaries ("ext4 vs linux").
	Name string
	// Scripts is the full job list. Sharding selects from it by index, so
	// every shard of a layout must be given the identical list in the
	// identical order (the generated suite is deterministic; sorted script
	// directories are too).
	Scripts []*trace.Script
	// Factory creates the implementation under test, one instance per
	// script; FSName is its cache identity and must change whenever the
	// factory's behaviour does (profile name, "host", "spec:linux", ...).
	Factory fsimpl.Factory
	FSName  string
	// Spec is the model variant checked against.
	Spec types.Spec
	// ModelVersion overrides osspec.ModelVersion in the cache key — tests
	// use it to force invalidation; leave empty otherwise.
	ModelVersion string
	// Workers bounds cross-trace parallelism (≤ 0 selects GOMAXPROCS).
	// Each trace is executed and checked on one worker.
	Workers int
	// MaxStateSet caps the checker's tracked state set (0 = the checker
	// default). Part of the cache key: a different cap can change verdicts.
	MaxStateSet int
	// HashScripts, when non-nil, fills hashes[i] with scripts[i]'s content
	// hash for key computation instead of ScriptHash. Survey passes a
	// lookup it filled once for all of its configurations, so each
	// configuration after the first hashes no script again. The key pass
	// calls it on batches of scripts from several workers at once. Must
	// agree with ScriptHash.
	HashScripts func(scripts []*trace.Script, hashes []string)
	// Shards/Shard split the job list across invocations or machines:
	// shard K of N takes jobs K, K+N, K+2N, ... Shards ≤ 1 means the whole
	// list; Shard must be in [0, Shards).
	Shards int
	Shard  int
	// Concurrent executes scripts with the concurrent executor;
	// SchedSeed ≠ 0 selects the seeded deterministic scheduler. Both are
	// part of the cache key.
	Concurrent bool
	SchedSeed  int64
	// Store, when non-nil, is the result cache: a job whose key it holds
	// a framed record under (codec.go) is a hit, and every fresh result
	// is stored. Any other value under a key is a miss, which the job's
	// fresh record overwrites. Run installs the run's telemetry registry
	// on stores that accept one and flushes the store on every exit, so
	// a rerun on the same store after a cancel or a kill hits every job
	// that completed: the store is what a run resumes from.
	Store Store
	// Observe, when non-nil, is called once per record as its job
	// completes — cache hits included — so callers can
	// stream progress without buffering the whole run. Calls are
	// serialized but arrive in completion order, which is nondeterministic
	// under parallel workers; the returned slice stays in job order.
	Observe func(Record)
	// Cov receives the run's model coverage (nil discards it): each
	// executed job records its execution's and its check's points in a
	// set of its own, its worker counts them, and every worker's counts
	// are merged into Cov once, when the run ends however it ends.
	Cov *cov.Registry
	// Log, when non-nil, receives progress lines: a rate-limited status
	// line (at most one per progressInterval — completed/total, cache hit
	// rate, traces/s, ETA) while the run is in flight, plus the final
	// Stats line. Never one line per record: on a warm 21k-trace suite
	// that would dominate wall time through the terminal.
	Log io.Writer
	// Tel receives the run's telemetry — per-phase latency histograms
	// (cache lookup/store, execute, check, JSONL write) and work
	// counters (exec.* for the traces it executes). nil gives the run a
	// registry of its own, which nobody reads; sessions pass theirs.
	// Purely observational: records are byte-identical whatever registry
	// is installed.
	Tel *telemetry.Registry
}

// progressInterval is the minimum spacing of in-flight progress lines
// (~5 lines/s at most).
const progressInterval = 200 * time.Millisecond

// Stats describes one run's work split.
type Stats struct {
	// Jobs is the number of scripts in this shard; Executed + CacheHits =
	// Jobs.
	Jobs      int
	Executed  int
	CacheHits int
	Rejected  int
	Elapsed   time.Duration
}

func (st Stats) String() string {
	return fmt.Sprintf("%d jobs: %d executed, %d cache hits, %d rejected in %v",
		st.Jobs, st.Executed, st.CacheHits, st.Rejected,
		st.Elapsed.Round(time.Millisecond))
}

// Run executes one shard of the suite through the cache-backed pipeline
// and returns this shard's records in job order. Each worker checks with
// a checker of its own (see newWorkers). The record content is
// deterministic: a cache hit and a fresh execution of the same job yield
// identical records whichever worker checks it (only Stats and
// Record.Cached reveal the difference).
//
// Cancellation is cooperative: ctx is consulted between jobs and inside
// each job's execute/check. On cancellation Run stops dispatching, waits
// for in-flight jobs, flushes the store and returns ctx.Err() (wrapped;
// errors.Is works). Every record completed before the cancel is then in
// the store, and a rerun on it finishes the suite from there.
func Run(ctx context.Context, cfg Config) ([]Record, Stats, error) {
	records, _, st, err := run(ctx, cfg, false)
	return records, st, err
}

// RunJSONL is Run with a JSONL result file: once every job of the shard
// has succeeded, it writes the records to path, once, atomically and in
// canonical order (writeLines), and returns them in that order. A failed
// or cancelled run writes nothing, and a file already at path stays as
// it was. The file's bytes depend only on the record set: not on worker
// count, completion order, cache hits or how many interrupted runs the
// store holds the work of. The lines written are the ones the workers
// encoded or read from the store; nothing is marshalled twice. The write
// is timed in journal.finalize_ns.
func RunJSONL(ctx context.Context, cfg Config, path string) ([]Record, Stats, error) {
	if cfg.Tel == nil {
		cfg.Tel = telemetry.NewRegistry()
	}
	records, lines, st, err := run(ctx, cfg, true)
	if err != nil {
		return nil, st, err
	}
	start := time.Now()
	records, err = writeLines(path, records, lines, cfg.Tel)
	cfg.Tel.Histogram("journal.finalize_ns").ObserveSince(start)
	return records, st, err
}

// run is Run, and with keepLines also each record's canonical line,
// lines[j] for records[j]: a copy of the line the job encoded or read
// from the store, or the record's own encoding where a stored line fails
// usableLine.
func run(ctx context.Context, cfg Config, keepLines bool) (records []Record, lines [][]byte, st Stats, err error) {
	if cfg.Factory == nil {
		return nil, nil, st, errors.New("pipeline: Config.Factory is required")
	}
	if cfg.Store != nil && cfg.FSName == "" {
		return nil, nil, st, errors.New("pipeline: Config.FSName is required when caching")
	}
	if cfg.Shards > 1 && (cfg.Shard < 0 || cfg.Shard >= cfg.Shards) {
		return nil, nil, st, fmt.Errorf("pipeline: shard %d out of range [0,%d)", cfg.Shard, cfg.Shards)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	version := cfg.ModelVersion
	if version == "" {
		version = osspec.ModelVersion
	}
	tel := cfg.Tel
	if tel == nil {
		tel = telemetry.NewRegistry()
	}

	// Shard selection: this shard's scripts of the shared job list.
	jobs := cfg.Scripts
	if cfg.Shards > 1 {
		jobs = nil
		for i := cfg.Shard; i < len(cfg.Scripts); i += cfg.Shards {
			jobs = append(jobs, cfg.Scripts[i])
		}
	}
	ws := newWorkers(cfg, workers, tel)
	if ts, ok := cfg.Store.(telemetrySetter); ok {
		ts.SetTelemetry(tel)
	}

	specHash := SpecHash(version, cfg.Spec)
	configHash := ConfigHash(cfg.FSName, cfg.Concurrent, cfg.SchedSeed, ws[0].chk.MaxStateSet)

	// Keys for this shard's jobs, in job order.
	n := len(jobs)
	keys := make([]string, n) // a batch's script hashes, until replaced by its keys
	par.Each(ctx, workers, (n+keyBatch-1)/keyBatch, func(_, b int) bool {
		lo, hi := b*keyBatch, min(n, (b+1)*keyBatch)
		if cfg.HashScripts != nil {
			cfg.HashScripts(jobs[lo:hi], keys[lo:hi])
		}
		for i := lo; i < hi; i++ {
			if cfg.HashScripts == nil {
				keys[i] = ScriptHash(jobs[i])
			}
			keys[i] = Key(keys[i], specHash, configHash)
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, st, fmt.Errorf("pipeline: %s: %w", cfg.Name, err)
	}

	st.Jobs = len(jobs)
	start := time.Now()
	defer tel.Span("pipeline.run").End()
	tel.Counter("pipeline.jobs").Add(int64(st.Jobs))
	records = make([]Record, len(jobs))
	if keepLines {
		lines = make([][]byte, len(jobs))
	}
	errs := make([]error, len(jobs))
	var mu sync.Mutex // st counters + log
	lastProgress := start
	// failed is set by the first job error, before dispatch stops: a job
	// claimed after it returns without starting, even one claimed by a
	// worker that finished its job while the error was on its way.
	var failed atomic.Bool
	par.Each(ctx, workers, len(jobs), func(w, j int) bool {
		if failed.Load() {
			return false
		}
		jobStart := time.Now()
		rec, line, hit, err := ws[w].runJob(ctx, cfg, tel, jobs[j], keys[j])
		records[j], errs[j] = rec, err
		if err != nil {
			failed.Store(true)
			if jobFailedHook != nil {
				jobFailedHook()
			}
			return false // completed records stay in the store
		}
		if keepLines {
			// line lives in the worker's buffers, which its next job reuses.
			if usableLine(rec.Key, line) {
				lines[j] = bytes.Clone(line)
			} else {
				lines[j] = rec.AppendJSON(nil)
			}
		}
		tel.Histogram("pipeline.job_ns").ObserveSince(jobStart)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case hit:
			st.CacheHits++
			tel.Counter("pipeline.cache_hits").Inc()
		default:
			st.Executed++
			tel.Counter("pipeline.executed").Inc()
		}
		if !rec.Accepted {
			st.Rejected++
			tel.Counter("pipeline.rejected").Inc()
		}
		if cfg.Observe != nil {
			cfg.Observe(rec)
		}
		if cfg.Log != nil {
			if now := time.Now(); now.Sub(lastProgress) >= progressInterval {
				lastProgress = now
				logProgress(cfg.Log, cfg.Name, st, now.Sub(start))
			}
		}
		return true
	})
	st.Elapsed = time.Since(start)
	if cfg.Cov != nil {
		for _, w := range ws {
			cfg.Cov.Add(&w.covered)
		}
	}
	// Group-commit barrier: every exit — success, job error, cancel —
	// passes through here, so each completed record is durable in the
	// store for a rerun to hit. On the failure paths the flush is
	// best-effort (the job error wins); on success it is checked.
	var flushErr error
	if cfg.Store != nil {
		flushErr = cfg.Store.Flush()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, st, fmt.Errorf("pipeline: %s: %w", cfg.Name, err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, st, err
		}
	}
	if flushErr != nil {
		return nil, nil, st, fmt.Errorf("pipeline: %s: cache flush: %w", cfg.Name, flushErr)
	}
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "pipeline: %s: %s\n", cfg.Name, st)
	}
	return records, lines, st, nil
}

// keyBatch is how many scripts a key-pass worker claims at once, so the
// workers share the dispatch cursor once per batch instead of once per
// script; it is also the size of each Config.HashScripts call.
const keyBatch = 128

// Test hooks, nil outside tests: jobFailedHook runs once a job error has
// marked the run failed, jobCoverageHook with each executed job's
// coverage set (from every worker at once).
var (
	jobFailedHook   func()
	jobCoverageHook func(script string, hits cov.Set)
)

// worker is one pipeline worker's slot, indexed by the par worker id: its
// checker, its jobs' coverage counts, and the scratch its jobs reuse.
// Per-trace scratch comes from here rather than from a sync.Pool, which
// the collector empties several times per pass; only a job's outputs (the
// record and its checked-trace text) are allocated, and RunJSONL copies
// the record's line out of the worker's buffer.
type worker struct {
	chk *checker.Checker
	// covered counts the coverage points of the worker's jobs, so no two
	// workers write one coverage cache line; Run merges it into Config.Cov.
	covered cov.Registry
	// buf holds the checked-trace rendering, then the record's JSON line.
	buf []byte
	// frame holds a cache entry: the frame a hit reads from the store,
	// or the frame a fresh record is stored as (Store.Put copies it).
	frame []byte
}

// newWorkers builds one slot per worker, each with a checker of its own:
// a checker, its scratch and the history its checks resume from belong
// to one goroutine. Workers claim jobs in increasing order, so each
// worker's traces are nearby scripts of the suite, which share most of
// their fixture prelude, and each check resumes from the walk of the
// worker's previous one (see checker.CheckCtx).
func newWorkers(cfg Config, workers int, tel *telemetry.Registry) []*worker {
	ws := make([]*worker, workers)
	for w := range ws {
		chk := checker.New(cfg.Spec)
		if cfg.MaxStateSet > 0 {
			chk.MaxStateSet = cfg.MaxStateSet
		}
		chk.Tel = tel
		ws[w] = &worker{chk: chk}
	}
	return ws
}

// logProgress emits one rate-limited in-flight status line: completion,
// work split, cache hit rate over the jobs resolved so far, throughput
// and a naive remaining/rate ETA.
func logProgress(w io.Writer, name string, st Stats, elapsed time.Duration) {
	done := st.Executed + st.CacheHits
	if done == 0 || elapsed <= 0 {
		return
	}
	cached := st.CacheHits
	rate := float64(done) / elapsed.Seconds()
	eta := time.Duration(float64(st.Jobs-done) / rate * float64(time.Second)).Round(time.Second)
	fmt.Fprintf(w, "pipeline: %s: %d/%d traces (%d executed, %d cached %.0f%%, %.0f traces/s, ETA %s)\n",
		name, done, st.Jobs, st.Executed, cached,
		100*float64(cached)/float64(done), rate, eta)
}

// runJob resolves one script to its record and the record's JSON line:
// from the result cache, else by a real execute-and-check (whose record
// is stored, and whose coverage set the worker counts). The line is a
// view of the worker's buffers, valid until its next job: the one the
// store held (see usableLine) or the one the job encoded. Phase
// latencies (cache lookup/store, execute, check) land in tel's
// histograms.
func (w *worker) runJob(ctx context.Context, cfg Config, tel *telemetry.Registry, s *trace.Script, key string) (rec Record, line []byte, hit bool, err error) {
	if cfg.Store != nil {
		lookupStart := time.Now()
		// The frame is read into the worker's buffer; a miss leaves it
		// empty, which decodes as no frame.
		w.frame, _ = cfg.Store.Get(w.frame, key)
		rec, line, ok := decodeRecord(w.frame, key)
		tel.Histogram("pipeline.cache_lookup_ns").ObserveSince(lookupStart)
		if ok {
			// The stored line is the canonical JSONL encoding (Cached is
			// json:"-"), so a hit is written out without a re-marshal.
			rec.Cached = true
			return rec, line, true, nil
		}
		tel.Counter("pipeline.cache_misses").Inc()
	}
	var t *trace.Trace
	var res checker.Result
	var hits cov.Set
	execStart := time.Now()
	if cfg.Concurrent {
		t, err = exec.RunConcurrent(ctx, s, cfg.Factory, exec.ConcurrentOptions{
			Seeded: cfg.SchedSeed != 0,
			Seed:   cfg.SchedSeed,
		}, &hits)
	} else {
		t, err = exec.Run(ctx, s, cfg.Factory, &hits)
	}
	tel.Histogram("pipeline.execute_ns").ObserveSince(execStart)
	if err == nil {
		exec.Count(tel, t, cfg.Concurrent)
		checkStart := time.Now()
		res, err = w.chk.CheckCtx(ctx, t)
		tel.Histogram("pipeline.check_ns").ObserveSince(checkStart)
	}
	hits.Or(&res.Coverage)
	w.covered.Merge(&hits)
	if jobCoverageHook != nil {
		jobCoverageHook(s.Name, hits)
	}
	if err != nil {
		return Record{}, nil, false, fmt.Errorf("pipeline: %s: %w", s.Name, err)
	}
	// The checked trace and the JSON line are built in the worker's
	// buffer; the store copies what it keeps. One line serves both the
	// framed cache entry and the JSONL file.
	rec, w.buf = newRecord(w.buf, key, t, res)
	w.buf = rec.AppendJSON(w.buf[:0])
	line = w.buf
	if cfg.Store != nil {
		storeStart := time.Now()
		w.frame = encodeRecord(w.frame[:0], rec, line)
		err := cfg.Store.Put(rec.Key, w.frame)
		tel.Histogram("pipeline.cache_store_ns").ObserveSince(storeStart)
		if err != nil {
			return rec, nil, false, err
		}
		tel.Counter("pipeline.cache_stores").Inc()
	}
	return rec, line, false, nil
}
