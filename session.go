package sibylfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/checker"
	"repro/internal/cov"
	"repro/internal/exec"
	"repro/internal/fuzz"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/testgen"
)

// Session is the package's front door: one configured handle unifying the
// Fig 1 flow — Generate, Execute/ExecuteConcurrent, Check, Run (the
// sharded cache-backed pipeline), Survey and Fuzz — behind a single set of
// options instead of per-call parameter soups. Every method takes a
// context.Context first and cancels cooperatively: a deadlined or
// interrupted Run stops between (and inside) jobs and leaves its JSONL
// journal valid for resumption.
//
//	s := sibylfs.New(
//	    sibylfs.WithSpec(sibylfs.SpecFor(sibylfs.Linux)),
//	    sibylfs.WithWorkers(8),
//	    sibylfs.WithCacheDir("cache"),
//	    sibylfs.WithJournal("run.jsonl"),
//	    sibylfs.WithObserver(func(r sibylfs.PipelineRecord) { log.Println(r.Name) }),
//	)
//	scripts, _ := s.Generate(ctx)
//	records, stats, err := s.Run(ctx, sibylfs.RunJob{
//	    Name:    "ext4 vs linux",
//	    Scripts: scripts,
//	    Factory: sibylfs.MemFS(sibylfs.LinuxProfile("ext4")),
//	    FSName:  "ext4",
//	})
//
// A Session is safe for concurrent use; several sessions may coexist in
// one process. By default they share the process-wide coverage registry;
// give each its own with WithCoverage(NewCoverageRegistry()) and their
// coverage figures stay fully isolated (see CoverageRegistry). The same
// model applies to metrics: sessions record into telemetry.Default unless
// WithTelemetry(NewTelemetryRegistry()) gives them a private registry.
type Session struct {
	spec        Spec
	workers     int
	maxStateSet int
	cacheDir    string
	remote      string         // WithRemoteCache base URL ("" = none)
	store       pipeline.Store // nil = open a backend from cacheDir/remote
	journal     string
	journalDir  string
	resume      bool
	observer    func(PipelineRecord)
	reg         *cov.Registry       // nil = cov.Default
	tel         *telemetry.Registry // nil = telemetry.Default
	log         io.Writer

	cacheOnce sync.Once
	cache     *pipeline.Cache
	cacheErr  error
	ownsCache bool // opened from cacheDir/remote, so Close closes it
	// hashMu/hashes memoise per-script content hashes, so each script is
	// hashed at most once per session however many runs check it; pipeline
	// key computation reads it via Config.HashScripts.
	hashMu sync.Mutex
	hashes map[*Script]string
	// journalMu serializes Run calls that share this session's journal:
	// two sinks appending to (or truncating) one file would corrupt it.
	journalMu sync.Mutex
}

// Option configures a Session at construction.
type Option func(*Session)

// New constructs a Session. The zero configuration checks against
// DefaultSpec with GOMAXPROCS workers, no cache, no journal and the
// shared process-wide coverage registry.
func New(opts ...Option) *Session {
	s := &Session{spec: DefaultSpec()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// WithSpec selects the model variant every checking method uses.
func WithSpec(spec Spec) Option { return func(s *Session) { s.spec = spec } }

// WithWorkers bounds cross-trace parallelism (execution and checking
// worker pools; ≤ 0 selects GOMAXPROCS). Each trace is executed and
// checked on one goroutine.
func WithWorkers(n int) Option { return func(s *Session) { s.workers = n } }

// WithMaxStateSet caps the oracle's tracked state set (0 = the checker
// default). The cap is part of the pipeline cache key.
func WithMaxStateSet(n int) Option { return func(s *Session) { s.maxStateSet = n } }

// WithCacheDir backs Run, Survey and Fuzz with a content-addressed result
// cache rooted at dir: re-runs skip any trace whose (script, model
// version, run config) key is already cached. The directory is created on
// first use. The backend is the packed segment store: entries append to
// a few bounded pack files under dir/pack, with group-commit durability.
// Entries in any other format, such as the v1 file-per-key layout, are
// misses: a run re-checks those traces and stores them packed.
func WithCacheDir(dir string) Option { return func(s *Session) { s.cacheDir = dir } }

// WithStore backs the session's result cache with an explicit store
// backend instead of opening one from a directory — the injection seam
// for tuned PackOptions or a remote store. Takes precedence over
// WithCacheDir; the session owns flushing (it flushes at run boundaries)
// but the caller owns Close.
func WithStore(store ResultStore) Option { return func(s *Session) { s.store = store } }

// WithJournal streams Run's records to the JSONL sink at path. The sink
// doubles as the crash-safe resume journal: with WithResume, a later
// session skips every trace the journal already holds. On success the
// journal is finalized to canonical order; on error (cancellation
// included) it keeps its append order and remains valid for resumption.
// Concurrent Run calls on one session serialize on the journal (each Run
// opens it afresh, and without WithResume opening truncates); to run
// shards in parallel, give each its own journal — one session per shard,
// merged afterwards as sfs-run -merge does.
func WithJournal(path string) Option { return func(s *Session) { s.journal = path } }

// WithJournalDir streams Survey's records to one JSONL sink per
// configuration under dir (Survey runs many configurations; Run's single
// sink is WithJournal).
func WithJournalDir(dir string) Option { return func(s *Session) { s.journalDir = dir } }

// WithResume recovers existing journals instead of replacing them,
// skipping work they already hold.
func WithResume() Option { return func(s *Session) { s.resume = true } }

// WithObserver streams per-record progress: fn is called once per
// pipeline record as Run and Survey complete each job — cache hits and
// journal resumes included — so callers see progress without buffering
// whole suites. Calls are serialized but arrive in completion order,
// which is nondeterministic under parallel workers. fn must not call back
// into the session.
func WithObserver(fn func(PipelineRecord)) Option { return func(s *Session) { s.observer = fn } }

// WithCoverage gives the session its own coverage registry (or shares one
// between chosen sessions): model coverage reached by this session's
// execution, checking, pipeline and fuzzing is merged into reg, and the
// session's Coverage/CoverageUnhit/ResetCoverage read and reset reg
// instead of cov.Default — two sessions with distinct registries never
// see each other's hits, and ResetCoverage loses its process-global blast
// radius. Isolation is free: every trace records its points in a set of
// its own and merges it once, so no lock is shared with other sessions.
func WithCoverage(reg *CoverageRegistry) Option { return func(s *Session) { s.reg = reg } }

// WithLog sends progress lines (pipeline stats, fuzz session progress)
// to w.
func WithLog(w io.Writer) Option { return func(s *Session) { s.log = w } }

// WithTelemetry gives the session its own telemetry registry: counters,
// gauges, latency histograms and spans recorded by this session's
// checking, pipeline and fuzzing land in reg instead of the shared
// telemetry.Default — two sessions with distinct registries never see
// each other's figures. Like coverage isolation, telemetry isolation is
// free: registries are just independent sets of atomics. Read reg with
// its Snapshot / WriteJSON / WritePrometheus methods.
func WithTelemetry(reg *TelemetryRegistry) Option { return func(s *Session) { s.tel = reg } }

// TelemetryRegistry is an isolated metrics/span registry; see
// WithTelemetry.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry returns a fresh isolated telemetry registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// CoverageRegistry is an isolated model-coverage view; see WithCoverage.
type CoverageRegistry = cov.Registry

// NewCoverageRegistry returns a fresh isolated coverage registry.
func NewCoverageRegistry() *CoverageRegistry { return cov.NewRegistry() }

// Spec returns the model variant the session checks against.
func (s *Session) Spec() Spec { return s.spec }

// openCache lazily opens the session's result cache (nil without
// WithCacheDir/WithStore), inside a session.open_cache span: the first
// call opens the store and loads or rebuilds its index. The handle is
// shared by every method of the session.
func (s *Session) openCache() (*pipeline.Cache, error) {
	if s.store == nil && s.cacheDir == "" && s.remote == "" {
		return nil, nil
	}
	s.cacheOnce.Do(func() {
		defer telemetry.Or(s.tel).Span("session.open_cache").End()
		if s.store != nil {
			s.cache = pipeline.NewCache(s.store)
			return
		}
		if s.remote != "" {
			// WithRemoteCache: the shared fleet store, with the local cache
			// dir (if any) demoted to the unreachable-server fallback.
			store, err := OpenHTTPStore(s.remote, s.cacheDir)
			if err != nil {
				s.cacheErr = err
				return
			}
			s.store = store // session-owned; flushed at run boundaries
			s.cache = pipeline.NewCache(store)
			s.ownsCache = true
			return
		}
		s.cache, s.cacheErr = pipeline.OpenCache(s.cacheDir)
		s.ownsCache = s.cacheErr == nil
	})
	return s.cache, s.cacheErr
}

// errSessionClosed is what a cache-backed method returns after Close.
var errSessionClosed = errors.New("sibylfs: session closed")

// Close releases the result cache the session opened for WithCacheDir or
// WithRemoteCache: it commits buffered entries and writes the packed
// store's index sidecar, so the next process opening the directory loads
// the index instead of scanning the active segment (runs only commit,
// leaving the index to Close). A store injected with WithStore stays the
// caller's to close. Call Close once the session's work is done, not
// concurrently with its other methods; it is a no-op for a session
// without a cache, and afterwards cache-backed methods fail.
func (s *Session) Close() error {
	s.cacheOnce.Do(func() {}) // a closed session never opens a cache
	cache, owned := s.cache, s.ownsCache
	s.cache, s.ownsCache = nil, false
	if s.store != nil || s.cacheDir != "" || s.remote != "" {
		s.cacheErr = errSessionClosed
	}
	if cache == nil || !owned {
		return nil
	}
	return cache.Close()
}

// CacheStats describes the session's result-store contents (backend,
// entries, segments, bytes); ok is false when the session has no cache.
// sfs-run -cache-stats prints it next to the run's hit/miss telemetry.
func (s *Session) CacheStats() (StoreStats, bool) {
	cache, err := s.openCache()
	if err != nil || cache == nil {
		return StoreStats{}, false
	}
	return cache.Stats(), true
}

// Generate builds the full sequential test suite (§6.1).
func (s *Session) Generate(ctx context.Context) ([]*Script, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer telemetry.Or(s.tel).Span("session.generate").End()
	return testgen.Generate().Scripts, nil
}

// GenerateConcurrent builds the multi-process concurrency universe; run
// it through ExecuteConcurrent so the calls genuinely interleave.
func (s *Session) GenerateConcurrent(ctx context.Context) ([]*Script, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer telemetry.Or(s.tel).Span("session.generate").End()
	return testgen.ConcurrentScripts(), nil
}

// GenerateCrash builds the crash-consistency universe (crash___ scripts:
// workloads with fsync/sync barriers, crash points and post-remount
// observations). Run it through Execute — crash scripts are
// sequential-executor only — against a crash-profiled implementation, and
// check with a Spec.Crash session.
func (s *Session) GenerateCrash(ctx context.Context) ([]*Script, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer telemetry.Or(s.tel).Span("session.generate").End()
	return testgen.CrashScripts(), nil
}

// scriptHashes is the pipeline's Config.HashScripts hook: memoised per
// script pointer, computing (and caching) pipeline.ScriptHash on first
// sight, so Survey's repeated configurations hash no script again. The
// key pass calls it from several workers at once, so the memo lock is
// taken once to look the batch up and once to store its misses, which
// are hashed outside it.
func (s *Session) scriptHashes(scripts []*Script, hashes []string) {
	s.hashMu.Lock()
	for i, sc := range scripts {
		hashes[i] = s.hashes[sc]
	}
	s.hashMu.Unlock()
	fresh := false
	for i, h := range hashes {
		if h == "" {
			hashes[i], fresh = pipeline.ScriptHash(scripts[i]), true
		}
	}
	if !fresh {
		return
	}
	s.hashMu.Lock()
	if s.hashes == nil {
		s.hashes = make(map[*Script]string, len(scripts))
	}
	for i, sc := range scripts {
		s.hashes[sc] = hashes[i]
	}
	s.hashMu.Unlock()
}

// coverage returns the registry this session's model coverage is merged
// into.
func (s *Session) coverage() *cov.Registry {
	if s.reg != nil {
		return s.reg
	}
	return cov.Default
}

// Execute runs scripts against fresh instances from factory (§6.2) with
// the session's worker pool, cancelling between scripts and between
// steps. A model-backed factory (SpecFS) adds each trace's execution-side
// coverage to the session's registry.
func (s *Session) Execute(ctx context.Context, scripts []*Script, factory Factory) ([]*Trace, error) {
	return exec.RunAll(ctx, scripts, factory, s.workers, s.coverage())
}

// ExecuteConcurrent runs scripts with one goroutine per script process,
// so calls from different processes genuinely overlap in the recorded
// traces. opts.Workers ≤ 0 falls back to the session's worker bound.
func (s *Session) ExecuteConcurrent(ctx context.Context, scripts []*Script, factory Factory, opts ConcurrentOptions) ([]*Trace, error) {
	if opts.Workers <= 0 {
		opts.Workers = s.workers
	}
	return exec.RunAllConcurrent(ctx, scripts, factory, opts, s.coverage())
}

// Check runs the oracle over traces with the session's spec and worker
// pool, one trace per goroutine at a time; each worker checks with a
// checker of its own. Each trace's coverage set is merged into the
// session's registry as its check ends. On cancellation the results
// completed so far stay in place (unchecked slots zero) and ctx.Err() is
// returned.
func (s *Session) Check(ctx context.Context, traces []*Trace) ([]CheckResult, error) {
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chks := make([]*checker.Checker, workers)
	reg := s.coverage()
	results := make([]CheckResult, len(traces))
	par.Each(ctx, workers, len(traces), func(w, i int) bool {
		if chks[w] == nil {
			chks[w] = s.newChecker()
		}
		results[i], _ = chks[w].CheckCtx(ctx, traces[i])
		reg.Merge(&results[i].Coverage)
		return true
	})
	return results, ctx.Err()
}

// CheckOne checks a single trace.
func (s *Session) CheckOne(ctx context.Context, t *Trace) (CheckResult, error) {
	res, err := s.newChecker().CheckCtx(ctx, t)
	s.coverage().Merge(&res.Coverage)
	return res, err
}

func (s *Session) newChecker() *checker.Checker {
	chk := checker.New(s.spec)
	if s.maxStateSet > 0 {
		chk.MaxStateSet = s.maxStateSet
	}
	chk.Tel = s.tel
	return chk
}

// RunJob names one pipeline run: what to execute and how, while the
// session supplies the environment (spec, workers, cache, journal,
// observer, coverage registry). See PipelineConfig for field semantics.
type RunJob struct {
	// Name labels the run in summaries ("ext4 vs linux").
	Name string
	// Scripts is the full job list (identical order across shards).
	Scripts []*Script
	// Factory creates the implementation under test; FSName is its cache
	// identity.
	Factory Factory
	FSName  string
	// Shards/Shard split the job list across invocations or machines.
	Shards int
	Shard  int
	// Concurrent selects the concurrent executor; SchedSeed ≠ 0 its
	// seeded deterministic scheduler.
	Concurrent bool
	SchedSeed  int64
	// ModelVersion overrides the cache key's model version (tests only).
	ModelVersion string
}

// Run executes one shard of a suite through the sharded, cache-backed
// checking pipeline. Without WithJournal it returns this shard's records
// in job order. With WithJournal the records stream to the JSONL sink,
// which is finalized on success and left as a valid append-order journal
// on error — cancellation (ctx deadline, Ctrl-C via signal.NotifyContext)
// stops between jobs, and a later session constructed WithResume
// completes the run without re-executing journaled work, yielding
// byte-identical finalized output. A journaled Run returns the finalized
// file's records in file order: every record the file holds, other
// shards' and resumed ones included. Record.Cached marks the records a
// cache hit or the resumed journal supplied.
func (s *Session) Run(ctx context.Context, job RunJob) ([]PipelineRecord, PipelineStats, error) {
	cache, err := s.openCache()
	if err != nil {
		return nil, PipelineStats{}, err
	}
	defer telemetry.Or(s.tel).Span("session.run").End()
	cfg := pipeline.Config{
		Name:         job.Name,
		Scripts:      job.Scripts,
		Factory:      job.Factory,
		FSName:       job.FSName,
		Spec:         s.spec,
		ModelVersion: job.ModelVersion,
		Workers:      s.workers,
		MaxStateSet:  s.maxStateSet,
		Shards:       job.Shards,
		Shard:        job.Shard,
		Concurrent:   job.Concurrent,
		SchedSeed:    job.SchedSeed,
		Cache:        cache,
		Observe:      s.observer,
		Cov:          s.reg,
		Tel:          s.tel,
		Log:          s.log,
		HashScripts:  s.scriptHashes,
	}
	if s.journal != "" {
		s.journalMu.Lock()
		defer s.journalMu.Unlock()
	}
	return s.runSink(ctx, cfg, s.journal)
}

// runSink runs cfg through the pipeline with a sink at path, if path is
// not empty: opened per the session's WithResume, finalized on success
// and closed on error, so the append-order journal stays resumable. With
// a sink it returns the records Finalize wrote; without one, pipeline.Run's.
func (s *Session) runSink(ctx context.Context, cfg pipeline.Config, path string) ([]PipelineRecord, PipelineStats, error) {
	if path == "" {
		return pipeline.Run(ctx, cfg)
	}
	sink, err := pipeline.OpenSink(path, s.resume)
	if err != nil {
		return nil, PipelineStats{}, err
	}
	cfg.Sink = sink
	_, stats, err := pipeline.Run(ctx, cfg)
	if err != nil {
		sink.Close()
		return nil, stats, err
	}
	records, err := sink.Finalize()
	return records, stats, err
}

// Survey executes scripts on every configuration through the pipeline and
// summarises the deviations (the §7.3 survey). Summaries aggregate from
// per-trace records, so no configuration ever holds its full
// ([]Trace, []Result) pair in memory. The session's cache is shared
// across configurations; WithJournalDir adds one resumable JSONL sink per
// configuration. Cancellation stops between jobs and returns the
// configurations completed so far with ctx's error.
func (s *Session) Survey(ctx context.Context, scripts []*Script, configs []Config) ([]SurveyResult, error) {
	cache, err := s.openCache()
	if err != nil {
		return nil, err
	}
	if s.journalDir != "" {
		// Concurrent Surveys of one session would race on the same
		// per-configuration sink files; serialize them, as Run does.
		s.journalMu.Lock()
		defer s.journalMu.Unlock()
		if err := os.MkdirAll(s.journalDir, 0o755); err != nil {
			return nil, err
		}
	}
	defer telemetry.Or(s.tel).Span("session.survey").End()
	var out []SurveyResult
	for _, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		sel := scripts
		if cfg.SkipUserScripts {
			sel = FilterHostSafe(scripts)
		}
		w := s.workers
		if cfg.Serial {
			w = 1
		}
		pcfg := pipeline.Config{
			Name:        cfg.Name,
			Scripts:     sel,
			Factory:     cfg.Factory,
			FSName:      cfg.Name,
			Spec:        cfg.Spec,
			Workers:     w,
			Cache:       cache,
			Observe:     s.observer,
			Cov:         s.reg,
			Tel:         s.tel,
			Log:         s.log,
			HashScripts: s.scriptHashes,
		}
		if s.maxStateSet > 0 {
			pcfg.MaxStateSet = s.maxStateSet
		}
		var path string
		if s.journalDir != "" {
			path = filepath.Join(s.journalDir, surveySinkName(cfg.Name))
		}
		records, _, err := s.runSink(ctx, pcfg, path)
		if err != nil {
			return out, fmt.Errorf("survey %s: %w", cfg.Name, err)
		}
		out = append(out, SurveyResult{
			Config:  cfg,
			Summary: pipeline.Summarise(cfg.Name, records),
		})
	}
	return out, nil
}

// MergeSurvey merges the per-configuration summaries, exposing the tests
// that distinguish configurations.
func (s *Session) MergeSurvey(ctx context.Context, results []SurveyResult) (*analysis.Merged, error) {
	runs := make([]*analysis.RunSummary, len(results))
	for i, r := range results {
		runs[i] = r.Summary
	}
	return analysis.MergeCtx(ctx, runs)
}

// FuzzJob names one coverage-guided fuzzing session; the session supplies
// spec, workers, result cache, coverage registry and log. The session
// ends when ctx is cancelled or deadlined (the normal stop for a
// time-bounded session — pair with context.WithTimeout) or after MaxRuns
// candidates; one of the two bounds is required.
type FuzzJob struct {
	// Name labels the session in reports and is the result cache's
	// implementation identity — keep it stable across sessions.
	Name string
	// Factory creates the implementation under test, one instance per run.
	Factory Factory
	// Seed makes the session reproducible (with one worker).
	Seed int64
	// MaxRuns bounds the number of candidate executions (0 = until ctx
	// ends).
	MaxRuns int64
	// MaxSteps caps candidate script length (default 30).
	MaxSteps int
	// CorpusDir persists the corpus and findings for resumption.
	CorpusDir string
	// Concurrent executes candidates with the seeded concurrent executor.
	Concurrent bool
	// Crash enables the durability mutation operators (fsync/sync
	// barriers, crash labels). Pair with a crash-capable Factory and a
	// session Spec with Crash set; mutually exclusive with Concurrent.
	Crash bool
	// Seeds are extra initial inputs offered to the corpus at startup.
	Seeds []*Script
	// KeepCoverage keeps the session's coverage counters instead of
	// resetting them at start.
	KeepCoverage bool
}

// Fuzz runs a coverage-guided fuzzing session: mutated scripts are
// executed via the job's Factory, checked against the session's spec,
// admitted to the corpus when they reach new model coverage points, and
// minimized into findings when the oracle rejects them. Cancellation is
// the normal end of a session: the corpus and findings collected so far
// are reported as usual.
func (s *Session) Fuzz(ctx context.Context, job FuzzJob) (*FuzzResult, error) {
	cache, err := s.openCache()
	if err != nil {
		return nil, err
	}
	defer telemetry.Or(s.tel).Span("session.fuzz").End()
	return fuzz.Run(ctx, FuzzConfig{
		Name:         job.Name,
		Factory:      job.Factory,
		Spec:         s.spec,
		Seed:         job.Seed,
		Workers:      s.workers,
		MaxRuns:      job.MaxRuns,
		MaxSteps:     job.MaxSteps,
		CorpusDir:    job.CorpusDir,
		Concurrent:   job.Concurrent,
		Crash:        job.Crash,
		Seeds:        job.Seeds,
		KeepCoverage: job.KeepCoverage,
		ResultCache:  cache,
		Registry:     s.reg,
		Tel:          s.tel,
		Log:          s.log,
	})
}

// Coverage reports the session's model coverage-point statistics (§7.2):
// its registry's with WithCoverage, cov.Default's otherwise.
func (s *Session) Coverage() (hit, total int) { return s.coverage().Stats() }

// CoverageUnhit lists coverage points this session never exercised.
func (s *Session) CoverageUnhit() []string { return s.coverage().Unhit() }

// ResetCoverage zeroes the session's coverage counters. With an isolated
// registry this touches nothing process-global — the footgun the old
// package-level ResetCoverage had.
func (s *Session) ResetCoverage() { s.coverage().Reset() }

// surveySinkName maps a configuration name to its JSONL file name.
func surveySinkName(config string) string {
	return strings.ReplaceAll(config, " ", "_") + ".jsonl"
}
