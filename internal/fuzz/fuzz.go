package fuzz

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/checker"
	"repro/internal/cov"
	"repro/internal/exec"
	"repro/internal/fsimpl"
	"repro/internal/reduce"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/types"
)

// Config parameterises one fuzzing session.
type Config struct {
	// Name labels the session in reports (e.g. "fuzz hfsplus_linux_trusty
	// vs linux").
	Name string
	// Factory creates the implementation under test, one instance per run.
	Factory fsimpl.Factory
	// Spec is the model variant the oracle checks against. Spec.Crash
	// also makes this a crash session: candidates gain fsync/sync
	// barriers and crash labels (power cycles), so the fuzzer explores
	// the persistence model's admissible-state envelope. A crash session
	// needs a crash-capable Factory (a crash-profiled memfs or a
	// Spec.Crash SpecFS) and excludes Concurrent — crash labels are
	// sequential-executor only. Seed the corpus with testgen.CrashScripts
	// to start the loop inside the crash universe.
	Spec types.Spec
	// Seed makes the session reproducible (with Workers = 1).
	Seed int64
	// Workers is the number of parallel fuzzing goroutines
	// (≤ 0 selects GOMAXPROCS).
	Workers int
	// MaxRuns bounds the number of candidate executions; zero means no
	// bound. Without it the ctx must carry a deadline (context.WithTimeout
	// bounds the whole session, corpus seeding included), or the session
	// would never end.
	MaxRuns int64
	// MaxSteps caps candidate script length (default 30).
	MaxSteps int
	// CorpusDir persists the corpus (and findings) for resumption; empty
	// keeps everything in memory.
	CorpusDir string
	// Concurrent executes candidates with the concurrent executor instead
	// of the sequential one: script processes run under the seeded
	// deterministic scheduler (seed = Seed), so mutated multi-process
	// scripts genuinely interleave while every candidate's trace stays
	// reproducible for the session seed. Seed the corpus with multi-process
	// scripts (e.g. testgen.ConcurrentScripts) to make this bite.
	Concurrent bool
	// Seeds are extra initial inputs offered to the corpus at startup.
	Seeds []*trace.Script
	// Registry receives the session's model coverage (nil gives the
	// session a registry of its own): every run, minimization probes
	// included, records its points in a set of its own and merges it here
	// once, and the corpus guidance polls this registry. The session
	// resets it at start, so only a registry the caller owns belongs
	// here.
	Registry *cov.Registry
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Tel receives the session's telemetry (iteration throughput, corpus
	// size, findings, per-candidate latency, exec.* for every execution);
	// nil gives the session a registry of its own, which nobody reads.
	// Purely observational.
	Tel *telemetry.Registry
}

// Result is the outcome of one fuzzing session.
type Result struct {
	Runs       int64
	ExecErrors int64
	Crashes    int64
	// CorpusSize is the final number of corpus entries; NewEntries counts
	// those admitted during this session's loop (excluding reloaded ones).
	CorpusSize int
	NewEntries int
	// InitialCovHit is the number of model coverage points hit after
	// seeding/corpus reload, before any mutation ran — resumed sessions
	// start strictly ahead of empty ones.
	InitialCovHit int
	// CovHit/CovTotal are the session-end model coverage figures (§7.2).
	CovHit   int
	CovTotal int
	Findings []*Finding
	// Summary/HTML are the findings rendered through internal/analysis.
	Summary *analysis.RunSummary
	HTML    string
	Elapsed time.Duration
}

// Run executes one fuzzing session. The session ends when ctx is
// cancelled or deadlined, or when MaxRuns candidates have executed —
// cancellation is the normal way a time-bounded session stops, not an
// error: the corpus and findings collected so far are reported as usual.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Factory == nil {
		return nil, errors.New("fuzz: Config.Factory is required")
	}
	if _, bounded := ctx.Deadline(); !bounded && cfg.MaxRuns <= 0 {
		return nil, errors.New("fuzz: set Config.MaxRuns or a context deadline")
	}
	if cfg.Spec.Crash && cfg.Concurrent {
		return nil, errors.New("fuzz: Spec.Crash and Config.Concurrent are mutually exclusive (crash labels are sequential-executor only)")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 30
	}
	if cfg.Name == "" {
		cfg.Name = "fuzz"
	}

	if cfg.Registry == nil {
		cfg.Registry = cov.NewRegistry()
	}
	if cfg.Tel == nil {
		cfg.Tel = telemetry.NewRegistry()
	}
	tel := cfg.Tel
	e := &engine{
		cfg:     cfg,
		corpus:  NewCorpus(),
		reg:     cfg.Registry,
		tel:     tel,
		bySig:   make(map[string]*Finding),
		rawSeen: make(map[string]*Finding),
	}
	e.reg.Reset()

	// Seeding runs on this goroutine with a checker of its own; every loop
	// worker builds another.
	seedSpan := tel.Span("fuzz.seed")
	if err := e.seed(ctx, e.newChecker()); err != nil {
		return nil, err
	}
	seedSpan.End()
	initialHit := e.reg.HitCount()
	e.logf("fuzz: start corpus=%d coverage=%d points", e.corpus.Len(), initialHit)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(ctx, id)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	e.progress(done)

	res := &Result{
		Runs:          e.runs.Load(),
		ExecErrors:    e.execErrs.Load(),
		Crashes:       e.crashes.Load(),
		InitialCovHit: initialHit,
		Elapsed:       time.Since(start),
	}
	e.mu.Lock()
	res.CorpusSize = e.corpus.Len()
	res.NewEntries = e.newEntries
	res.Findings = append(res.Findings, e.findings...)
	e.mu.Unlock()
	res.CovHit, res.CovTotal = e.reg.Stats()
	tel.Gauge("fuzz.corpus_size").Set(int64(res.CorpusSize))
	tel.Gauge("fuzz.findings").Set(int64(len(res.Findings)))
	tel.Gauge("fuzz.coverage_points").Set(int64(res.CovHit))

	sum, html, err := ReportWith(cfg.Name, res.Findings, res.CovHit, res.CovTotal, tel)
	if err != nil {
		return nil, err
	}
	res.Summary, res.HTML = sum, html
	e.logf("fuzz: done runs=%d corpus=%d (+%d) coverage=%d/%d findings=%d crashes=%d in %v",
		res.Runs, res.CorpusSize, res.NewEntries, res.CovHit, res.CovTotal,
		len(res.Findings), res.Crashes, res.Elapsed.Round(time.Millisecond))
	return res, nil
}

// engine is the shared state of one session. It holds no checker: a
// checker belongs to one goroutine, so seeding and each worker check with
// their own and pass it down.
type engine struct {
	cfg Config

	mu         sync.Mutex // corpus, findings, newEntries
	corpus     *Corpus
	findings   []*Finding
	bySig      map[string]*Finding
	rawSeen    map[string]*Finding // pre-minimization dedup (see reportDeviation)
	newEntries int

	// reg is the session's coverage registry (Config.Registry), never nil.
	reg *cov.Registry
	// tel is the session's telemetry registry (Config.Tel), never nil.
	tel      *telemetry.Registry
	runs     atomic.Int64
	seq      atomic.Int64
	execErrs atomic.Int64
	crashes  atomic.Int64
}

// newChecker returns a checker for one goroutine of the session.
func (e *engine) newChecker() *checker.Checker {
	c := checker.New(e.cfg.Spec)
	c.Tel = e.tel
	return c
}

func (e *engine) logf(format string, args ...any) {
	if e.cfg.Log != nil {
		fmt.Fprintf(e.cfg.Log, format+"\n", args...)
	}
}

// runScript executes one candidate with the configured executor mode,
// recording the implementation's model coverage in hits. Candidates run
// to completion even when the session context is cancelled (they are
// short); the worker loop is where cancellation is observed.
func (e *engine) runScript(s *trace.Script, hits *cov.Set) (*trace.Trace, error) {
	var t *trace.Trace
	var err error
	if e.cfg.Concurrent {
		t, err = exec.RunConcurrent(context.Background(), s, e.cfg.Factory,
			exec.ConcurrentOptions{Seeded: true, Seed: e.cfg.Seed}, hits)
	} else {
		t, err = exec.Run(context.Background(), s, e.cfg.Factory, hits)
	}
	if err == nil {
		exec.Count(e.tel, t, e.cfg.Concurrent)
	}
	return t, err
}

// seed loads the persisted corpus (if any) and the configured seed
// scripts, replaying each so the corpus keys and the session's coverage
// counters reflect the current model. A cancelled ctx stops seeding early
// (graceful shutdown, as in the worker loop) — the session then reports
// over whatever was admitted. c checks the replays.
func (e *engine) seed(ctx context.Context, c *checker.Checker) error {
	var scripts []*trace.Script
	if e.cfg.CorpusDir != "" {
		loaded, err := LoadScripts(e.cfg.CorpusDir)
		if err != nil {
			return err
		}
		scripts = append(scripts, loaded...)
	}
	scripts = append(scripts, e.cfg.Seeds...)
	for _, s := range scripts {
		if ctx.Err() != nil {
			return nil
		}
		if !validLifecycle(s) {
			continue
		}
		if !e.cfg.Spec.Crash && trace.HasCrashLabel(s.Steps) {
			// A crash corpus reloaded into a non-crash session: the factory
			// cannot power-cycle, so the replay could only error.
			continue
		}
		e.offer(c, s)
	}
	return nil
}

// worker is one fuzzing goroutine, checking with a checker of its own:
// its RNG stream is derived from the session seed and worker id, so a
// single-worker session is fully deterministic. The loop ends when ctx is
// done (deadline or caller cancellation — both are graceful session ends)
// or MaxRuns is reached.
func (e *engine) worker(ctx context.Context, id int) {
	c := e.newChecker()
	r := rand.New(rand.NewSource(workerSeed(e.cfg.Seed, id)))
	m := &mutator{r: r, maxSteps: e.cfg.MaxSteps, crash: e.cfg.Spec.Crash}
	for {
		seq := e.seq.Add(1)
		if e.cfg.MaxRuns > 0 && seq > e.cfg.MaxRuns {
			return
		}
		select {
		case <-ctx.Done():
			return
		default:
		}
		e.step(c, r, m, seq)
		e.runs.Add(1)
		e.tel.Counter("fuzz.runs").Inc()
	}
}

func workerSeed(seed int64, id int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)*0xd1342543de82ef95 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return int64(z ^ (z >> 31))
}

// step runs one fuzzing iteration, checking with c.
func (e *engine) step(c *checker.Checker, r *rand.Rand, m *mutator, seq int64) {
	parent, donor := e.pick(r)
	var cand *trace.Script
	if parent == nil {
		cand = m.fresh(e.cfg.Seed, int(seq))
	} else {
		cand = m.mutate(parent, donor)
		cand.Name = candidateName(seq)
	}

	before := e.reg.HitCount()
	candStart := time.Now()
	tr, res, hits, crash, err := e.execCheck(c, cand)
	e.tel.Histogram("fuzz.exec_check_ns").ObserveSince(candStart)
	switch {
	case crash != "":
		e.crashes.Add(1)
		e.tel.Counter("fuzz.crashes").Inc()
		e.reportCrash(c, cand, crash)
	case err != nil:
		e.execErrs.Add(1)
		e.tel.Counter("fuzz.exec_errors").Inc()
	case !res.Accepted:
		e.reportDeviation(c, cand, tr, res)
	case e.reg.HitCount() > before || r.Intn(64) == 0:
		// The cheap pre-filter only sees *registry-wide* new points, which
		// a deviating run may have claimed first even though no corpus
		// entry holds them — so a small slice of accepted runs is offered
		// unconditionally, letting the corpus eventually absorb points
		// first reached along defect paths.
		e.admit(cand, hits.Names(), true)
	}
}

// execCheck executes one script and checks it with c, catching panics
// from the implementation or the model, and returns the run's coverage
// set: the points its execution (a model-backed implementation) and its
// check hit. The set is merged into the session's registry, which keeps
// HitCount moving for the guidance pre-filter. A check cut short by a
// panic leaves c fit for the next one.
func (e *engine) execCheck(c *checker.Checker, s *trace.Script) (tr *trace.Trace, res checker.Result, hits cov.Set, crash string, err error) {
	defer func() {
		if p := recover(); p != nil {
			crash = fmt.Sprintf("%v", p)
		}
		e.reg.Merge(&hits)
	}()
	tr, err = e.runScript(s, &hits)
	if err == nil {
		res = c.Check(tr)
		hits.Or(&res.Coverage)
	}
	return tr, res, hits, "", err
}

// pick chooses a parent entry (weighted by coverage-point rarity) and an
// independent donor for splicing. Roughly one candidate in ten is
// generated from scratch instead, so exploration never stops; an empty
// corpus always generates fresh inputs.
func (e *engine) pick(r *rand.Rand) (parent, donor *trace.Script) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.corpus.Len()
	if n == 0 || r.Intn(10) == 0 {
		return nil, nil
	}
	entries := e.corpus.Entries()
	weights, total := e.corpus.Weights()
	x := r.Float64() * total
	idx := n - 1
	for i, w := range weights {
		if x < w {
			idx = i
			break
		}
		x -= w
	}
	parent = entries[idx].Script
	donor = entries[r.Intn(n)].Script
	return parent, donor
}

// offer replays a seed script and admits it to the corpus if it hits a
// point no existing entry hits. Scripts whose replay deviates are routed
// to the findings path instead (e.g. loaded corpus entries that deviate
// under a different profile than they were collected on). c checks the
// replay.
func (e *engine) offer(c *checker.Checker, s *trace.Script) {
	tr, res, hits, crash, err := e.execCheck(c, s)
	switch {
	case crash != "":
		// E.g. a reloaded corpus replayed against a different profile that
		// panics on it: a finding, not a session abort.
		e.crashes.Add(1)
		e.reportCrash(c, s, crash)
	case err != nil:
		e.execErrs.Add(1)
	case !res.Accepted:
		e.reportDeviation(c, s, tr, res)
	default:
		e.admit(s, hits.Names(), false)
	}
}

// admit adds a clean run's script to the corpus if its coverage points
// (sorted names) include one no existing entry hits.
func (e *engine) admit(s *trace.Script, points []string, fromLoop bool) {
	e.mu.Lock()
	entry, admitted, replaced, evicted := e.corpus.Admit(s, points)
	if admitted {
		e.tel.Counter("fuzz.corpus_admitted").Inc()
		e.tel.Gauge("fuzz.corpus_size").Set(int64(e.corpus.Len()))
	}
	if admitted && fromLoop {
		e.newEntries++
	}
	if (admitted || replaced) && e.cfg.CorpusDir != "" {
		// Persist while still holding e.mu: a save racing a concurrent
		// replace of the same signature could otherwise re-create the
		// just-evicted file after its removal, and nothing would ever
		// delete it again. Admissions are rare, so the I/O under the lock
		// does not matter.
		if err := SaveScript(e.cfg.CorpusDir, s); err != nil {
			e.logf("fuzz: persisting corpus entry: %v", err)
		}
		if evicted != nil {
			if err := RemoveScript(e.cfg.CorpusDir, evicted); err != nil {
				e.logf("fuzz: removing superseded corpus entry: %v", err)
			}
		}
	}
	e.mu.Unlock()
	if admitted && fromLoop {
		e.logf("fuzz: corpus +%s (%d points, %d steps)", entry.Sig, len(entry.Points), len(s.Steps))
	}
}

// reportDeviation minimizes an oracle-rejected candidate and records the
// finding, deduplicating by minimized signature. Minimization costs many
// oracle executions, and on defect-heavy targets most deviating candidates
// re-discover a known root cause — so a cheap pre-minimization key (the
// failing ops with their observed/allowed diagnoses) short-circuits
// duplicates before ddmin runs. c checks the minimization probes.
func (e *engine) reportDeviation(c *checker.Checker, cand *trace.Script, tr *trace.Trace, res checker.Result) {
	e.tel.Counter("fuzz.deviations").Inc()
	rawKey := rawDeviationKey(tr, res)
	e.mu.Lock()
	if f, ok := e.rawSeen[rawKey]; ok {
		f.Dups++
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()

	min, err := reduce.Minimize(cand, func(s *trace.Script) (bool, error) {
		return e.deviates(c, s)
	})
	if err != nil {
		min = cand
	}
	trMin, resMin := tr, res
	if min != cand {
		if tr2, res2, _, crash, err2 := e.execCheck(c, min); crash == "" && err2 == nil && !res2.Accepted {
			trMin, resMin = tr2, res2
		} else {
			min = cand // minimization went nondeterministic; keep the original
		}
	}
	sig := findingSig(min, resMin)
	name := findingName(KindDeviation, sig)
	if min == cand {
		// Don't rename the caller's script in place (cand may be a
		// user-supplied Config.Seeds entry that was already minimal).
		min = copyScript(cand)
	}
	min.Name = name
	trMin.Name = name
	resMin.Name = name

	e.mu.Lock()
	if f, ok := e.bySig[sig]; ok {
		f.Dups++
		e.rawSeen[rawKey] = f
		e.mu.Unlock()
		return
	}
	f := &Finding{
		Name:     name,
		Kind:     KindDeviation,
		Script:   min,
		Original: cand,
		Trace:    trMin,
		Result:   resMin,
		Sig:      sig,
	}
	e.bySig[sig] = f
	e.rawSeen[rawKey] = f
	e.findings = append(e.findings, f)
	e.mu.Unlock()

	e.logf("fuzz: DEVIATION %s (%d steps, observed %s)", name, len(min.Steps), observedOf(resMin))
	if e.cfg.CorpusDir != "" {
		if err := saveFinding(e.cfg.CorpusDir, f); err != nil {
			e.logf("fuzz: persisting finding: %v", err)
		}
	}
}

// reportCrash minimizes a panicking candidate with a panic-preserving
// oracle, checking with c, and records it.
func (e *engine) reportCrash(c *checker.Checker, cand *trace.Script, panicVal string) {
	min, err := reduce.Minimize(cand, func(s *trace.Script) (bad bool, oerr error) {
		_, _, _, crash, runErr := e.execCheck(c, s)
		if runErr != nil {
			return false, nil // an unexecutable shrink is not the crash
		}
		return crash != "", nil
	})
	if err != nil {
		min = cand
	}
	sig := "panic|" + panicVal + "|" + findingSig(min, checker.Result{})
	name := findingName(KindCrash, sig)
	if min == cand {
		min = copyScript(cand)
	}
	min.Name = name

	e.mu.Lock()
	if f, ok := e.bySig[sig]; ok {
		f.Dups++
		e.mu.Unlock()
		return
	}
	f := &Finding{
		Name:       name,
		Kind:       KindCrash,
		Script:     min,
		Original:   cand,
		Sig:        sig,
		PanicValue: panicVal,
	}
	e.bySig[sig] = f
	e.findings = append(e.findings, f)
	e.mu.Unlock()

	e.logf("fuzz: CRASH %s: %s", name, panicVal)
	if e.cfg.CorpusDir != "" {
		if err := saveFinding(e.cfg.CorpusDir, f); err != nil {
			e.logf("fuzz: persisting finding: %v", err)
		}
	}
}

// deviates is the minimization oracle: execute + check with c, counting
// the probe's coverage like any run's.
func (e *engine) deviates(c *checker.Checker, s *trace.Script) (bad bool, err error) {
	_, res, _, crash, err := e.execCheck(c, s)
	if err != nil {
		return false, nil // shrinks that fail to execute don't deviate
	}
	if crash != "" {
		return false, nil // crash shrink belongs to the crash oracle
	}
	return !res.Accepted, nil
}

func observedOf(r checker.Result) string {
	if len(r.Errors) == 0 {
		return "?"
	}
	return r.Errors[0].Observed
}

// progress emits a status line every few seconds until done closes.
func (e *engine) progress(done <-chan struct{}) {
	if e.cfg.Log == nil {
		<-done
		return
	}
	t := time.NewTicker(5 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			e.mu.Lock()
			corpus, findings := e.corpus.Len(), len(e.findings)
			e.mu.Unlock()
			e.tel.Gauge("fuzz.corpus_size").Set(int64(corpus))
			e.tel.Gauge("fuzz.findings").Set(int64(findings))
			e.tel.Gauge("fuzz.coverage_points").Set(int64(e.reg.HitCount()))
			e.logf("fuzz: runs=%d corpus=%d coverage=%d findings=%d",
				e.runs.Load(), corpus, e.reg.HitCount(), findings)
		}
	}
}
