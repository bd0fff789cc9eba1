// Package serve is the check-as-a-service daemon behind cmd/sfs-serve:
// an HTTP front end (JSON + NDJSON streaming, stdlib only) over the
// Session facade. Clients submit suite specs as jobs; a FIFO scheduler
// hands them, in submission order, to worker goroutines, each driving
// an isolated Session with a per-job resumable journal under the data
// directory; and every job shares the daemon's content-addressed
// result store, so a resubmitted suite is served warm. A killed daemon
// restarted on the same data directory re-enqueues its unfinished jobs
// and resumes them from their journals without re-executing completed
// traces.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	sibylfs "repro"
	"repro/internal/cliutil"
	"repro/internal/pipeline"
	"repro/internal/serveapi"
	"repro/internal/telemetry"
)

// Options configure a Server.
type Options struct {
	// DataDir is the daemon's root: the shared result store lives under
	// DataDir/cache, per-job state and journals under DataDir/jobs/<id>.
	// Required.
	DataDir string
	// Jobs is how many jobs run concurrently — the scheduler's worker
	// count (default 2).
	Jobs int
	// Workers bounds each job's pipeline worker pool (default:
	// GOMAXPROCS split evenly across the job slots, at least 1). A
	// job spec's Workers field overrides it per job.
	Workers int
	// Log receives progress lines (job transitions); nil is silent.
	Log io.Writer
	// Tel receives the daemon's serve.* metrics and the shared store's
	// open-time ones (nil gives the daemon a registry of its own). Each
	// job records into a registry of its own, served at
	// /v1/jobs/{id}/stats.
	Tel *telemetry.Registry
}

// Server is the daemon: construct with New, mount Handler on an
// http.Server, Close to drain. Safe for concurrent use.
type Server struct {
	opts  Options
	tel   *telemetry.Registry
	store pipeline.Store
	mux   *http.ServeMux
	sched *sched

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	seq    int
	closed bool
}

// New opens (creating if needed) the data directory, recovers
// unfinished jobs from a previous life, and starts the job workers.
func New(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("serve: DataDir is required")
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 2
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0) / opts.Jobs
		if opts.Workers < 1 {
			opts.Workers = 1
		}
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	tel := opts.Tel
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	store, err := pipeline.OpenPackStore(filepath.Join(opts.DataDir, "cache"), tel)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		tel:   tel,
		store: store,
		sched: newSched(tel),
		jobs:  make(map[string]*job),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.buildMux()
	if err := s.recoverJobs(); err != nil {
		store.Close()
		return nil, err
	}
	for range opts.Jobs {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverJobs scans DataDir/jobs: terminal jobs are kept for status
// and record queries, anything else — queued or mid-run when the
// previous daemon died — is re-enqueued. Resume is journal-driven:
// the re-run session opens the job's journal WithResume and skips
// every completed trace.
func (s *Server) recoverJobs() error {
	dir := filepath.Join(s.opts.DataDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		jdir := filepath.Join(dir, id)
		specData, err := os.ReadFile(filepath.Join(jdir, "job.json"))
		if err != nil {
			continue // half-created submission: nothing to resume
		}
		var spec serveapi.JobSpec
		if json.Unmarshal(specData, &spec) != nil {
			continue
		}
		j := newJob(id, spec, jdir)
		var st serveapi.JobStatus
		if data, err := os.ReadFile(j.statusPath()); err == nil && json.Unmarshal(data, &st) == nil {
			if serveapi.TerminalState(st.State) {
				j.state = st.State
				j.errMsg = st.Error
				j.scripts = st.Scripts
				j.stats = pipeline.Stats{
					Jobs:        st.Jobs,
					Executed:    st.Executed,
					CacheHits:   st.CacheHits,
					SinkSkipped: st.Resumed,
					Rejected:    st.Rejected,
				}
				j.elapsed = time.Duration(st.ElapsedMS) * time.Millisecond
			}
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		if !serveapi.TerminalState(j.state) {
			j.state = serveapi.StateQueued
			s.tel.Counter("serve.jobs_recovered").Inc()
			s.logf("serve: recovered job %s (%s), re-enqueued", id, spec.FS)
			s.sched.push(j)
		}
	}
	// Jobs were created with time-ordered IDs, so lexicographic order is
	// submission order across daemon lives.
	slices.Sort(s.order)
	return nil
}

// Close drains the daemon: no new submissions, running jobs cancel
// cooperatively (their journals stay resumable and their on-disk state
// stays non-terminal, so the next daemon life picks them up), workers
// exit, and the shared store flushes durably.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.sched.close()
	s.cancel()
	s.wg.Wait()
	return s.store.Close()
}

// worker is one scheduler worker: pop the oldest queued job, run it to a
// settled state, repeat until close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.pop()
		if !ok {
			return
		}
		if j.terminal() {
			continue // cancelled while queued
		}
		s.tel.Gauge("serve.active_jobs").Add(1)
		start := time.Now()
		s.runJob(j)
		s.tel.Histogram("serve.job_ns").ObserveSince(start)
		s.tel.Gauge("serve.active_jobs").Add(-1)
	}
}

// runPlan is a validated job spec, resolved to the things a Session
// needs. Building it has no side effects, so Submit uses it to reject
// bad specs at the door and the worker rebuilds it at run time.
type runPlan struct {
	cliutil.Target
	name    string
	workers int
	inline  []*sibylfs.Script
}

func (s *Server) plan(spec serveapi.JobSpec) (runPlan, error) {
	var p runPlan
	if spec.FS == "host" {
		return p, fmt.Errorf("fs \"host\" is not served: host runs are serial and jail the daemon's own process — run them locally with sfs-run")
	}
	t, err := cliutil.Resolve(spec.FS, spec.Platform, spec.Universe, spec.NoPerms)
	if err != nil {
		return p, err
	}
	p.Target = t
	for i, text := range spec.Scripts {
		sc, err := sibylfs.ParseScript(text)
		if err != nil {
			return p, fmt.Errorf("scripts[%d]: %v", i, err)
		}
		if sc.Name == "" {
			sc.Name = fmt.Sprintf("inline-%04d", i)
		}
		p.inline = append(p.inline, sc)
	}
	p.name = spec.Name
	if p.name == "" {
		p.name = fmt.Sprintf("%s vs %s", spec.FS, p.Spec.Platform)
	}
	p.workers = s.opts.Workers
	if spec.Workers > 0 {
		p.workers = spec.Workers
	}
	return p, nil
}

// runJob drives one job through an isolated Session: its own telemetry
// registry (per-tenant metrics), its own resumable journal, the shared
// result store, and a cancellable context parented on the daemon's.
func (s *Server) runJob(j *job) {
	plan, err := s.plan(j.spec)
	if err != nil {
		s.finishJob(j, serveapi.StateFailed, err.Error())
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	j.mu.Lock()
	if serveapi.TerminalState(j.state) {
		j.mu.Unlock()
		return
	}
	j.state = serveapi.StateRunning
	j.cancel = cancel
	j.tel = telemetry.NewRegistry()
	tel := j.tel
	j.mu.Unlock()
	j.persistStatus(j.status())
	j.cond.Broadcast()
	s.logf("serve: job %s running: %s", j.id, plan.name)

	opts := []sibylfs.Option{
		sibylfs.WithSpec(plan.Spec),
		sibylfs.WithWorkers(plan.workers),
		sibylfs.WithStore(s.store),
		sibylfs.WithJournal(j.journalPath()),
		sibylfs.WithResume(),
		sibylfs.WithTelemetry(tel),
		sibylfs.WithObserver(j.observe),
	}
	if j.spec.MaxStateSet > 0 {
		opts = append(opts, sibylfs.WithMaxStateSet(j.spec.MaxStateSet))
	}
	session := sibylfs.New(opts...)

	start := time.Now()
	scripts := cliutil.Sample(plan.inline, j.spec.Sample)
	if len(scripts) == 0 {
		scripts, err = plan.Scripts(ctx, session, "", j.spec.Sample)
	}
	if err == nil {
		j.mu.Lock()
		j.scripts = len(scripts)
		j.mu.Unlock()
		var stats sibylfs.PipelineStats
		_, stats, err = session.Run(ctx, sibylfs.RunJob{
			Name:       plan.name,
			Scripts:    scripts,
			Factory:    plan.Factory,
			FSName:     plan.FSName,
			Concurrent: plan.Universe == cliutil.UniverseConcurrent,
			SchedSeed:  j.spec.SchedSeed,
		})
		j.mu.Lock()
		j.stats = stats
		j.elapsed = time.Since(start)
		j.mu.Unlock()
	}
	switch {
	case err == nil:
		s.finishJob(j, serveapi.StateDone, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if j.wasCancelled() {
			s.finishJob(j, serveapi.StateCancelled, "")
		} else {
			// Daemon shutdown mid-job: the journal holds every completed
			// record and the on-disk state goes back to queued, so the next
			// daemon life re-enqueues and resumes it.
			j.setState(serveapi.StateQueued, "")
			s.logf("serve: job %s interrupted by shutdown; journal resumable", j.id)
		}
	default:
		s.finishJob(j, serveapi.StateFailed, err.Error())
	}
}

func (s *Server) finishJob(j *job, state, errMsg string) {
	j.setState(state, errMsg)
	switch state {
	case serveapi.StateDone:
		s.tel.Counter("serve.jobs_done").Inc()
	case serveapi.StateFailed:
		s.tel.Counter("serve.jobs_failed").Inc()
	case serveapi.StateCancelled:
		s.tel.Counter("serve.jobs_cancelled").Inc()
	}
	s.logf("serve: job %s %s %s", j.id, state, errMsg)
}

// Submit validates spec, persists it under a fresh job directory and
// enqueues it; the returned status carries the job ID.
func (s *Server) Submit(spec serveapi.JobSpec) (serveapi.JobStatus, error) {
	if _, err := s.plan(spec); err != nil {
		return serveapi.JobStatus{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return serveapi.JobStatus{}, fmt.Errorf("serve: shutting down")
	}
	s.seq++
	// Time-prefixed IDs sort by submission across daemon lives; the
	// sequence number breaks same-millisecond ties within one life.
	id := fmt.Sprintf("%012x-%04x", time.Now().UnixMilli(), s.seq&0xffff)
	dir := filepath.Join(s.opts.DataDir, "jobs", id)
	j := newJob(id, spec, dir)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return serveapi.JobStatus{}, err
	}
	specData, err := json.Marshal(spec)
	if err != nil {
		return serveapi.JobStatus{}, err
	}
	if err := os.WriteFile(j.specPath(), append(specData, '\n'), 0o644); err != nil {
		return serveapi.JobStatus{}, err
	}
	st := j.status()
	j.persistStatus(st)
	s.tel.Counter("serve.jobs").Inc()
	s.logf("serve: job %s queued: %s on %s", id, spec.FS, spec.Universe)
	s.sched.push(j)
	return st, nil
}

func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, format+"\n", args...)
	}
}
